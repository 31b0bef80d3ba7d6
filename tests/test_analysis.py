import hashlib
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgret.analysis import (CHECK_MASK, MAX_MATRIX_ENTRIES, RANK_RTOL,
                            FripReport, build_linear_system, circulant,
                            coefficient_matrix, dimension_bound,
                            enumerate_nonoverlap_shifts, frip_expectation_check,
                            frip_partial_rows, in_c2, l_nonsingular_check,
                            least_squares_recover, nonoverlap_shift_count,
                            robustness_bound, robustness_violated, sample_c2,
                            stability_constants, uniqueness_certificate, verify_robustness,
                            verify_uniqueness)
from bgret.model import IntensityMeasurements, SupportMask, assemble, hermitian_part, mirror
from bgret.spectral import autocorrelation_from_intensity, intensity
from test_spectral import autocorrelation_direct


def circulant_apply(z, h):
    """FFT oracle for L @ h: the circular correlation IDFT(DFT(z) * conj(DFT(h)))."""
    return np.fft.ifft(np.fft.fft(z) * np.conj(np.fft.fft(h))).real


def gaussian_background(mask, rng):
    y = rng.standard_normal(mask.shape)
    y[mask.inside] = 0.0
    return y


def brute_force_r3(z, mask, shift):
    """Independent expansion of R[l]: cross terms and background terms, by
    literal enumeration of the autocorrelation sum."""
    m = z.shape
    cross = 0.0
    background = 0.0
    it = np.ndindex(*m)
    for p in it:
        q = tuple((pi + si) % mi for pi, si, mi in zip(p, shift, m))
        term = z[p] * z[q]
        if mask.inside[p] or mask.inside[q]:
            cross += term
        else:
            background += term
    return cross, background


def test_nonoverlap_shifts_1d_example():
    mask = SupportMask.block((4,), (1,))
    assert enumerate_nonoverlap_shifts(mask) == [(1,), (2,)]


def test_nonoverlap_shifts_full_grid_empty():
    mask = SupportMask.block((5,), (5,))
    assert enumerate_nonoverlap_shifts(mask) == []


def test_nonoverlap_shifts_2d_example():
    mask = SupportMask.block((2, 2), (1, 1))
    assert enumerate_nonoverlap_shifts(mask) == [(0, 1), (1, 0), (1, 1)]


def test_nonoverlap_shifts_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        k = (int(rng.integers(n[0], 7)), int(rng.integers(n[1], 7)))
        shape = (n[0] + k[0], n[1] + k[1])
        off = (int(rng.integers(0, k[0] + 1)), int(rng.integers(0, k[1] + 1)))
        mask = SupportMask.block(shape, n, off)
        got = set(enumerate_nonoverlap_shifts(mask))
        omega = {tuple(p) for p in np.argwhere(mask.inside)}
        expected = set()
        for shift in product(range(shape[0]), range(shape[1])):
            if shift == (0, 0):
                continue
            moved = {tuple((p[i] + shift[i]) % shape[i] for i in range(2)) for p in omega}
            if moved & omega:
                continue
            if shift <= mirror(shape, shift):
                expected.add(shift)
        assert got == expected


def test_nonoverlap_count_closed_form():
    # corner block: total shifts before dedup = m1*m2 - (2n1-1)(2n2-1)
    for (n1, n2, k1, k2) in [(2, 3, 5, 6), (3, 3, 9, 9), (1, 2, 3, 4)]:
        mask = SupportMask.block((n1 + k1, n2 + k2), (n1, n2))
        kept = enumerate_nonoverlap_shifts(mask)
        self_mirror = sum(1 for s in kept if mirror(mask.shape, s) == s)
        total = 2 * len(kept) - self_mirror
        m1, m2 = n1 + k1, n2 + k2
        assert total == m1 * m2 - (2 * n1 - 1) * (2 * n2 - 1)


def test_linear_system_worked_example():
    # n=1, k=3, y=(1,2,3), x=7: the merged shift-1 equation solves to x=7
    mask = SupportMask.block((4,), (1,))
    y = np.array([0.0, 1.0, 2.0, 3.0])
    obj = assemble([7.0], y, mask)
    r = autocorrelation_direct(obj)
    system = build_linear_system(y, mask, r)
    assert system.shifts == ((1,), (2,))
    # shift 1 merged with its mirror 3: coefficients sum y1+y3 twice
    assert system.M[0, 0] == pytest.approx(2 * (1.0 + 3.0))
    # rhs: R1 + R3 - 2*(y1*y2 + y2*y3) = 72 - 16 = 56
    assert system.rhs[0] == pytest.approx(56.0)
    solution = least_squares_recover(system)
    assert solution.values[0] == pytest.approx(7.0, rel=1e-12)


def test_linear_system_zero_background_is_all_zero():
    mask = SupportMask.block((6,), (2,))
    y = np.zeros(6)
    obj = assemble([1.0, 2.0], y, mask)
    system = build_linear_system(y, mask, autocorrelation_direct(obj))
    assert np.all(system.M == 0.0)


def test_linear_system_consistency_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        k = (3 * n[0], 3 * n[1])
        mask = SupportMask.block((n[0] + k[0], n[1] + k[1]), n)
        y = gaussian_background(mask, rng)
        x = rng.standard_normal(mask.sample_count)
        obj = assemble(x, y, mask)
        r = autocorrelation_direct(obj)
        system = build_linear_system(y, mask, r)
        resid = system.M @ x - system.rhs
        assert np.max(np.abs(resid)) <= 1e-9 * max(1.0, np.max(np.abs(r.values)))
        # rows against the literal expansion of the autocorrelation sum
        for i, shift in enumerate(system.shifts[:4]):
            cross, bg = brute_force_r3(obj, mask, shift)
            factor = 1.0 if mirror(mask.shape, shift) == shift else 2.0
            assert system.M[i] @ x == pytest.approx(factor * cross, rel=1e-9, abs=1e-9)
            assert system.rhs[i] == pytest.approx(
                factor * (r.values[shift] - bg), rel=1e-9, abs=1e-9)


def test_rank_monotone_in_rows():
    rng = np.random.default_rng(2)
    mask_small = SupportMask.block((8,), (2,))
    mask_large = SupportMask.block((12,), (2,))
    y_small = gaussian_background(mask_small, rng)
    m_small, _ = coefficient_matrix(y_small, mask_small)
    y_large = np.zeros(12)
    y_large[:8] = y_small  # same leading background, more rows available
    m_large, _ = coefficient_matrix(y_large, mask_large)
    rank = lambda m: np.linalg.matrix_rank(m, tol=RANK_RTOL)
    assert rank(m_large) >= rank(m_small)


def test_least_squares_exact_1d_bound():
    rng = np.random.default_rng(3)
    n, k = 20, 59  # k = 3n - 1
    mask = SupportMask.block((n + k,), (n,))
    for _ in range(5):
        y = gaussian_background(mask, rng)
        x = rng.standard_normal(n)
        b = intensity(assemble(x, y, mask))
        system = build_linear_system(y, mask, autocorrelation_from_intensity(b))
        solution = least_squares_recover(system)
        assert solution.unique
        assert np.linalg.norm(solution.values - x) / np.linalg.norm(x) < 1e-8


def test_least_squares_exact_2d_bound():
    rng = np.random.default_rng(4)
    n, k = 8, 12  # k about 1.45 n
    mask = SupportMask.block((n + k, n + k), (n, n))
    y = gaussian_background(mask, rng)
    x = rng.standard_normal(n * n)
    b = intensity(assemble(x, y, mask))
    system = build_linear_system(y, mask, autocorrelation_from_intensity(b))
    solution = least_squares_recover(system)
    assert solution.rank == n * n
    assert np.linalg.norm(solution.values - x) / np.linalg.norm(x) < 1e-8


def test_least_squares_perturbation_scaled_by_constants():
    # rhs perturbed by delta moves the solution by at most
    # delta1*delta2*||delta|| (the stability direction)
    rng = np.random.default_rng(30)
    n, k = 6, 18
    mask = SupportMask.block((n + k,), (n,))
    y = gaussian_background(mask, rng)
    x = rng.standard_normal(n)
    b = intensity(assemble(x, y, mask))
    system = build_linear_system(y, mask, autocorrelation_from_intensity(b))
    consts = stability_constants(system)
    base = least_squares_recover(system).values
    for _ in range(20):
        delta = 1e-3 * rng.standard_normal(system.rows)
        from bgret.analysis import LinearSystem
        perturbed = LinearSystem(system.M, system.rhs + delta, system.shifts,
                                 system.grid_shape)
        moved = least_squares_recover(perturbed).values
        assert np.linalg.norm(moved - base) <= (
            consts.delta1 * consts.delta2 * np.linalg.norm(delta) + 1e-12)


def test_least_squares_rank_deficient_flagged():
    mask = SupportMask.block((6,), (2,))
    y = np.zeros(6)
    obj = assemble([1.0, 2.0], y, mask)
    system = build_linear_system(y, mask, autocorrelation_direct(obj))
    solution = least_squares_recover(system)
    assert not solution.unique
    assert solution.rank == 0


def test_least_squares_requires_enough_rows():
    mask = SupportMask.block((4, 4), (3, 3))  # every shift overlaps the support
    y = gaussian_background(mask, np.random.default_rng(5))
    sys_rows, shifts = coefficient_matrix(y, mask)
    assert sys_rows.shape[0] < mask.sample_count
    from bgret.analysis import LinearSystem
    system = LinearSystem(sys_rows, np.zeros(sys_rows.shape[0]), tuple(shifts), (4, 4))
    with pytest.raises(ValueError):
        least_squares_recover(system)


def test_uniqueness_certificate_small_cases():
    rng = np.random.default_rng(6)
    mask = SupportMask.block((3,), (1,))
    y = np.array([0.0, 0.7, -1.3])
    cert = uniqueness_certificate(y, mask)
    assert cert.unique and cert.rank == 1
    assert not uniqueness_certificate(np.zeros(3), mask).unique


def test_uniqueness_certificate_2d_gaussian_rate():
    rng = np.random.default_rng(7)
    n, k = 4, 6
    mask = SupportMask.block((n + k, n + k), (n, n))
    assert dimension_bound((n, n), (k, k)).satisfied
    unique = sum(uniqueness_certificate(gaussian_background(mask, rng), mask).unique
                 for _ in range(25))
    assert unique == 25


@pytest.mark.parametrize("shape,sample,gaussian", [
    ((16,), (4,), True), ((10, 10), (4, 4), True),
    ((16,), (4,), False), ((10, 10), (4, 4), False),
])
def test_certificate_rank_is_the_lstsq_rank(shape, sample, gaussian):
    # the certificate's rank rule and lstsq's rcond read the same rank off M
    rng = np.random.default_rng(17)
    mask = SupportMask.block(shape, sample)
    y = gaussian_background(mask, rng) if gaussian else np.zeros(shape)
    x = rng.standard_normal(mask.sample_count)
    system = build_linear_system(
        y, mask, autocorrelation_from_intensity(intensity(assemble(x, y, mask))))
    cert = uniqueness_certificate(y, mask)
    assert cert.rank == least_squares_recover(system).rank
    assert cert.rank == (mask.sample_count if gaussian else 0)


def test_certificate_without_rows_has_rank_zero():
    mask = SupportMask.block((4, 4), (3, 3))  # every shift overlaps the support
    cert = uniqueness_certificate(gaussian_background(mask, np.random.default_rng(5)), mask)
    assert cert.rank == 0 and not cert.unique


def test_dimension_bound_values():
    one = dimension_bound((5,), (15,))
    assert one.satisfied and one.paper_factor == pytest.approx(3.0)
    assert one.count_factor == pytest.approx(3.0)
    assert one.lhs == 20 and one.rhs == 2 * 5 + 9
    two = dimension_bound((4, 4), (8, 8))
    assert two.paper_factor == pytest.approx(2.0 ** 1.5 - 1.0)
    assert two.count_factor == pytest.approx(math.sqrt(6) - 1.0)
    with pytest.raises(ValueError):
        dimension_bound((0,), (3,))
    # in 2-D the count is (2n1-1)(3n2-1)+n2 = 6n1n2 - 2n1 - 2n2 + 1
    strict = dimension_bound((8, 8), (12, 12))
    assert strict.lhs == 400 and strict.rhs == (15) * (23) + 8
    three = dimension_bound((4, 4, 4), (4, 4, 4))
    assert three.satisfied and three.lhs == 512 and three.rhs == 2 * 64 + 7 ** 3
    assert three.count_factor == pytest.approx(10.0 ** (1 / 3) - 1.0)
    assert three.paper_factor == pytest.approx(2.0 ** (4 / 3) - 1.0)


@st.composite
def block_masks(draw):
    """A block support on a grid of 1 to 3 axes and at most 512 cells."""
    d = draw(st.integers(1, 3))
    side = {1: 40, 2: 16, 3: 8}[d]
    shape = tuple(draw(st.integers(1, side)) for _ in range(d))
    return SupportMask.block(shape, tuple(draw(st.integers(1, m)) for m in shape))


@settings(max_examples=100, deadline=None)
@given(mask=block_masks(), gaussian=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_certificate_never_holds_with_fewer_rows_than_unknowns(mask, gaussian, seed):
    y = gaussian_background(mask, np.random.default_rng(seed)) if gaussian \
        else np.zeros(mask.shape)
    rows = coefficient_matrix(y, mask)[0].shape[0]
    cert = uniqueness_certificate(y, mask)
    assert cert.rank <= min(rows, mask.sample_count)
    if rows < mask.sample_count:
        assert not cert.unique


def test_stability_constants_orthonormal_and_scaling():
    from bgret.analysis import LinearSystem
    eye_sys = LinearSystem(np.eye(4), np.zeros(4), tuple((i,) for i in range(4)), (2, 2))
    consts = stability_constants(eye_sys)
    assert consts.delta1 == pytest.approx(1.0)
    assert consts.delta2 == pytest.approx(1.0)
    assert consts.bound_factor == pytest.approx(0.25)

    rng = np.random.default_rng(8)
    mask = SupportMask.block((9,), (3,))
    y = gaussian_background(mask, rng)
    m1, _ = coefficient_matrix(y, mask)
    m2, _ = coefficient_matrix(2.0 * y, mask)
    s1 = np.linalg.svd(m1, compute_uv=False)
    s2 = np.linalg.svd(m2, compute_uv=False)
    assert np.allclose(s2, 2.0 * s1)


def test_stability_inequality_direct():
    rng = np.random.default_rng(9)
    n, k = 6, 9
    mask = SupportMask.block((n + k, n + k), (n, n))
    for _ in range(10):
        y = gaussian_background(mask, rng)
        x_ref = rng.standard_normal(n * n)
        system = build_linear_system(
            y, mask, autocorrelation_from_intensity(intensity(assemble(x_ref, y, mask))))
        consts = stability_constants(system)
        x1 = rng.standard_normal((n, n))
        x2 = rng.standard_normal((n, n))
        i1 = intensity(assemble(x1, y, mask)).values
        i2 = intensity(assemble(x2, y, mask)).values
        lhs = np.linalg.norm(x1 - x2)
        rhs = consts.bound_factor * np.sum(np.abs(i1 - i2))
        assert lhs <= rhs


def test_robustness_bound_specializations():
    rng = np.random.default_rng(10)
    n, k = 4, 8
    mask = SupportMask.block((n + k, n + k), (n, n))
    y = gaussian_background(mask, rng)
    x = rng.standard_normal(n * n)
    b = intensity(assemble(x, y, mask))
    system = build_linear_system(y, mask, autocorrelation_from_intensity(b))
    consts = stability_constants(system)
    c1 = 1e-3
    assert robustness_bound(system, 0.0, 0.0, b.values, y) == pytest.approx(0.0, abs=1e-18)
    expected = c1 * consts.delta1 * consts.delta2
    assert robustness_bound(system, c1, 0.0, b.values, y) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ValueError):
        robustness_bound(system, -1.0, 0.0, b.values, y)


def test_robustness_bound_monte_carlo():
    report = verify_robustness(instances=20, c1=1e-3, c2=1e-3, seed=0)
    assert report["failures"] == 0
    assert report["c2_zero_collapse_exact"]


def test_robustness_check_passes_without_noise():
    # the bound is 0, and least squares recovers X up to rounding: the
    # check's rounding floor admits that, and min_bound_ratio keeps its
    # formula, bound / measured, which is 0 here
    report = verify_robustness(instances=2, c1=0.0, c2=0.0)
    assert report["passed"] and report["failures"] == 0
    assert report["min_bound_ratio"] == 0.0


def test_robustness_verdict_flags_noise_the_stated_levels_omit():
    # negative control: with c1 = c2 = 0 stated the bound is 0, so 1e-9 of
    # actual intensity noise, which least squares turns into an error of
    # about 2e-11, is a violation; the same recovery without noise is none
    rng = np.random.default_rng(0)
    x = rng.standard_normal(CHECK_MASK.sample_shape)
    y = gaussian_background(CHECK_MASK, rng)
    i_clean = intensity(assemble(x, y, CHECK_MASK)).values
    for noise, violated in ((1e-9, True), (0.0, False)):
        i_tilde = i_clean + hermitian_part(rng.uniform(-noise, noise, size=i_clean.shape))
        system = build_linear_system(y, CHECK_MASK, autocorrelation_from_intensity(
            IntensityMeasurements(i_tilde)))
        measured = float(np.linalg.norm(least_squares_recover(system).values - x.reshape(-1)))
        bound = robustness_bound(system, 0.0, 0.0, i_tilde, y)
        assert bound == 0.0
        assert robustness_violated(measured, bound, x) is violated


def test_build_circulant_display_example():
    L = circulant([1.0, 2.0, 3.0])
    assert L.tolist() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
    assert L[1:].tolist() == [[2, 3, 1], [3, 1, 2]]
    e1 = np.zeros(3)
    e1[0] = 1.0
    assert np.array_equal(L @ e1, np.array([1.0, 2.0, 3.0]))


def test_circulant_rows_are_permutations():
    rng = np.random.default_rng(11)
    z = rng.standard_normal(12)
    L = circulant(z)
    base = np.sort(z)
    for row in L:
        assert np.allclose(np.sort(row), base)


def test_circulant_fft_identity():
    rng = np.random.default_rng(12)
    for m in (3, 8, 17, 64, 512):
        z = rng.standard_normal(m)
        h = rng.standard_normal(m)
        L = circulant(z)
        assert np.max(np.abs(L @ h - circulant_apply(z, h))) <= 1e-9 * max(
            1.0, np.max(np.abs(z)) * np.max(np.abs(h)) * m)


def test_circulant_intensity_factorization():
    # |DFT(L h)|^2 = |DFT z|^2 * |DFT h|^2, the identity the convex analysis uses
    rng = np.random.default_rng(13)
    z = rng.standard_normal(16)
    h = rng.standard_normal(16)
    L = circulant(z)
    lhs = np.abs(np.fft.fft(L @ h)) ** 2
    rhs = (np.abs(np.fft.fft(z)) ** 2) * (np.abs(np.fft.fft(h)) ** 2)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def test_l_nonsingular_check():
    rng = np.random.default_rng(14)
    frac = l_nonsingular_check([1.0], (rng.standard_normal(4) for _ in range(100)))
    assert frac >= 0.99
    # constant z gives a rank-one matrix
    assert l_nonsingular_check([1.0], [np.ones(4)]) == 0.0
    frac2 = l_nonsingular_check(rng.standard_normal(8),
                                (rng.standard_normal(24) for _ in range(100)))
    assert frac2 >= 0.99


def test_l_nonsingular_check_flags_a_near_zero_dft_coefficient():
    # negative control: the singular values of circ(z) are the moduli of
    # DFT(z); with every modulus 1 but one at 1e-14 the condition is about
    # 1e14, so [x; y] = z counts as singular, and with that one at 1 it does not
    rng = np.random.default_rng(15)
    spectrum = np.exp(2j * np.pi * rng.uniform(size=17))
    spectrum[-1] = 1.0  # the Nyquist entry of a real z is real
    for dc, nonsingular in ((1e-14, 0.0), (1.0, 1.0)):
        spectrum[0] = dc
        z = np.fft.irfft(spectrum, n=32)
        assert l_nonsingular_check(z[:8], [z[8:]]) == nonsingular


def _sha256(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def test_sample_c2_and_linear_system_bytes_frozen():
    # Frozen digests of a C2 draw and of one linear system: a change to the
    # transforms or the clamp behind them that moves a byte fails here.
    assert _sha256(sample_c2(272, 5)) == \
        "fca6d5da897eb5f75fb8039691328fec2379e34b29a81eebb52f6751e4561ef1"
    rng = np.random.default_rng(11)
    mask = SupportMask.block((10, 10), (4, 4))
    y = rng.standard_normal(mask.shape)
    y[mask.inside] = 0.0
    x = rng.standard_normal(mask.sample_count)
    system = build_linear_system(
        y, mask, autocorrelation_from_intensity(intensity(assemble(x, y, mask))))
    assert _sha256(system.M) == \
        "f81f7eeb51dde356b961fa3a8a7ec9fb088f4ca5334c401575802f021863f41c"
    assert _sha256(system.rhs) == \
        "2a4ab9e1d64fe768034a57e1a4f6ce301c846226ac18081c87f3dfec0b6dce6d"


def test_sample_c2_properties():
    for seed in range(5):
        h = sample_c2(40, seed)
        assert in_c2(h)
        assert np.max(np.abs(np.fft.fft(h))) <= 2.0 + 1e-10
        assert np.sum(h * h) <= 4.0 + 1e-10  # Parseval consequence
    assert np.array_equal(sample_c2(40, 3), sample_c2(40, 3))
    zero = np.zeros(16)
    assert in_c2(zero)


def test_frip_partial_rows_match_explicit_circulant():
    rng = np.random.default_rng(15)
    n, k = 5, 11
    x = rng.standard_normal(n)
    y = rng.standard_normal(k)
    h = sample_c2(n + k, 7)
    a, G = frip_partial_rows(x, h)
    L = circulant(np.concatenate([x, y]))
    assert np.allclose(a + G @ y, L[n:] @ h, rtol=1e-12, atol=1e-12)


def test_frip_expectation_zero_sample():
    # x = 0: prediction reduces to the pure double-sum term
    rng = np.random.default_rng(16)
    h = sample_c2(36, 5)
    report = frip_expectation_check(np.zeros(12), h, 3000, seed=2)
    assert report.phi_term == 0.0
    assert report.within


def test_frip_expectation_with_sample():
    rng = np.random.default_rng(17)
    h = sample_c2(ruff_len := 48, 9)
    x = rng.standard_normal(12)
    report = frip_expectation_check(x, h, 4000, seed=3)
    assert report.within
    k, n = 36, 12
    assert report.c1 >= (k - n) / k - 1e-12
    assert report.c1 <= 1.0 + 1e-12


def test_frip_report_within_is_the_stated_stderr_multiple():
    # negative control: a prediction 5 standard errors off is not within,
    # one 2 standard errors off is
    def report(off):
        return FripReport(empirical_mean=1.0 + off * 0.01, predicted=1.0, stderr=0.01,
                          c1=0.5, phi_term=0.0, num_draws=100)

    assert not report(5.0).within
    assert report(2.0).within


def test_frip_rejects_bad_h():
    with pytest.raises(ValueError):
        frip_expectation_check(np.zeros(4), 10.0 * np.ones(12), 100, 0)


def test_frip_rejects_no_background():
    # k = h.size - x.size rows of background; k = 0 used to divide by zero
    with pytest.raises(ValueError, match="k < 1"):
        frip_expectation_check(np.ones(4), np.zeros(4), 10, 0)
    with pytest.raises(ValueError, match="k < 1"):
        frip_expectation_check(np.ones(4), np.zeros(3), 10, 0)


def test_frip_zero_h():
    report = frip_expectation_check(np.ones(4), np.zeros(12), 100, 0)
    assert report.empirical_mean == 0.0
    assert report.predicted == 0.0
    assert math.isnan(report.c1)


@settings(max_examples=80, deadline=None)
@given(sample=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       extra=st.lists(st.integers(0, 6), min_size=3, max_size=3))
def test_nonoverlap_shift_count_matches_enumeration(sample, extra):
    shape = tuple(n + e for n, e in zip(sample, extra))
    mask = SupportMask.block(shape, sample)
    assert nonoverlap_shift_count(sample, shape) == len(enumerate_nonoverlap_shifts(mask))


def test_coefficient_matrix_size_guard():
    # 4-D at the CLI defaults (n 8, k 24) would ask for 498983 x 4096 entries;
    # the guard refuses it from the shapes, before any enumeration
    mask = SupportMask.block((32,) * 4, (8,) * 4)
    assert nonoverlap_shift_count(mask.sample_shape, mask.shape) == 498983
    with pytest.raises(ValueError, match="entries"):
        coefficient_matrix(np.zeros(mask.shape), mask)
    # verify_uniqueness checks before it builds the mask: at d = 6 that
    # alone would be 2^30 cells
    for d in (4, 6):
        with pytest.raises(ValueError, match="entries"):
            verify_uniqueness(8, 24, d, draws=1)
    # the default 3-D certificate stays within the cap
    assert nonoverlap_shift_count((8,) * 3, (32,) * 3) * 8 ** 3 <= MAX_MATRIX_ENTRIES


def test_coefficient_matrix_peaks_at_a_few_times_its_size():
    # M is gathered as two windows per row of the wrap-padded background and
    # summed in place, not through index arrays of M's size per axis and sign
    mask = SupportMask.block((6,) * 5, (3,) * 5)
    y = gaussian_background(mask, np.random.default_rng(4))
    tracemalloc.start()
    try:
        M, _ = coefficient_matrix(y, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.nbytes > 4e6 and peak <= 3 * M.nbytes
