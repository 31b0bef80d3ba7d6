"""Executable theory: non-overlap shift enumeration, the linear system
M vec(X) = R3 extracted from the autocorrelation, least-squares recovery and
uniqueness certificates, stability/robustness constants, the partial
circulant L/L1 machinery and empirical checks of its restricted-isometry
expectation identity, and the seeded ``verify_*`` checks behind
``bgret verify``. C2 membership reads the power of the half spectrum.

Shift bookkeeping
-----------------
A shift l is usable when the support and its circular translate by l do not
overlap; then R[l] carries only sample-background cross terms (linear in the
sample) plus known background-background products. R[l] = R[-l] exactly, so
mirrored shifts duplicate each other; the lexicographically smaller one is
retained, carrying the summed pair of equations (rows and right-hand sides
doubled), while self-mirrored shifts (2l = 0 mod m) are kept single.

The numerical rank of M is ``_rank``'s count of singular values above
RANK_RTOL times the largest; ``lstsq`` applies the same rule as its rcond.
``circulant(z)`` is L[r, c] = z[(r + c) mod m] (L e1 = z), and its last k
rows ``L[n:]`` are the partial circulant L1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .model import (SupportMask, _readonly, assemble, hermitian_part, l2_norm, mirror,
                    object_shape_for, require_count, require_level)
from .projections import project_magnitude_ball
from .rng import mix_seed
from .spectral import (Autocorrelation, Workspace, autocorrelation_from_intensity,
                       hermitian_half, intensity)

#: Singular values below this fraction of the largest are treated as zero.
RANK_RTOL = 1e-10

#: The most entries a coefficient matrix may have: 2**24 float64 entries are
#: 128 MiB, and building them peaks at about twice that. It admits the
#: default ``bgret verify uniqueness --d 3`` (7.5e6 entries) and refuses
#: ``--d 4`` (2.0e9).
MAX_MATRIX_ENTRIES = 2 ** 24

#: The rounding floor of the robustness check, relative to ||X||_F: least
#: squares on the noise-free system of CHECK_MASK recovers X to within
#: 5e-15 ||X||_F (300 draws, cond(M) at most 21), so a measured error
#: within the bound plus this floor is no violation.
ROBUSTNESS_ROUNDING = 1e-12

#: F-RIP's Monte Carlo mean passes within this many standard errors of the
#: prediction.
FRIP_STDERR_MULTIPLE = 3.0

#: F-RIP's c1 passes at or above its lower bound (k - n)/k less this slack.
FRIP_C1_SLACK = 1e-12

#: A property of almost every random draw (a unique solution, a nonsingular
#: L) passes its check when it holds on at least this share of the draws.
PASS_RATE = 0.99


@dataclass(frozen=True)
class LinearSystem:
    """Coefficient matrix M (rows x |Omega|), right-hand side R3, and the
    retained shift per row; grid_shape is the measurement grid."""

    M: np.ndarray
    rhs: np.ndarray
    shifts: tuple[tuple[int, ...], ...]
    grid_shape: tuple[int, ...]

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        if M.ndim != 2 or M.shape[0] != rhs.size or M.shape[0] != len(self.shifts):
            raise ValueError("rows of M, rhs and shifts must correspond one-to-one")
        object.__setattr__(self, "M", _readonly(M, float))
        object.__setattr__(self, "rhs", _readonly(rhs, float))

    @property
    def rows(self) -> int:
        return self.M.shape[0]

    @property
    def unknowns(self) -> int:
        return self.M.shape[1]

    @property
    def grid_size(self) -> int:
        return int(np.prod(self.grid_shape))


@dataclass(frozen=True)
class StabilityConstants:
    """delta1 = sigma_max((M^T M)^{-1}), delta2 = sigma_max(M), and the
    stability certificate factor delta1*delta2/(m1*m2)."""

    delta1: float
    delta2: float
    bound_factor: float


def enumerate_nonoverlap_shifts(mask: SupportMask) -> list[tuple[int, ...]]:
    """All nonzero circular shifts l with (Omega + l) disjoint from Omega,
    deduplicated under l <-> -l (the lexicographically smaller is kept).

    A block of n_i on a circle of m_i misses its translate by l_i exactly
    when n_i <= l_i <= m_i - n_i, and a product of blocks misses its
    translate when one axis does; the offset plays no part."""
    shape, sample_shape = mask.shape, mask.sample_shape
    return [shift for shift in product(*(range(m) for m in shape))
            if shift <= mirror(shape, shift)
            and any(n <= l <= m - n for l, n, m in zip(shift, sample_shape, shape))]


def _pair_factor(shift: tuple[int, ...], shape: Sequence[int]) -> float:
    """1 for a self-mirrored shift, 2 for one carrying its merged mirror."""
    return 1.0 if mirror(shape, shift) == shift else 2.0


def nonoverlap_shift_count(sample_shape: Sequence[int], shape: Sequence[int]) -> int:
    """len(enumerate_nonoverlap_shifts(mask)) for a block of sample_shape on
    the grid shape, from the shapes alone: of the grid's shifts, those that
    overlap on every axis are out, and the rest pair up under l <-> -l except
    the self-mirrored ones (each l_i 0 or m_i/2)."""
    window = [max(0, m - 2 * n + 1) for n, m in zip(sample_shape, shape)]
    usable = math.prod(shape) - math.prod(m - w for m, w in zip(shape, window))
    # self-mirrored shifts, and those of them that overlap on every axis
    mirrored = math.prod(1 + (m % 2 == 0) for m in shape)
    mirrored_overlap = math.prod(1 + (m % 2 == 0 and not n <= m // 2)
                                 for n, m in zip(sample_shape, shape))
    return (usable + mirrored - mirrored_overlap) // 2


def _require_matrix_size(sample_shape: Sequence[int], shape: Sequence[int]) -> None:
    entries = nonoverlap_shift_count(sample_shape, shape) * math.prod(sample_shape)
    if entries > MAX_MATRIX_ENTRIES:
        raise ValueError(f"the coefficient matrix of a {tuple(sample_shape)} sample on the "
                         f"grid {tuple(shape)} has {entries} entries, more than the "
                         f"{MAX_MATRIX_ENTRIES} allowed")


def coefficient_matrix(background: np.ndarray, mask: SupportMask
                       ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """M alone (no right-hand side); used by the uniqueness certificate. The
    row of a shift l holds Y[(q+l) mod m] + Y[(q-l) mod m] at each q in Omega.
    A matrix of more than MAX_MATRIX_ENTRIES entries raises ValueError before
    anything is built."""
    _require_matrix_size(mask.sample_shape, mask.shape)
    shifts = enumerate_nonoverlap_shifts(mask)
    # row l: the sample-shaped windows of Y, wrap-padded by n_i - 1 per axis,
    # at offset + l and offset - l (mod m), each in Omega's row-major order
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(background, [(0, n - 1) for n in mask.sample_shape], mode="wrap"),
        mask.sample_shape)
    l = np.array(shifts, dtype=np.intp).reshape(len(shifts), background.ndim)
    ahead, behind = (windows[tuple(((np.array(mask.offset) + sign * l) % mask.shape).T)]
                     .reshape(len(shifts), mask.sample_count) for sign in (1, -1))
    ahead += behind
    ahead *= np.array([_pair_factor(shift, mask.shape) for shift in shifts])[:, None]
    return ahead, shifts


def build_linear_system(background: np.ndarray, mask: SupportMask,
                        autocorr: Autocorrelation) -> LinearSystem:
    """Assemble M vec(X) = R3 from the non-overlap shifts.

    Each retained shift (merged with its mirror) contributes the row of
    cross-term coefficients and the right-hand side R[l] + R[-l] minus all
    background-background products, which equal the circular autocorrelation
    of Y at the same lags.
    """
    background = np.asarray(background, dtype=float)
    if background.shape != mask.shape:
        raise ValueError("background shape does not match mask")
    if autocorr.values.shape != mask.shape:
        raise ValueError("autocorrelation shape does not match the object grid")
    M, shifts = coefficient_matrix(background, mask)
    cy = autocorrelation_from_intensity(intensity(background)).values
    rhs = [_pair_factor(s, mask.shape) * (autocorr.values[s] - cy[s]) for s in shifts]
    return LinearSystem(M, rhs, tuple(shifts), mask.shape)


@dataclass(frozen=True)
class LeastSquaresSolution:
    values: np.ndarray
    rank: int
    unique: bool

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values, float))


def _rank(s: np.ndarray) -> int:
    """Count of the descending singular values s above RANK_RTOL * s[0]."""
    return int(np.count_nonzero(s > RANK_RTOL * s[0])) if s.size else 0


def least_squares_recover(system: LinearSystem) -> LeastSquaresSolution:
    """Minimizer of ||M vec(X) - R3||_2 via SVD; a rank-deficient M is not an
    error, the minimum-norm solution is returned flagged as non-unique."""
    if system.rows < system.unknowns:
        raise ValueError(f"need at least {system.unknowns} rows, got {system.rows}")
    solution, _, rank, _ = np.linalg.lstsq(system.M, system.rhs, rcond=RANK_RTOL)
    return LeastSquaresSolution(solution, int(rank), bool(rank == system.unknowns))


@dataclass(frozen=True)
class UniquenessCertificate:
    unique: bool
    rank: int
    required_rank: int


def uniqueness_certificate(background: np.ndarray, mask: SupportMask) -> UniquenessCertificate:
    """Numerical-rank certificate: unique iff rank(M) = |Omega|."""
    M, _ = coefficient_matrix(np.asarray(background, dtype=float), mask)
    required = mask.sample_count
    rank = _rank(np.linalg.svd(M, compute_uv=False))
    return UniquenessCertificate(rank == required, rank, required)


@dataclass(frozen=True)
class DimensionBound:
    satisfied: bool
    lhs: int
    rhs: int
    paper_factor: float
    count_factor: float


def dimension_bound(sizes: Sequence[int], backgrounds: Sequence[int]) -> DimensionBound:
    """Counting bound prod(n_i+k_i) >= 2 prod(n_i) + prod(2n_i - 1) in any d, with the
    symmetric k/n factors 2^((d+1)/d) - 1 (the abstract's) and (2 + 2^d)^(1/d) - 1."""
    n = [int(require_count("sample size", v)) for v in sizes]
    k = [int(require_count("background size", v, 0)) for v in backgrounds]
    if len(n) != len(k) or not n:
        raise ValueError("sizes and backgrounds must be equal-length and nonempty")
    d = len(n)
    lhs = math.prod(ni + ki for ni, ki in zip(n, k))
    rhs = 2 * math.prod(n) + math.prod(2 * ni - 1 for ni in n)
    return DimensionBound(lhs >= rhs, lhs, rhs, 2.0 ** ((d + 1) / d) - 1.0,
                          (2.0 + 2.0 ** d) ** (1.0 / d) - 1.0)


def stability_constants(system: LinearSystem) -> StabilityConstants:
    s = np.linalg.svd(system.M, compute_uv=False)
    if _rank(s) < system.unknowns:
        raise ValueError("M is rank deficient; stability constants undefined")
    sigma_min = float(s[system.unknowns - 1])
    delta1 = 1.0 / (sigma_min * sigma_min)
    delta2 = float(s[0])
    return StabilityConstants(delta1, delta2, delta1 * delta2 / system.grid_size)


def robustness_bound(system_corrupted: LinearSystem, c1: float, c2: float,
                     intensity_tilde, background_tilde) -> float:
    """Upper-bound certificate for ||X* - X||_F under bounded noise
    |eps_1| <= c1 on the intensities and |eps_2| <= c2 on the background.
    intensity_tilde and background_tilde are the arrays I~ and Y~.

    Evaluated from the proof chain: delta1*delta2 times the sum of the
    right-hand-side perturbation bound c1 + c2*(2||vec(Y~)||_1 + c2*m1*m2)
    and the coupling term ||M - M~|| * ||vec(X)||, which works out to
    2*c2*sqrt(n1*n2*(||vec(I~)||_1 + c1*m1*m2)). With c2 = 0 the bound
    collapses to c1*delta1*delta2.
    """
    require_level("c1", c1, zero=True)
    require_level("c2", c2, zero=True)
    consts = stability_constants(system_corrupted)
    i_l1 = float(np.sum(np.abs(np.asarray(intensity_tilde, dtype=float))))
    y_l1 = float(np.sum(np.abs(np.asarray(background_tilde, dtype=float))))
    grid = system_corrupted.grid_size
    unknowns = system_corrupted.unknowns
    rhs_term = c1 + c2 * (2.0 * y_l1 + c2 * grid)
    coupling = 2.0 * c2 * math.sqrt(unknowns * (i_l1 + c1 * grid))
    return consts.delta1 * consts.delta2 * (rhs_term + coupling)


def circulant(z) -> np.ndarray:
    """L[r, c] = z[(r + c) mod m], the circular shifts of z as displayed in
    the convex analysis; the partial circulant L1 is ``L[n:]``."""
    z = np.asarray(z, dtype=float).reshape(-1)
    m = z.size
    return z[(np.arange(m)[:, None] + np.arange(m)[None, :]) % m]


#: 2-norm condition number below which L counts as numerically nonsingular.
COND_LIMIT = 1e12


def l_nonsingular_check(x, y_draws: Iterable) -> float:
    """Fraction of background draws for which L = circ([x; y]) is numerically
    nonsingular (2-norm condition below COND_LIMIT)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    require_count("sample size", x.size)
    total = 0
    good = 0
    for y in y_draws:
        y = np.asarray(y, dtype=float).reshape(-1)
        require_count("background size", y.size)
        total += 1
        if np.linalg.cond(circulant(np.concatenate([x, y]))) < COND_LIMIT:
            good += 1
    require_count("background draws", total)
    return good / total


C2_RADIUS = 2.0


def in_c2(h, tol: float = 1e-9) -> bool:
    """Membership in C2 = {h : |DFT(h)_i| <= 2 for all i}, tested as
    |DFT(h)_i|^2 <= (2 + tol)^2 on the half spectrum (h is real)."""
    h = np.asarray(h, dtype=float).reshape(-1)
    return bool(np.max(Workspace(h.shape).power(h)) <= (C2_RADIUS + tol) ** 2)


def sample_c2(size: int, seed: int) -> np.ndarray:
    """Draw a random real vector and clamp its spectrum radially to magnitude
    at most 2: the ball projection onto |DFT h| <= 2 (conjugate symmetry is
    preserved by the radial clamp)."""
    require_count("size", size)
    rng = np.random.default_rng(seed)
    h0 = rng.standard_normal(size) * (C2_RADIUS / math.sqrt(size))
    return project_magnitude_ball(h0, hermitian_half(np.full(size, C2_RADIUS)))


@dataclass(frozen=True)
class FripReport:
    empirical_mean: float
    predicted: float
    stderr: float
    c1: float
    phi_term: float
    num_draws: int

    @property
    def deviation(self) -> float:
        return abs(self.empirical_mean - self.predicted)

    @property
    def within(self) -> bool:
        return self.deviation <= FRIP_STDERR_MULTIPLE * self.stderr


def frip_partial_rows(x, h) -> tuple[np.ndarray, np.ndarray]:
    """Split L1 @ h into its deterministic part a (from the sample) and the
    matrix G with L1 @ h = a + G @ y for any background y."""
    x = np.asarray(x, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float).reshape(-1)
    m = h.size
    n = x.size
    if not (1 <= n < m):
        raise ValueError("need 1 <= n < n + k")
    rows = np.arange(n, m)
    a = h[(np.arange(n)[None, :] - rows[:, None]) % m] @ x
    G = h[((np.arange(n, m)[None, :]) - rows[:, None]) % m]
    return a, G


def frip_expectation_check(x, h, num_draws: int, seed: int) -> FripReport:
    """Monte Carlo check of the expectation identity
    E[(1/k) ||L1 h||^2] = c1(h) ||h||^2 + ||Phi h||^2 over Gaussian backgrounds.

    c1(h) is the direct double sum (1/(k||h||^2)) sum_{l,i in bg} |h_{l-i}|^2
    with circular indexing, and Phi h is the deterministic block of
    (1/sqrt(k)) L1, i.e. the sample-only circular correlation restricted to
    the background rows.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float).reshape(-1)
    if not in_c2(h):
        raise ValueError("h is not in C2 (spectral magnitude exceeds 2)")
    require_count("num_draws", num_draws, 2)  # for a standard error
    m = h.size
    n = x.size
    k = m - n
    if k < 1:
        raise ValueError(f"h has {m} entries, the sample {n}: no background rows (k < 1)")

    bg = np.arange(n, m)
    h_sq = h * h
    double_sum = float(np.sum(h_sq[(bg[:, None] - bg[None, :]) % m]))
    h_norm_sq = float(np.sum(h_sq))
    c1 = double_sum / (k * h_norm_sq) if h_norm_sq > 0 else math.nan

    a, G = frip_partial_rows(x, h)
    phi_term = float(np.sum(a * a)) / k
    predicted = double_sum / k + phi_term

    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((k, num_draws))
    values = a[:, None] + G @ draws
    samples = np.sum(values * values, axis=0) / k
    empirical = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1)) / math.sqrt(num_draws)
    return FripReport(empirical, predicted, stderr, c1, phi_term, num_draws)


# -- verification drivers -------------------------------------------------------

def _gaussian_background(mask: SupportMask, rng: np.random.Generator) -> np.ndarray:
    y = rng.standard_normal(mask.shape)
    y[mask.slices] = 0.0
    return y


def verify_uniqueness(n: int, k: int, d: int, draws: int, seed: int = 0) -> dict:
    """Rank certificate pass rate over Gaussian backgrounds, sample (n,)*d at the corner."""
    for name, value, least in (("n", n, 1), ("k", k, 0), ("d", d, 1), ("draws", draws, 1)):
        require_count(name, value, least)
    sizes = (n,) * d
    ks = (k,) * d
    # before the mask and the backgrounds, which are as large as the grid
    _require_matrix_size(sizes, object_shape_for(sizes, ks))
    mask = SupportMask.block(object_shape_for(sizes, ks), sizes)
    rng = np.random.default_rng(seed)
    unique = 0
    for _ in range(draws):
        cert = uniqueness_certificate(_gaussian_background(mask, rng), mask)
        unique += int(cert.unique)
    rate = unique / draws
    bound = dimension_bound(sizes, ks)
    return {"check": "uniqueness", "n": n, "k": k, "d": d, "draws": draws,
            "unique": unique, "rate": rate,
            "count_bound_satisfied": bound.satisfied,
            "passed": rate >= PASS_RATE}


#: The geometry of the 2-D stability and robustness checks: a 6x6 sample
#: at the corner of a 15x15 grid.
CHECK_MASK = SupportMask.block((15, 15), (6, 6))


def verify_stability(pairs: int = 100, seed: int = 0) -> dict:
    """Direct evaluation of the stability inequality
    ||X1-X2||_F <= delta1*delta2/(m1*m2) * ||vec(I1-I2)||_1 on random pairs
    on CHECK_MASK."""
    require_count("pairs", pairs)
    mask = CHECK_MASK
    rng = np.random.default_rng(seed)
    violations = 0
    margins = []
    for _ in range(pairs):
        y = _gaussian_background(mask, rng)
        system = build_linear_system(
            y, mask, autocorrelation_from_intensity(intensity(assemble(
                rng.standard_normal(mask.sample_count), y, mask))))
        consts = stability_constants(system)
        x1 = rng.standard_normal(mask.sample_shape)
        x2 = rng.standard_normal(mask.sample_shape)
        i1 = intensity(assemble(x1, y, mask)).values
        i2 = intensity(assemble(x2, y, mask)).values
        lhs = l2_norm(x1 - x2)
        rhs = consts.bound_factor * float(np.sum(np.abs(i1 - i2)))
        margins.append(rhs / lhs)
        violations += int(stability_violated(lhs, rhs))
    return {"check": "stability", "pairs": pairs, "violations": violations,
            "min_margin": float(min(margins)), "passed": violations == 0}


def stability_violated(lhs: float, rhs: float) -> bool:
    """The stability verdict on one pair: ||X1-X2||_F (lhs) above the bound
    delta1*delta2/(m1*m2) * ||vec(I1-I2)||_1 (rhs), without slack."""
    return lhs > rhs


def robustness_violated(measured: float, bound: float, x) -> bool:
    """The robustness verdict on one recovery of the sample x: an error above
    the bound plus the rounding floor ROBUSTNESS_ROUNDING * ||X||_F."""
    return measured > bound + ROBUSTNESS_ROUNDING * l2_norm(x)


def verify_robustness(instances: int = 100, c1: float = 1e-3, c2: float = 1e-3,
                      seed: int = 0) -> dict:
    """Bounded-noise recovery against the certificate on CHECK_MASK: uniform
    measurement noise |eps1| <= c1 (its Hermitian part) and background bias
    |eps2| <= c2; checks measured error <= bound every time, up to the
    rounding floor (``robustness_violated``), and the exact c2=0
    collapse. A bound that is negative or not finite raises ValueError."""
    require_count("instances", instances)
    require_level("c1", c1, zero=True)
    require_level("c2", c2, zero=True)
    mask = CHECK_MASK
    work = Workspace(mask.shape)
    rng = np.random.default_rng(seed)
    failures = 0
    ratios = []
    collapse_ok = True
    for _ in range(instances):
        x = rng.standard_normal(mask.sample_shape)
        y = _gaussian_background(mask, rng)
        i_clean = intensity(assemble(x, y, mask)).values
        i_tilde = i_clean + hermitian_part(rng.uniform(-c1, c1, size=i_clean.shape))
        y_tilde = y + rng.uniform(-c2, c2, size=y.shape)
        y_tilde[mask.slices] = 0.0
        work.half[...] = hermitian_half(i_tilde)
        r_tilde = Autocorrelation(work.inverse())
        system = build_linear_system(y_tilde, mask, r_tilde)
        solution = least_squares_recover(system)
        measured = l2_norm(solution.values - x.reshape(-1))
        bound = robustness_bound(system, c1, c2, i_tilde, y_tilde)
        ratios.append(bound / measured if measured > 0 else math.inf)
        failures += int(robustness_violated(measured, bound, x))

        clean_system = build_linear_system(y, mask, r_tilde)
        consts = stability_constants(clean_system)
        specialized = robustness_bound(clean_system, c1, 0.0, i_tilde, y)
        expected = c1 * consts.delta1 * consts.delta2
        if abs(specialized - expected) > 1e-12 * max(1.0, abs(expected)):
            collapse_ok = False
    return {"check": "robustness", "instances": instances, "c1": c1, "c2": c2,
            "failures": failures, "min_bound_ratio": float(min(ratios)),
            "c2_zero_collapse_exact": collapse_ok,
            "passed": failures == 0 and collapse_ok}


def verify_lmatrix(n: int = 8, k: int = 24, draws: int = 100, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    fraction = l_nonsingular_check(
        x, (rng.standard_normal(k) for _ in range(draws)))
    return {"check": "lmatrix", "n": n, "k": k, "draws": draws,
            "fraction_nonsingular": fraction, "passed": fraction >= PASS_RATE}


def verify_frip(n: int = 16, k: int = 256, draws: int = 2000, num_h: int = 5,
                seed: int = 0) -> dict:
    require_count("num_h", num_h)  # draws below 2 fail in frip_expectation_check
    rng = np.random.default_rng(mix_seed(seed, 10_000))
    x = rng.standard_normal(n)
    reports = []
    all_ok = True
    for j in range(num_h):
        h = sample_c2(n + k, mix_seed(seed, j))
        rep = frip_expectation_check(x, h, draws, mix_seed(seed, 100 + j))
        c1_ok = rep.c1 >= (k - n) / k - FRIP_C1_SLACK
        all_ok = all_ok and rep.within and c1_ok
        reports.append({"empirical": rep.empirical_mean, "predicted": rep.predicted,
                        "stderr": rep.stderr, "deviation": rep.deviation,
                        "c1": rep.c1, "within_3_stderr": rep.within,
                        "c1_above_lower_bound": c1_ok})
    return {"check": "frip", "n": n, "k": k, "draws": draws, "num_h": num_h,
            "reports": reports, "passed": all_ok}
