"""The solver loop against the allocating per-step formulas it replaced,
and the half-spectrum formulas against the full-spectrum ones.

``solvers.run`` transforms in a per-run workspace of buffers. The
reference below is the plain formulation: every step allocates its arrays,
transforms through ``np.fft.rfftn``/``irfftn`` directly (for the magnitude
projections, the spectral start and the measurement error, whose |X|^2 is
re^2 + im^2 as in the program), and recomputes
the half-grid arrays of b and the norms of b and of the ground truth on every
trace row. Both must agree byte for byte at trace stride 1: trace, final
estimate, iteration count and the converged flag.

The projectors, the spectral start and the scoring once transformed real
arrays as complex data on the full grid. Those formulas are kept here as the
oracles of the half-spectrum ones, to a stated relative tolerance: the
equality projection for any nonnegative root, the ball projection for roots
of real objects, and the start, the measurement error and the fixed-point
residual for the intensities of real objects and for any nonnegative data.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgret import metrics, solvers
from bgret.model import (IntensityMeasurements, Method, SolverConfig, SupportMask, assemble,
                         mirror_index)
from bgret.projections import project_background, project_magnitude, project_magnitude_ball
from bgret.spectral import Workspace, hermitian_half, intensity


def init_spectral(b, background, mask):
    """The start z0 = P_B((1/prod m) * Re DFT(b^{1/2})) that ``solvers.run``
    takes when it is given none."""
    return project_background(solvers._spectral_start(b, Workspace(mask.shape)), background,
                              mask)


def ref_irfft(what, shape):
    return np.fft.irfftn(what, s=shape, axes=tuple(range(len(shape))))


def ref_hermitian_part(v):
    # 0.5 * (v[i] + v[-i])
    axes = tuple(range(v.ndim))
    return 0.5 * (v + np.roll(np.flip(v, axis=axes), 1, axis=axes))


def ref_half(v):
    # the Hermitian part, cut to the half grid
    return np.ascontiguousarray(ref_hermitian_part(v)[..., : v.shape[-1] // 2 + 1])


def ref_mirrored_lines(m):
    # last-axis indices of the half grid's self-mirrored lines, for a last
    # axis of length m
    return [0, m // 2] if m % 2 == 0 else [0]


def ref_hermitian_lines(zhat, m):
    # in 2-D and above, each self-mirrored line replaced by its Hermitian part
    # 0.5 * (v[i] + conj(v[-i])) over the leading axes
    if zhat.ndim > 1:
        lines = ref_mirrored_lines(m)
        leading = tuple(range(zhat.ndim - 1))
        v = zhat[..., lines]
        mirrored = np.roll(np.flip(v, axis=leading), 1, axis=leading)
        zhat[..., lines] = 0.5 * (v + np.conj(mirrored))
    return zhat


def ref_weights(shape):
    # weight of each half-grid entry in a sum over the grid of a Hermitian array
    w = np.full(shape[:-1] + (shape[-1] // 2 + 1,), 2.0)
    w[..., ref_mirrored_lines(shape[-1])] = 1.0
    return w


def ref_project_magnitude(z, half_root):
    zhat = ref_hermitian_lines(np.fft.rfftn(z), z.shape[-1])
    mag = np.abs(zhat)
    phase = np.divide(zhat, mag, out=np.ones_like(zhat), where=mag > 0)
    return ref_irfft(half_root * phase, z.shape)


def ref_project_ball(z, half_root, sign):
    zhat = np.fft.rfftn(z)
    mag = np.abs(zhat)
    scale = np.divide(half_root, mag, out=np.ones_like(mag), where=mag > 0)
    what = zhat * np.minimum(1.0, scale)
    if sign is not None:
        what.flat[0] = sign * float(half_root.flat[0])
    return ref_irfft(what, z.shape)


def oracle_project_magnitude(z, root):
    # the full-spectrum formula: complex transform, real part of the inverse
    zhat = np.fft.fftn(z)
    mag = np.abs(zhat)
    phase = np.divide(zhat, mag, out=np.ones_like(zhat), where=mag > 0)
    return np.fft.ifftn(root * phase).real


def oracle_project_ball(z, root, sign):
    zhat = np.fft.fftn(z)
    mag = np.abs(zhat)
    scale = np.divide(root, mag, out=np.ones_like(mag), where=mag > 0)
    what = zhat * np.minimum(1.0, scale)
    if sign is not None:
        what.flat[0] = sign * float(root.flat[0])
    return np.fft.ifftn(what).real


def ref_omega(mask):
    """The boolean Ω of a block mask on its grid, built from the mask's shape,
    offset and sample shape alone: o_i <= j_i < o_i + n_i on every axis."""
    index = np.indices(mask.shape)
    return np.logical_and.reduce([(j >= o) & (j < o + n) for j, o, n
                                  in zip(index, mask.offset, mask.sample_shape)])


def ref_project_background(z, y, mask):
    out = y.copy()
    omega = ref_omega(mask)
    out[omega] = z[omega]
    return out


def ref_dr_update(z, ztilde, y, mask, beta):
    return np.where(ref_omega(mask), ztilde, z - beta * (ztilde - y))


def ref_relative_error(x_hat, x):
    return float(np.linalg.norm(x_hat - x)) / float(np.linalg.norm(x))


def ref_power(zhat):
    # |X|^2 as re^2 + im^2, which gives the same bits at every SIMD level
    return zhat.real * zhat.real + zhat.imag * zhat.imag


def oracle_power(zhat):
    # the former |X|^2, np.abs squared, whose bits depend on the SIMD level
    return np.abs(zhat) ** 2


def ref_measurement_error(x_hat, y, mask, b, power=ref_power):
    # ||s - b||^2 = ||s - h||^2, a weighted sum on the half grid, + ||b - h||^2
    denom = float(np.linalg.norm(b.values.reshape(-1)))
    z = np.array(y, dtype=float)
    z[ref_omega(mask)] = x_hat
    r = power(np.fft.rfftn(z)) - ref_half(b.values)
    off = (b.values - ref_hermitian_part(b.values)).reshape(-1)
    total = np.dot(ref_weights(z.shape).reshape(-1), (r * r).reshape(-1))
    return math.sqrt(total + float(np.dot(off, off))) / denom


def ref_start(b):
    # (1/prod m) * Re DFT(b^{1/2}), as the inverse of the half root
    return ref_irfft(ref_half(b.root), b.shape)


def ref_iterate(b, y, mask, config, step, final, x, z):
    omega = ref_omega(mask)
    trace = []
    converged = False
    for _ in range(config.max_iter):
        z_new = step(z)
        step_norm = float(np.linalg.norm((z_new - z).reshape(-1)))
        assert math.isfinite(step_norm)
        z = z_new
        x_hat = z[omega]
        trace.append((ref_relative_error(x_hat, x), ref_measurement_error(x_hat, y, mask, b)))
        if step_norm <= config.eps:
            converged = True
            break
    if final is not None:
        z = final(z)
    return z[omega], len(trace), np.asarray(trace, dtype=float).reshape(-1, 2), converged


def ref_cbdr_branch(b, y, mask, config, x, sign):
    half_root = ref_half(b.root)
    z0 = ref_project_background(ref_start(b), y, mask)
    return ref_iterate(
        b, y, mask, config,
        lambda z: ref_dr_update(z, ref_project_ball(z, half_root, sign), y, mask, 1.0),
        lambda z: ref_project_ball(z, half_root, sign), x, z0)


def ref_run(b, y, mask, config, x):
    half_root = ref_half(b.root)
    project = lambda z: ref_project_magnitude(z, half_root)
    method = config.method
    if method is Method.CBDR:
        plus, minus = (ref_cbdr_branch(b, y, mask, config, x, s) for s in (1, -1))
        errors = [ref_measurement_error(r[0], y, mask, b) for r in (plus, minus)]
        return plus if errors[0] <= errors[1] else minus
    if method is Method.HIO:
        zeros = np.zeros(mask.shape)
        return ref_iterate(
            b, zeros, mask, config,
            lambda z: np.where(ref_omega(mask), project(z), z - config.beta * project(z)),
            project, x, ref_start(b))
    z0 = ref_project_background(ref_start(b), y, mask)
    if method is Method.PGD:
        def step(z):
            ztilde = project(z)
            if config.lam == 1.0:
                return ref_project_background(ztilde, y, mask)
            return ref_project_background(z - config.lam * (z - ztilde), y, mask)
        return ref_iterate(b, y, mask, config, step, None, x, z0)
    beta = 1.0 if method is Method.BDR else config.beta
    return ref_iterate(b, y, mask, config,
                       lambda z: ref_dr_update(z, project(z), y, mask, beta), project, x, z0)


# (grid, sample, placement, oversampled). An oversampled measurement, on the
# grid 2s - 1, is that of the object padded with known zero background to
# that grid, so it is solved on the padded grid.
GRIDS = {
    "1d-corner": ((40,), (12,), None, False),
    "2d-centered": ((14, 14), (6, 6), "centered", False),
    "2d-offset": ((14, 15), (5, 4), (2, 7), False),
    "1d-oversampled": ((24,), (8,), None, True),
    "2d-oversampled": ((10, 9), (4, 4), "centered", True),
    "3d-corner": ((7, 8, 6), (3, 3, 2), None, False),
}

# a trace row per iteration, as the reference records
CONFIGS = {
    "pgd": SolverConfig(Method.PGD, max_iter=150, trace_every=1),
    "pgd-lam0.5": SolverConfig(Method.PGD, lam=0.5, max_iter=150, trace_every=1),
    "bdr": SolverConfig(Method.BDR, max_iter=200, trace_every=1),
    "bdr1": SolverConfig(Method.BDR1, beta=0.9, max_iter=150, trace_every=1),
    "cbdr": SolverConfig(Method.CBDR, max_iter=150, trace_every=1),
    "hio": SolverConfig(Method.HIO, max_iter=60, trace_every=1),
}


def instance(grid, seed=3):
    shape, sample, placement, oversampled = GRIDS[grid]
    rng = np.random.default_rng(seed)
    if placement == "centered":
        mask = SupportMask.centered(shape, sample)
    else:
        mask = SupportMask.block(shape, sample, placement)
    x = rng.standard_normal(mask.sample_count)
    y = rng.standard_normal(shape)
    y[mask.slices] = 0.0
    if oversampled:
        y = np.pad(y, [(0, s - 1) for s in shape])
        mask = SupportMask.block(y.shape, sample, mask.offset)
    return x, y, mask, intensity(assemble(x, y, mask))


def assert_same(result, reference):
    final, iterations, trace, converged = reference
    assert result.iterations_used == iterations
    assert result.converged == converged
    assert result.final_estimate.tobytes() == final.tobytes()
    assert result.trace.tobytes() == trace.tobytes()


@pytest.mark.parametrize("method", CONFIGS)
@pytest.mark.parametrize("grid", GRIDS)
def test_run_matches_allocating_reference(grid, method):
    x, y, mask, b = instance(grid)
    config = CONFIGS[method]
    assert_same(solvers.run(b, y, mask, config, x_true=x), ref_run(b, y, mask, config, x))


def cbdr_stack(b, y, mask, config, x, signs):
    # one _iterate call with a lane per DC sign
    half_root = hermitian_half(b.root)
    return solvers._iterate(
        b, y, mask, config,
        lambda z, work, lanes: solvers.cbdr_step(z, half_root, y, mask, lanes, work),
        lambda z, work, lanes: project_magnitude_ball(z, half_root, lanes, work), x_true=x,
        lanes=signs)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("grid", GRIDS)
def test_cbdr_branch_matches_allocating_reference(grid, sign):
    x, y, mask, b = instance(grid)
    config = CONFIGS["cbdr"]
    branch, = cbdr_stack(b, y, mask, config, x, (sign,))
    assert_same(branch, ref_cbdr_branch(b, y, mask, config, x, sign))


def test_cbdr_stack_lanes_match_allocating_reference():
    # both DC signs as two lanes of one lockstep stack: each lane is the
    # reference branch of its sign, byte for byte, also after the other lane
    # stopped and left the stack (2d-offset: + converges at 101, - runs on)
    stop_apart = 0
    for grid in GRIDS:
        x, y, mask, b = instance(grid)
        config = CONFIGS["cbdr"]
        stack = cbdr_stack(b, y, mask, config, x, (1, -1))
        assert len(stack) == 2
        for lane, sign in zip(stack, (1, -1)):
            assert_same(lane, ref_cbdr_branch(b, y, mask, config, x, sign))
        assert stack.iterations_used == sum(lane.iterations_used for lane in stack)
        assert stack.converged == all(lane.converged for lane in stack)
        stop_apart += stack[0].iterations_used != stack[1].iterations_used
    assert stop_apart


@pytest.mark.parametrize("grid", GRIDS)
def test_measurement_error_power_against_abs_squared(grid):
    # the program's re^2 + im^2 is the reference's bit for bit, and the former
    # np.abs(...) ** 2 to rounding
    x, y, mask, b = instance(grid)
    x_hat = x + 1e-3 * np.random.default_rng(6).standard_normal(x.shape)
    got = metrics.measurement_error(x_hat, y, mask, b)
    assert got == ref_measurement_error(x_hat, y, mask, b)
    assert got == pytest.approx(ref_measurement_error(x_hat, y, mask, b, oracle_power),
                                rel=SCORE_RTOL)


def test_reference_cases_cover_both_stop_rules():
    # the byte comparison means most when some runs meet the stop test and
    # others hit the iteration cap
    outcomes = set()
    for grid in GRIDS:
        x, y, mask, b = instance(grid)
        for config in CONFIGS.values():
            outcomes.add(solvers.run(b, y, mask, config, x_true=x).converged)
    assert outcomes == {True, False}


def test_half_root_matches_reference():
    rng = np.random.default_rng(5)
    for shape in ((7,), (8,), (5, 6), (6, 5)):
        root = np.abs(rng.standard_normal(shape))
        assert hermitian_half(root).tobytes() == ref_half(root).tobytes()
        assert hermitian_half(root).flags.c_contiguous


def test_projectors_match_reference_with_and_without_workspace():
    # an alternating signal has exactly vanishing spectral coefficients, so the
    # phase-1 and scale-1 conventions are exercised too
    rng = np.random.default_rng(4)
    for grid in GRIDS:
        x, y, mask, b = instance(grid)
        work = Workspace(mask.shape)
        half_root = hermitian_half(b.root)
        for z in (rng.standard_normal(mask.shape), np.zeros(mask.shape),
                  np.resize([1.0, -1.0], mask.shape)):
            expected = ref_project_magnitude(z, half_root)
            assert project_magnitude(z, half_root).tobytes() == expected.tobytes()
            assert project_magnitude(z, half_root, work).tobytes() == expected.tobytes()
            for sign in (None, 1, -1):
                expected = ref_project_ball(z, half_root, sign)
                assert project_magnitude_ball(z, half_root, sign).tobytes() == \
                    expected.tobytes()
                assert project_magnitude_ball(z, half_root, sign, work).tobytes() == \
                    expected.tobytes()


# -- the half-spectrum projectors against the full-spectrum oracle --------------

ORACLE_RTOL = 1e-12


def _close(got, expected):
    return np.linalg.norm(got - expected) <= ORACLE_RTOL * np.linalg.norm(expected)


@st.composite
def projection_cases(draw, real_object_roots):
    """(z, root): z and root on one grid of 1 to 3 axes. The root is that of
    a real object, or else any nonnegative array with some exact zeros; z is
    random or zero, whose coefficients all vanish exactly on both paths. (Where a coefficient
    vanishes only up to rounding, as some of an alternating signal's do, its
    phase is rounding noise on either path, so the two may differ there by
    O(1); the byte pins above cover the phase-1 rule for such signals.)"""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, {1: 40, 2: 12, 3: 6}[ndim])) for _ in range(ndim))
    if real_object_roots:
        root = intensity(rng.standard_normal(shape)).root
    else:
        root = np.abs(rng.standard_normal(shape))
        root[rng.random(shape) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0
    z = rng.standard_normal(shape) if draw(st.booleans()) else np.zeros(shape)
    return z, root


@settings(max_examples=200, deadline=None)
@given(case=projection_cases(real_object_roots=False))
def test_equality_projection_matches_full_spectrum_oracle(case):
    # the half root is the Hermitian part the complex path's .real inverts,
    # so any nonnegative root, symmetric or not, gives the same projection
    z, root = case
    got = project_magnitude(z, hermitian_half(root))
    assert _close(got, oracle_project_magnitude(z, root))


@settings(max_examples=200, deadline=None)
@given(case=projection_cases(real_object_roots=True), sign=st.sampled_from((None, 1, -1)))
def test_ball_projection_matches_full_spectrum_oracle(case, sign):
    z, root = case
    got = project_magnitude_ball(z, hermitian_half(root), sign)
    assert _close(got, oracle_project_ball(z, root, sign))


@st.composite
def idempotence_cases(draw):
    """(z, root) on one grid of 1 or 2 axes: the root of a real object with
    exact zeros on a mirror-symmetric set of entries (none, some or all), and
    z random, zero or alternating, whose coefficients vanish exactly or up to
    rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ndim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(1, 12 if ndim == 2 else 40)) for _ in range(ndim))
    root = intensity(rng.standard_normal(shape)).root
    drop = rng.random(shape) < draw(st.sampled_from((0.0, 0.3, 1.0)))
    root[drop | mirror_index(drop)] = 0.0
    z = draw(st.sampled_from((rng.standard_normal(shape), np.zeros(shape),
                              np.resize([1.0, -1.0], shape))))
    return z, root


def rounding_zero_on_mirrored_line(z):
    """Whether a 2-D z has a spectral coefficient that vanishes only up to
    rounding on a self-mirrored line of the half grid (last-axis index 0, and
    m/2 when m is even). Such a line holds both coefficients of a mirror pair,
    and the rounding-noise phases of the two need not be conjugate; the
    projection takes the phase of the line's Hermitian part instead, so the
    inverse, which realizes the Hermitian part of what it is given, lands on
    the magnitude set. In 1-D the only self-mirrored coefficients are real, so
    this cannot happen."""
    if z.ndim < 2:
        return False
    zhat = np.fft.rfftn(z)
    m = z.shape[-1]
    lines = np.abs(zhat[..., ref_mirrored_lines(m)])
    scale = max(float(np.abs(zhat).max()), np.finfo(float).tiny)
    return bool(np.any((lines > 0) & (lines <= 1e-9 * scale)))


@settings(max_examples=200, deadline=None)
@given(case=idempotence_cases())
def test_equality_projection_idempotent(case):
    z, root = case
    half_root = hermitian_half(root)
    once = project_magnitude(z, half_root)
    twice = project_magnitude(once, half_root)
    assert np.linalg.norm(twice - once) <= ORACLE_RTOL * np.linalg.norm(once)


def test_equality_projection_idempotent_on_rounding_zero_coefficients():
    # a checkerboard on 10 x 3 has coefficients on the self-mirrored column 0
    # that vanish only up to rounding
    z = np.resize([1.0, -1.0], (10, 3))
    assert rounding_zero_on_mirrored_line(z)
    half_root = hermitian_half(intensity(np.random.default_rng(0).standard_normal(z.shape)).root)
    once = project_magnitude(z, half_root)
    twice = project_magnitude(once, half_root)
    assert np.linalg.norm(twice - once) <= ORACLE_RTOL * np.linalg.norm(once)


@settings(max_examples=100, deadline=None)
@given(case=projection_cases(real_object_roots=True), sign=st.sampled_from((None, 1, -1)),
       seed=st.integers(0, 2**32 - 1))
def test_ball_projection_idempotent_and_nonexpansive(case, sign, seed):
    z, root = case
    half_root = hermitian_half(root)
    project = lambda w: project_magnitude_ball(w, half_root, sign)
    once = project(z)
    twice = project(once)
    assert np.linalg.norm(twice - once) <= ORACLE_RTOL * max(np.linalg.norm(once), 1.0)
    other = np.random.default_rng(seed).standard_normal(z.shape)
    gap = np.linalg.norm(project(other) - once)
    assert gap <= np.linalg.norm(other - z) * (1.0 + ORACLE_RTOL) + 1e-15 * np.linalg.norm(once)


# -- the half-grid start and scoring against the full-grid oracle ---------------

def oracle_start(b):
    # the former start: the full complex transform, real part
    root = b.root
    return np.fft.fftn(root).real / root.size


def oracle_scores(x_hat, y, mask, b):
    # the former intensity residual on the full grid, through the full complex
    # transform: (measurement error, fixed-point residual). The residual is
    # taken against the Hermitian part of b, which is b up to rounding for
    # the intensity of a real object and what the half grid holds otherwise.
    i_hat = np.abs(np.fft.fftn(assemble(x_hat, y, mask))) ** 2
    error = np.linalg.norm((i_hat - b.values).reshape(-1)) / np.linalg.norm(b.values.reshape(-1))
    resid = np.max(np.abs(i_hat - ref_hermitian_part(b.values))) / np.max(b.values)
    return float(error), float(resid)


# The half-grid formulas equal the oracles in exact arithmetic. The scores are
# compared where the residual is well above rounding (x_hat off the truth by
# 1e-3 or more), so SCORE_RTOL bounds the rounding of either path relative to
# the score; SCORE_ATOL is the rounding floor of a score scaled by ||b|| or
# max(b).
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-12


@st.composite
def scoring_cases(draw):
    """(x_hat, y, mask, b) on a grid of 1 to 3 axes with an odd or even last
    axis: b the intensity of a real object [x; y], or nonnegative data with no
    symmetry (``conj_symmetric=False``, as ``solve --spectrum`` reads), and
    x_hat the sample x perturbed by a relative 1e-3 or 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ndim = draw(st.integers(1, 3))
    cap = {1: 40, 2: 12, 3: 6}[ndim]
    shape = tuple(draw(st.integers(2, cap)) for _ in range(ndim - 1))
    last = draw(st.integers(1, cap // 2)) * 2 - draw(st.integers(0, 1))  # odd or even
    shape += (max(last, 2),)
    sample = tuple(draw(st.integers(1, m - 1)) for m in shape)
    mask = SupportMask.block(shape, sample)
    x = rng.standard_normal(mask.sample_count)
    y = rng.standard_normal(shape)
    y[mask.slices] = 0.0
    b = intensity(assemble(x, y, mask))
    if draw(st.booleans()):
        b = IntensityMeasurements(rng.random(shape) * np.max(b.values), conj_symmetric=False)
    x_hat = x + draw(st.sampled_from((1e-3, 1.0))) * rng.standard_normal(x.shape)
    return x_hat, y, mask, b


@settings(max_examples=200, deadline=None)
@given(case=scoring_cases())
def test_scores_match_full_grid_oracle(case):
    x_hat, y, mask, b = case
    with warnings.catch_warnings():  # 2-D samples below the SSIM window
        warnings.simplefilter("ignore", RuntimeWarning)
        row = metrics.evaluate(x_hat, x_hat, y, mask, b)
    error, resid = oracle_scores(x_hat, y, mask, b)
    assert row["measurement_error"] == metrics.measurement_error(x_hat, y, mask, b)
    assert row["measurement_error"] == pytest.approx(error, rel=SCORE_RTOL, abs=SCORE_ATOL)
    assert row["fixedpoint_resid"] == pytest.approx(resid, rel=SCORE_RTOL, abs=SCORE_ATOL)


@settings(max_examples=200, deadline=None)
@given(case=scoring_cases())
def test_start_matches_full_grid_oracle(case):
    _, y, mask, b = case
    got = solvers._spectral_start(b, Workspace(mask.shape))
    assert _close(got, oracle_start(b))
    assert init_spectral(b, y, mask).tobytes() == \
        ref_project_background(got, y, mask).tobytes()
