"""The solver loop against the allocating per-step formulas it replaced.

``solvers.run`` works in a per-run workspace with ``out=`` buffers. The
reference below is the plain formulation: every step allocates its arrays,
transforms through ``np.fft`` directly, and recomputes the norms of b and of
the ground truth on every trace row. Both must agree byte for byte at trace
stride 1: trace, final estimate, iteration count and the converged flag.
"""

import math

import numpy as np
import pytest

from bgret import solvers
from bgret.model import Method, SolverConfig, SupportMask, assemble
from bgret.projections import project_magnitude, project_magnitude_ball
from bgret.spectral import Workspace, intensity


def ref_fft(z, shape):
    return np.fft.fftn(z, s=shape, axes=tuple(range(z.ndim)))


def ref_crop(a, shape):
    if a.shape == tuple(shape):
        return a
    return a[tuple(slice(0, s) for s in shape)].copy()


def ref_project_magnitude(z, root):
    zhat = ref_fft(z, root.shape)
    mag = np.abs(zhat)
    phase = np.divide(zhat, mag, out=np.ones_like(zhat), where=mag > 0)
    return ref_crop(np.fft.ifftn(root * phase).real, z.shape)


def ref_project_ball(z, root, sign):
    zhat = ref_fft(z, root.shape)
    mag = np.abs(zhat)
    scale = np.divide(root, mag, out=np.ones_like(mag), where=mag > 0)
    what = zhat * np.minimum(1.0, scale)
    what.flat[0] = sign * float(root.flat[0])
    return ref_crop(np.fft.ifftn(what).real, z.shape)


def ref_project_background(z, y, mask):
    out = y.copy()
    out[mask.inside] = z[mask.inside]
    return out


def ref_dr_update(z, ztilde, y, mask, beta):
    return np.where(mask.inside, ztilde, z - beta * (ztilde - y))


def ref_relative_error(x_hat, x):
    return float(np.linalg.norm(x_hat - x)) / float(np.linalg.norm(x))


def ref_measurement_error(x_hat, y, mask, b):
    denom = float(np.linalg.norm(b.values.reshape(-1)))
    z = np.array(y, dtype=float)
    z[mask.inside] = x_hat
    i_hat = np.abs(ref_fft(z, b.shape)) ** 2
    return float(np.linalg.norm((i_hat - b.values).reshape(-1))) / denom


def ref_start(b, shape):
    root = b.root
    return ref_crop(ref_fft(root, root.shape).real / root.size, shape)


def ref_iterate(b, y, mask, config, step, final, x, z):
    trace = []
    converged = False
    for _ in range(config.max_iter):
        z_new = step(z)
        step_norm = float(np.linalg.norm((z_new - z).reshape(-1)))
        assert math.isfinite(step_norm)
        z = z_new
        x_hat = z[mask.inside]
        trace.append((ref_relative_error(x_hat, x), ref_measurement_error(x_hat, y, mask, b)))
        if step_norm <= config.eps:
            converged = True
            break
    if final is not None:
        z = final(z)
    return z[mask.inside], len(trace), np.asarray(trace, dtype=float).reshape(-1, 2), converged


def ref_cbdr_branch(b, y, mask, config, x, sign):
    root = b.root
    z0 = ref_project_background(ref_start(b, mask.shape), y, mask)
    return ref_iterate(b, y, mask, config,
                       lambda z: ref_dr_update(z, ref_project_ball(z, root, sign), y, mask, 1.0),
                       lambda z: ref_project_ball(z, root, sign), x, z0)


def ref_run(b, y, mask, config, x):
    root = b.root
    method = config.method
    if method is Method.CBDR:
        plus, minus = (ref_cbdr_branch(b, y, mask, config, x, s) for s in (1, -1))
        errors = [ref_measurement_error(r[0], y, mask, b) for r in (plus, minus)]
        return plus if errors[0] <= errors[1] else minus
    if method is Method.HIO:
        zeros = np.zeros(mask.shape)
        return ref_iterate(
            b, zeros, mask, config,
            lambda z: np.where(mask.inside, ref_project_magnitude(z, root),
                               z - config.beta * ref_project_magnitude(z, root)),
            lambda z: ref_project_magnitude(z, root), x, ref_start(b, mask.shape))
    z0 = ref_project_background(ref_start(b, mask.shape), y, mask)
    if method is Method.PGD:
        def step(z):
            ztilde = ref_project_magnitude(z, root)
            if config.lam == 1.0:
                return ref_project_background(ztilde, y, mask)
            return ref_project_background(z - config.lam * (z - ztilde), y, mask)
        return ref_iterate(b, y, mask, config, step, None, x, z0)
    beta = 1.0 if method is Method.BDR else config.beta
    return ref_iterate(b, y, mask, config,
                       lambda z: ref_dr_update(z, ref_project_magnitude(z, root), y, mask, beta),
                       lambda z: ref_project_magnitude(z, root), x, z0)


GRIDS = {
    "1d-corner": ((40,), (12,), None, False),
    "2d-centered": ((14, 14), (6, 6), "centered", False),
    "2d-offset": ((14, 15), (5, 4), (2, 7), False),
    "1d-oversampled": ((24,), (8,), None, True),
    "2d-oversampled": ((10, 9), (4, 4), "centered", True),
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
    y[mask.inside] = 0.0
    m = tuple(2 * s - 1 for s in shape) if oversampled else None
    return x, y, mask, intensity(assemble(x, y, mask), m)


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


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("grid", GRIDS)
def test_cbdr_branch_matches_allocating_reference(grid, sign):
    x, y, mask, b = instance(grid)
    config = CONFIGS["cbdr"]
    root = b.root
    branch = solvers._iterate(
        b, y, mask, config,
        lambda z, work: solvers.cbdr_step(z, root, y, mask, sign, work),
        lambda z: project_magnitude_ball(z, root, sign), x_true=x)
    assert_same(branch, ref_cbdr_branch(b, y, mask, config, x, sign))


def test_reference_cases_cover_both_stop_rules():
    # the byte comparison means most when some runs meet the stop test and
    # others hit the iteration cap
    outcomes = set()
    for grid in GRIDS:
        x, y, mask, b = instance(grid)
        for config in CONFIGS.values():
            outcomes.add(solvers.run(b, y, mask, config, x_true=x).converged)
    assert outcomes == {True, False}


def test_projectors_match_reference_with_and_without_workspace():
    # an alternating signal has exactly vanishing spectral coefficients, so the
    # phase-1 and scale-1 conventions are exercised too
    rng = np.random.default_rng(4)
    for grid in GRIDS:
        x, y, mask, b = instance(grid)
        work = Workspace(y, mask, b.shape)
        for z in (rng.standard_normal(mask.shape), np.zeros(mask.shape),
                  np.resize([1.0, -1.0], mask.shape)):
            root = b.root
            expected = ref_project_magnitude(z, root)
            assert project_magnitude(z, root).tobytes() == expected.tobytes()
            assert project_magnitude(z, root, work).tobytes() == expected.tobytes()
            for sign in (1, -1):
                expected = ref_project_ball(z, root, sign)
                assert project_magnitude_ball(z, root, sign).tobytes() == expected.tobytes()
                assert project_magnitude_ball(z, root, sign, work).tobytes() == expected.tobytes()
