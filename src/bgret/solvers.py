"""Iterative reconstruction methods.

Five methods share one loop skeleton:

* PGD      z^p = P_B(z^{p-1} - lam*(z^{p-1} - P_A(z^{p-1}))); lam=1 is P_B.P_A.
* BDR      with ztilde = P_A(z^{p-1}): keep ztilde on the support, and update
           the background coordinates as z - ztilde + y. For beta=1 this is
           the operator (R_B R_A + I)/2 applied to z^{p-1}.
* BDR1     the beta-damped background update z - beta*(ztilde - y); noise
           mode, background-consistent fixed points for every beta.
* CBDR     same coordinate update with the convex ball projection replacing
           the magnitude equality; it always runs as two branches that pin
           the DC sign for real signals, keeping the branch with the smaller
           measurement error.
* HIO      classic hybrid input-output on a bare support: the BDR1 update
           with background y = 0, so inside the support take the
           magnitude-projection output, outside z - beta*P_A(z).

``run`` is the one entry point: it runs HIO as BDR1 on a zero background
and sends CBDR to the two-branch ``cbdr_parallel_real``. Each step maps a
plain float array z^{p-1} to z^p; ``_iterate`` is the one loop. Every run
starts from the deterministic spectral initializer
z0 = P_B((1/prod m) * Re DFT(b^{1/2})) unless an explicit start is supplied
(HIO starts from the unprojected transform), and stops when the step norm
||z^p - z^{p-1}|| is at most eps or the iteration cap is reached.
Divergence is detected from that same step norm: a non-finite start or step
norm raises DivergenceError rather than being clamped, so traces stay honest.

The trace is opt-in, and the solvers score nothing else: a result is scored
by ``metrics.evaluate``. A trace row holds ``metrics.relative_error`` of the
iterate's support values against the ground truth x_true (NaN without one)
and ``metrics.measurement_error`` of the iterate z^p. With
``SolverConfig.trace_every`` = s > 0 a row is recorded at every iteration p
with p % s == 0, and always at the final iteration (once, also when it is a
multiple of s); with s = 0, the default, no row is recorded. The ground
truth is not validated up front: a wrong shape or a zero truth raises
ValueError at the first traced row, and an untraced run never reads it. The
stride changes no iterate: estimates, ``iterations_used`` (the number of loop
iterations, not of rows) and ``converged`` are the same for every s, s = 1
gives a row per iteration, and the final row is the same at every s > 0.
An untraced iteration makes the two FFTs of its magnitude projection, the
workspace's real ``forward`` and ``inverse``; a traced one a third, the
workspace's ``forward`` of the measurement error.

Measurements live on the object grid: ``_iterate`` rejects b whose shape is
not that of the support mask's grid, with a ValueError. The module makes no
complex transform: everything runs on the half spectrum (see ``spectral``
and ``projections``). The steps take the half root ``b.half_root``, the
Hermitian part of the root intensity cut to the half grid, which b computes
once for all its runs. The spectral start (1/prod m) * Re DFT(b^{1/2}) is the
workspace's ``inverse`` of that half root. Phase 1 where a coefficient
vanishes and the DC pin of CBDR are as on the full spectrum.

Each step returns z^p as a new array and only reads z^{p-1}. Its last
argument, ``work``, is a ``spectral.Workspace``: the real-data transform pair
of its magnitude projection with that pair's buffers (None builds one per
call). Each ``_iterate`` call (so each CBDR branch) builds one from the grid
shape, which it checks once there, and computes the start and the trace's
measurement errors in it and passes it to every step. The norm of b is
cached on b. The caller's z0, background and measurements are only read.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .metrics import l2_norm, measurement_error, relative_error
from .model import IntensityMeasurements, Method, SolverConfig, SolverRun, SupportMask
from .projections import project_background, project_magnitude, project_magnitude_ball
from .spectral import Workspace


class DivergenceError(RuntimeError):
    """Iterate turned non-finite: divergence or corrupt input data."""


def _require_grid(b: IntensityMeasurements, mask: SupportMask) -> None:
    if b.shape != mask.shape:
        raise ValueError(f"measurements of shape {b.shape} are not on the object grid "
                         f"{mask.shape}")


def _spectral_start(b: IntensityMeasurements, work: Workspace) -> np.ndarray:
    # (1/prod m) * Re DFT(b^{1/2}), before any projection: the inverse of the
    # half root, in the workspace's grid buffer
    work.half[...] = b.half_root
    return work.inverse()


def init_spectral(b: IntensityMeasurements, background: np.ndarray,
                  mask: SupportMask) -> np.ndarray:
    """Deterministic start z0 = P_B((1/prod m) * Re DFT(b^{1/2}))."""
    return project_background(_spectral_start(b, Workspace(mask.shape)), background, mask)


def pgd_step(z: np.ndarray, half_root: np.ndarray, background: np.ndarray,
             mask: SupportMask, lam: float = 1.0,
             work: Optional[Workspace] = None) -> np.ndarray:
    """Projected gradient step; the subgradient of the magnitude objective is
    z - P_A(z), so lam=1 reduces to the alternating projection P_B(P_A(z))."""
    if not lam > 0:
        raise ValueError("learning rate must be positive")
    ztilde = project_magnitude(z, half_root, work)
    if lam != 1.0:
        # z - lam * (z - ztilde), formed in the projection's own buffer
        np.subtract(z, ztilde, out=ztilde)
        np.multiply(lam, ztilde, out=ztilde)
        np.subtract(z, ztilde, out=ztilde)
    return project_background(ztilde, background, mask)


def _dr_update(z: np.ndarray, ztilde: np.ndarray, background: np.ndarray,
               mask: SupportMask, beta: float) -> np.ndarray:
    # beta damps the background correction; fixed points keep ztilde = y off
    # the support for every beta in (0, 1], and beta = 1 is z - ztilde + y.
    update = np.subtract(ztilde, background)
    if beta != 1.0:  # 1.0 * v is v, bit for bit
        np.multiply(beta, update, out=update)
    np.subtract(z, update, out=update)
    update[mask.slices] = ztilde[mask.slices]
    return update


def bdr_step(z: np.ndarray, half_root: np.ndarray, background: np.ndarray,
             mask: SupportMask, beta: float = 1.0,
             work: Optional[Workspace] = None) -> np.ndarray:
    """Background Douglas-Rachford step (beta=1); beta<1 is the relaxed BDR1,
    and on a zero background it is the HIO step."""
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must lie in (0, 1]")
    return _dr_update(z, project_magnitude(z, half_root, work), background, mask, beta)


def cbdr_step(z: np.ndarray, half_root: np.ndarray, background: np.ndarray,
              mask: SupportMask, dc_sign: Optional[int] = None,
              work: Optional[Workspace] = None) -> np.ndarray:
    """BDR coordinate update with the convex ball projection, its DC pinned
    to dc_sign * b^{1/2} at DC unless dc_sign is None."""
    return _dr_update(z, project_magnitude_ball(z, half_root, dc_sign, work),
                      background, mask, 1.0)


def _iterate(b: IntensityMeasurements, background: np.ndarray,
             mask: SupportMask, config: SolverConfig, step: Callable,
             final_projector: Optional[Callable], x_true=None, z0=None) -> SolverRun:
    _require_grid(b, mask)
    # step(z, work) maps z^{p-1} to a new array z^p, transforming in the
    # run's workspace
    work = Workspace(mask.shape)
    if z0 is None:
        z = project_background(_spectral_start(b, work), background, mask)
    else:
        z = np.asarray(z0, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DivergenceError("non-finite start")

    stride = config.trace_every
    trace = []
    for p in range(1, config.max_iter + 1):
        z_new = step(z, work)
        step_norm = l2_norm(z_new - z)
        if not math.isfinite(step_norm):
            raise DivergenceError(f"non-finite iterate at step {p}")
        z = z_new
        converged = step_norm <= config.eps
        if stride and (p % stride == 0 or converged or p == config.max_iter):
            x_hat = z[mask.inside]
            rel = math.nan if x_true is None else relative_error(x_hat, x_true)
            trace.append((rel, measurement_error(x_hat, background, mask, b, work)))
        if converged:
            break

    if final_projector is not None:
        z = final_projector(z)
    final = z[mask.inside]
    return SolverRun(final, p, np.asarray(trace, dtype=float).reshape(-1, 2), converged)


def run(b: IntensityMeasurements, background: np.ndarray, mask: SupportMask,
        config: SolverConfig, x_true=None, z0=None) -> SolverRun:
    """Run config.method to the stopping rule ||z^p - z^{p-1}|| <= eps or the
    iteration cap; the returned estimate is the support part of the final
    magnitude-projection output (constraint-feasible at fixed points), except
    for PGD whose iterate is already background-feasible. HIO ignores the
    background: it runs BDR1 on y = 0 from the unprojected spectral start."""
    method = config.method
    if method is Method.CBDR:
        return cbdr_parallel_real(b, background, mask, config, x_true=x_true, z0=z0)
    if method is Method.HIO:
        background = np.zeros(mask.shape)
        if z0 is None:
            _require_grid(b, mask)
            z0 = _spectral_start(b, Workspace(mask.shape))

    half_root = b.half_root
    if method is Method.PGD:
        step = lambda z, work: pgd_step(z, half_root, background, mask, config.lam, work)
        final = None
    else:  # BDR, BDR1 and HIO
        beta = 1.0 if method is Method.BDR else config.beta
        step = lambda z, work: bdr_step(z, half_root, background, mask, beta, work)
        final = lambda z: project_magnitude(z, half_root)
    return _iterate(b, background, mask, config, step, final, x_true=x_true, z0=z0)


def cbdr_parallel_real(b: IntensityMeasurements, background: np.ndarray,
                       mask: SupportMask, config: SolverConfig,
                       x_true=None, z0=None) -> SolverRun:
    """Run CBDR twice with the DC coefficient pinned to +sqrt(b_1) and
    -sqrt(b_1); return the branch with the smaller measurement error (ties go
    to the + branch)."""
    half_root = b.half_root
    branches = []
    errors = []
    for sign in (1, -1):
        step = lambda z, work, s=sign: cbdr_step(z, half_root, background, mask, s, work)
        final = lambda z, s=sign: project_magnitude_ball(z, half_root, s)
        result = _iterate(b, background, mask, config, step, final, x_true=x_true, z0=z0)
        branches.append(result)
        errors.append(measurement_error(result.final_estimate, background, mask, b))
    return branches[0] if errors[0] <= errors[1] else branches[1]

