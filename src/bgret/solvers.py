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
* HIO      classic hybrid input-output on a bare support (no background
           values): inside the support take the magnitude-projection output,
           outside z - beta*P_A(z).

``run`` is the one entry point: it sends HIO to ``hio_run`` and CBDR to the
two-branch ``cbdr_parallel_real``. Each step maps a plain float array z^{p-1}
to z^p; ``_iterate`` is the one loop. Every run starts from the deterministic
spectral initializer z0 = P_B((1/prod m) * DFT(b^{1/2})) unless an explicit
start is supplied (HIO starts from the unprojected transform), and stops when
the step norm ||z^p - z^{p-1}|| is at most eps or the iteration cap is reached.
Divergence is detected from that same step norm: a non-finite start or step
norm raises DivergenceError rather than being clamped, so traces stay honest.

Each ``_iterate`` call (so each CBDR branch) builds one ``spectral.Workspace``
and passes it as ``out=`` to the step, which writes z^p into the iterate
buffer that does not hold z^{p-1}, and to ``metrics.measurement_error`` for
the trace row. The root intensity b^{1/2} (once for both CBDR branches) and
the norms of b and of the ground truth are computed once per run; the
arithmetic is that of the allocating path, so the bytes are the same. The
estimate and the trace a run returns are copies, never views of
its workspace, and the caller's z0, background and measurements are only read.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .metrics import l2_norm, measurement_error
from .model import IntensityMeasurements, Method, SolverConfig, SolverRun, SupportMask
from .projections import project_background, project_magnitude, project_magnitude_ball
from .spectral import Workspace, crop, dft_forward


class DivergenceError(RuntimeError):
    """Iterate turned non-finite: divergence or corrupt input data."""


def _spectral_start(root: np.ndarray, shape) -> np.ndarray:
    # (1/prod m) * DFT(b^{1/2}) on the object grid, before any projection
    return crop(dft_forward(root).real / root.size, shape)


def init_spectral(b: IntensityMeasurements, background: np.ndarray,
                  mask: SupportMask) -> np.ndarray:
    """Deterministic start z0 = P_B((1/prod m) * DFT(b^{1/2}))."""
    return project_background(_spectral_start(b.root, mask.shape), background, mask)


def _destination(out: Optional[Workspace], z: np.ndarray) -> Optional[np.ndarray]:
    # where a step writes z^p: the workspace iterate buffer not holding z, or
    # a new array without a workspace
    return None if out is None else out.next_iterate(z)


def pgd_step(z: np.ndarray, root: np.ndarray, background: np.ndarray,
             mask: SupportMask, lam: float = 1.0,
             out: Optional[Workspace] = None) -> np.ndarray:
    """Projected gradient step; the subgradient of the magnitude objective is
    z - P_A(z), so lam=1 reduces to the alternating projection P_B(P_A(z))."""
    if not lam > 0:
        raise ValueError("learning rate must be positive")
    ztilde = project_magnitude(z, root, out)
    if lam != 1.0:
        # z - lam * (z - ztilde), formed in the projection's own buffer
        np.subtract(z, ztilde, out=ztilde)
        np.multiply(lam, ztilde, out=ztilde)
        np.subtract(z, ztilde, out=ztilde)
    return project_background(ztilde, background, mask, out=_destination(out, z))


def _dr_update(z: np.ndarray, ztilde: np.ndarray, background: np.ndarray,
               mask: SupportMask, beta: float, out: Optional[np.ndarray]) -> np.ndarray:
    # beta damps the background correction; fixed points keep ztilde = y off
    # the support for every beta in (0, 1], and beta = 1 is z - ztilde + y.
    update = np.subtract(ztilde, background, out=out)
    if beta != 1.0:  # 1.0 * v is v, bit for bit
        np.multiply(beta, update, out=update)
    np.subtract(z, update, out=update)
    np.copyto(update, ztilde, where=mask.inside)
    return update


def bdr_step(z: np.ndarray, root: np.ndarray, background: np.ndarray,
             mask: SupportMask, beta: float = 1.0,
             out: Optional[Workspace] = None) -> np.ndarray:
    """Background Douglas-Rachford step (beta=1); beta<1 is the relaxed BDR1."""
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must lie in (0, 1]")
    return _dr_update(z, project_magnitude(z, root, out), background, mask, beta,
                      _destination(out, z))


def cbdr_step(z: np.ndarray, root: np.ndarray, background: np.ndarray, mask: SupportMask,
              dc_sign: Optional[int] = None, out: Optional[Workspace] = None) -> np.ndarray:
    """BDR coordinate update with the convex ball projection, its DC pinned
    to dc_sign * root at DC unless dc_sign is None."""
    return _dr_update(z, project_magnitude_ball(z, root, dc_sign, out), background, mask,
                      1.0, _destination(out, z))


def hio_step(z: np.ndarray, root: np.ndarray, mask: SupportMask,
             beta: float = 0.9, out: Optional[Workspace] = None) -> np.ndarray:
    ztilde = project_magnitude(z, root, out)
    update = np.multiply(beta, ztilde, out=_destination(out, z))
    np.subtract(z, update, out=update)
    np.copyto(update, ztilde, where=mask.inside)
    return update


def _iterate(b: IntensityMeasurements, background: np.ndarray,
             mask: SupportMask, config: SolverConfig, step: Callable,
             final_projector: Optional[Callable], x_true=None, z0=None) -> SolverRun:
    z = init_spectral(b, background, mask) if z0 is None else np.asarray(z0, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DivergenceError("non-finite start")
    if x_true is not None:
        xt = np.asarray(x_true, dtype=float).reshape(-1)
        if xt.size != mask.sample_count:
            raise ValueError(f"shape mismatch: {(mask.sample_count,)} vs {xt.shape}")
        xt_norm = l2_norm(xt)
        if xt_norm == 0.0:
            raise ValueError("relative error undefined for zero ground truth")

    # step(z, work) maps z^{p-1} to z^p inside the run's workspace, built
    # after the start so that the start's temporaries are freed first
    work = Workspace(background, mask, b.shape)
    trace = []
    converged = False
    for p in range(1, config.max_iter + 1):
        z_new = step(z, work)
        step_norm = l2_norm(z_new - z)
        if not math.isfinite(step_norm):
            raise DivergenceError(f"non-finite iterate at step {p}")
        z = z_new
        x_hat = z[mask.inside]
        # the trace row: relative error (as metrics.relative_error) and
        # measurement error of the current iterate
        rel = math.nan if x_true is None else l2_norm(x_hat - xt) / xt_norm
        trace.append((rel, measurement_error(x_hat, background, mask, b, work)))
        if step_norm <= config.eps:
            converged = True
            break

    if final_projector is not None:
        z = final_projector(z)
    final = z[mask.inside]
    return SolverRun(final, len(trace), np.asarray(trace, dtype=float).reshape(-1, 2),
                     converged)


def run(b: IntensityMeasurements, background: np.ndarray, mask: SupportMask,
        config: SolverConfig, x_true=None, z0=None) -> SolverRun:
    """Run config.method to the stopping rule ||z^p - z^{p-1}|| <= eps or the
    iteration cap; the returned estimate is the support part of the final
    magnitude-projection output (constraint-feasible at fixed points), except
    for PGD whose iterate is already background-feasible."""
    method = config.method
    if method is Method.HIO:
        return hio_run(b, mask, config, x_true=x_true, z0=z0)
    if method is Method.CBDR:
        return cbdr_parallel_real(b, background, mask, config, x_true=x_true, z0=z0)

    root = b.root
    if method is Method.PGD:
        step = lambda z, work: pgd_step(z, root, background, mask, config.lam, work)
        final = None
    elif method in (Method.BDR, Method.BDR1):
        beta = 1.0 if method is Method.BDR else config.beta
        step = lambda z, work: bdr_step(z, root, background, mask, beta, work)
        final = lambda z: project_magnitude(z, root)
    else:  # pragma: no cover - Method is exhaustive
        raise ValueError(f"unhandled method {method}")
    return _iterate(b, background, mask, config, step, final, x_true=x_true, z0=z0)


def cbdr_parallel_real(b: IntensityMeasurements, background: np.ndarray,
                       mask: SupportMask, config: SolverConfig,
                       x_true=None, z0=None) -> SolverRun:
    """Run CBDR twice with the DC coefficient pinned to +sqrt(b_1) and
    -sqrt(b_1); return the branch with the smaller measurement error (ties go
    to the + branch)."""
    root = b.root
    branches = []
    errors = []
    for sign in (1, -1):
        step = lambda z, work, s=sign: cbdr_step(z, root, background, mask, s, work)
        final = lambda z, s=sign: project_magnitude_ball(z, root, s)
        result = _iterate(b, background, mask, config, step, final, x_true=x_true, z0=z0)
        branches.append(result)
        errors.append(measurement_error(result.final_estimate, background, mask, b))
    return branches[0] if errors[0] <= errors[1] else branches[1]


def hio_run(b: IntensityMeasurements, mask: SupportMask, config: SolverConfig,
            x_true=None, z0=None) -> SolverRun:
    """Fienup HIO on a bare support constraint (no background values)."""
    root = b.root
    zeros = np.zeros(mask.shape)
    step = lambda z, work: hio_step(z, root, mask, config.beta, work)
    final = lambda z: project_magnitude(z, root)
    if z0 is None:
        z0 = _spectral_start(root, mask.shape)
    return _iterate(b, zeros, mask, config, step, final, x_true=x_true, z0=z0)
