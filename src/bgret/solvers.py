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
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .metrics import measurement_error, relative_error
from .model import IntensityMeasurements, Method, SolverConfig, SolverRun, SupportMask
from .projections import (MagnitudeTarget, project_background,
                          project_magnitude, project_magnitude_ball)
from .spectral import crop, dft_forward


class DivergenceError(RuntimeError):
    """Iterate turned non-finite: divergence or corrupt input data."""


def _spectral_start(root: np.ndarray, shape) -> np.ndarray:
    # (1/prod m) * DFT(b^{1/2}) on the object grid, before any projection
    return crop(dft_forward(root).real / root.size, shape)


def init_spectral(b: IntensityMeasurements, background: np.ndarray,
                  mask: SupportMask) -> np.ndarray:
    """Deterministic start z0 = P_B((1/prod m) * DFT(b^{1/2}))."""
    return project_background(_spectral_start(b.root, mask.shape), background, mask)


def pgd_step(z: np.ndarray, target: MagnitudeTarget, background: np.ndarray,
             mask: SupportMask, lam: float = 1.0) -> np.ndarray:
    """Projected gradient step; the subgradient of the magnitude objective is
    z - P_A(z), so lam=1 reduces to the alternating projection P_B(P_A(z))."""
    if not lam > 0:
        raise ValueError("learning rate must be positive")
    ztilde = project_magnitude(z, target)
    if lam == 1.0:
        return project_background(ztilde, background, mask)
    return project_background(z - lam * (z - ztilde), background, mask)


def _dr_update(z: np.ndarray, ztilde: np.ndarray, background: np.ndarray,
               mask: SupportMask, beta: float) -> np.ndarray:
    # beta damps the background correction; fixed points keep ztilde = y off
    # the support for every beta in (0, 1], and beta = 1 is z - ztilde + y.
    return np.where(mask.inside, ztilde, z - beta * (ztilde - background))


def bdr_step(z: np.ndarray, target: MagnitudeTarget, background: np.ndarray,
             mask: SupportMask, beta: float = 1.0) -> np.ndarray:
    """Background Douglas-Rachford step (beta=1); beta<1 is the relaxed BDR1."""
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must lie in (0, 1]")
    return _dr_update(z, project_magnitude(z, target), background, mask, beta)


def cbdr_step(z: np.ndarray, target: MagnitudeTarget, background: np.ndarray,
              mask: SupportMask) -> np.ndarray:
    """BDR coordinate update with the convex ball projection."""
    return _dr_update(z, project_magnitude_ball(z, target), background, mask, 1.0)


def hio_step(z: np.ndarray, target: MagnitudeTarget, mask: SupportMask,
             beta: float = 0.9) -> np.ndarray:
    ztilde = project_magnitude(z, target)
    return np.where(mask.inside, ztilde, z - beta * ztilde)


def magnitude_objective(z, target: MagnitudeTarget) -> float:
    """(1/(2m)) * sum_i (|DFT(z)_i| - b_i^{1/2})^2, the PGD objective."""
    zhat = dft_forward(np.asarray(z, dtype=float), target.shape)
    diff = np.abs(zhat) - target.root_intensity
    return 0.5 * float(np.sum(diff * diff)) / target.root_intensity.size


def _trace_row(z: np.ndarray, mask: SupportMask, background: np.ndarray,
               b: IntensityMeasurements, x_true) -> tuple[float, float]:
    x_hat = z[mask.inside]
    rel = math.nan if x_true is None else relative_error(x_hat, x_true)
    return rel, measurement_error(x_hat, background, mask, b)


def _iterate(b: IntensityMeasurements, target: MagnitudeTarget, background: np.ndarray,
             mask: SupportMask, config: SolverConfig, step: Callable,
             final_projector: Optional[Callable], x_true=None, z0=None) -> SolverRun:
    z = init_spectral(b, background, mask) if z0 is None else np.asarray(z0, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DivergenceError("non-finite start")
    xt = None if x_true is None else np.asarray(x_true, dtype=float).reshape(-1)

    trace = []
    converged = False
    for p in range(1, config.max_iter + 1):
        z_new = step(z)
        step_norm = float(np.linalg.norm((z_new - z).reshape(-1)))
        if not math.isfinite(step_norm):
            raise DivergenceError(f"non-finite iterate at step {p}")
        z = z_new
        trace.append(_trace_row(z, mask, background, b, xt))
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

    if method is Method.PGD:
        target = MagnitudeTarget.equality(b)
        step = lambda z: pgd_step(z, target, background, mask, config.lam)
        final = None
    elif method in (Method.BDR, Method.BDR1):
        target = MagnitudeTarget.equality(b)
        beta = 1.0 if method is Method.BDR else config.beta
        step = lambda z: bdr_step(z, target, background, mask, beta)
        final = lambda z: project_magnitude(z, target)
    else:  # pragma: no cover - Method is exhaustive
        raise ValueError(f"unhandled method {method}")
    return _iterate(b, target, background, mask, config, step, final,
                    x_true=x_true, z0=z0)


def cbdr_parallel_real(b: IntensityMeasurements, background: np.ndarray,
                       mask: SupportMask, config: SolverConfig,
                       x_true=None, z0=None) -> SolverRun:
    """Run CBDR twice with the DC coefficient pinned to +sqrt(b_1) and
    -sqrt(b_1); return the branch with the smaller measurement error (ties go
    to the + branch)."""
    branches = []
    errors = []
    for sign in (1, -1):
        target = MagnitudeTarget.ball(b, dc_sign=sign)
        step = lambda z, t=target: cbdr_step(z, t, background, mask)
        final = lambda z, t=target: project_magnitude_ball(z, t)
        result = _iterate(b, target, background, mask, config, step, final,
                          x_true=x_true, z0=z0)
        branches.append(result)
        errors.append(measurement_error(result.final_estimate, background, mask, b))
    return branches[0] if errors[0] <= errors[1] else branches[1]


def hio_run(b: IntensityMeasurements, mask: SupportMask, config: SolverConfig,
            x_true=None, z0=None) -> SolverRun:
    """Fienup HIO on a bare support constraint (no background values)."""
    target = MagnitudeTarget.equality(b)
    zeros = np.zeros(mask.shape)
    step = lambda z: hio_step(z, target, mask, config.beta)
    final = lambda z: project_magnitude(z, target)
    if z0 is None:
        z0 = _spectral_start(b.root, mask.shape)
    return _iterate(b, target, zeros, mask, config, step, final,
                    x_true=x_true, z0=z0)
