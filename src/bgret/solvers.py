"""Iterative reconstruction methods: five updates on one loop.

With ztilde = P_A(z^{p-1}) the magnitude projection and y the background:

* PGD      z^p = P_B(z^{p-1} - lam*(z^{p-1} - ztilde)); lam=1 is P_B.P_A.
* BDR      ztilde on the support, z^{p-1} - ztilde + y off it: for beta=1
           the operator (R_B R_A + I)/2 applied to z^{p-1}.
* BDR1     the beta-damped background update z^{p-1} - beta*(ztilde - y);
           noise mode, background-consistent fixed points for every beta.
* CBDR     the BDR update with the convex ball projection for P_A, run for
           both DC signs of a real signal; the one with the smaller
           measurement error is kept.
* HIO      the BDR1 update on a bare support, with y = 0.

``run`` is the one entry point. A run starts from the spectral start
z0 = P_B((1/prod m) * Re DFT(b^{1/2})) unless given one (HIO starts from
the unprojected transform), and stops when the step norm ||z^p - z^{p-1}||
is at most eps or at the iteration cap. A non-finite start or step norm
raises DivergenceError: the loop ignores numpy's overflow warnings, so that
is how a solve fails on a non-finite iterate under any warnings filter.

``_iterate`` steps a stack of lanes that share a start and differ in one
parameter, CBDR's DC sign, in lockstep; the other methods run one lane. A
lane stops at its stop test, at the cap, or where CBDR parts it, takes its
last trace row, final projection and ``SolverRun`` there, and leaves the
stack, so each lane gets the bytes of its run alone. When the first CBDR
lane converges below the cap, the other stops at that iteration if its
measurement error is above PART_RATIO times the converged one's, and
reports that iteration, not converged.

The steps take the half root ``b.half_root`` and trust lam and beta, which
``SolverConfig`` checked; the README Conventions give the half grid, the
trace rows and the buffers a step reads and writes.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .metrics import measurement_error, relative_error
from .model import IntensityMeasurements, Method, SolverConfig, SolverRun, SupportMask, l2_norm
from .projections import project_background, project_magnitude, project_magnitude_ball
from .spectral import Workspace


PART_RATIO = 100.0  # CBDR stops a running lane this many times worse than a converged one


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


def pgd_step(z: np.ndarray, half_root: np.ndarray, background: np.ndarray,
             mask: SupportMask, lam: float = 1.0,
             work: Optional[Workspace] = None) -> np.ndarray:
    """Projected gradient step; the subgradient of the magnitude objective is
    z - P_A(z), so lam=1 reduces to the alternating projection P_B(P_A(z)).
    lam is trusted: ``SolverConfig`` checked it."""
    ztilde = project_magnitude(z, half_root, work)
    if lam != 1.0:
        # z - lam * (z - ztilde), formed in the projection's own buffer
        np.subtract(z, ztilde, out=ztilde)
        np.multiply(lam, ztilde, out=ztilde)
        np.subtract(z, ztilde, out=ztilde)
    return project_background(ztilde, background, mask)


def _dr_update(z: np.ndarray, ztilde: np.ndarray, background: np.ndarray,
               mask: SupportMask, beta: float) -> np.ndarray:
    # z - beta * (ztilde - y) off the support, ztilde on it
    update = np.subtract(ztilde, background)
    if beta != 1.0:  # 1.0 * v is v, bit for bit
        np.multiply(beta, update, out=update)
    np.subtract(z, update, out=update)
    block = (...,) + mask.slices
    update[block] = ztilde[block]
    return update


def bdr_step(z: np.ndarray, half_root: np.ndarray, background: np.ndarray,
             mask: SupportMask, beta: float = 1.0,
             work: Optional[Workspace] = None) -> np.ndarray:
    """Background Douglas-Rachford step (beta=1); beta<1 is the relaxed BDR1,
    and on a zero background it is the HIO step. beta is trusted:
    ``SolverConfig`` checked it."""
    return _dr_update(z, project_magnitude(z, half_root, work), background, mask, beta)


def cbdr_step(z: np.ndarray, half_root: np.ndarray, background: np.ndarray,
              mask: SupportMask, dc_sign: int | tuple[int, ...] | None = None,
              work: Optional[Workspace] = None) -> np.ndarray:
    """BDR coordinate update with the convex ball projection, its DC pinned
    to dc_sign * b^{1/2} at DC unless dc_sign is None (a tuple of signs pins
    each lane of a stack)."""
    return _dr_update(z, project_magnitude_ball(z, half_root, dc_sign, work),
                      background, mask, 1.0)


class LaneRuns(tuple):
    """The ``SolverRun`` of each lane of one ``_iterate`` call, in lane order.
    ``iterations_used`` is the sum of the lanes' iterations, the lane-steps
    computed, and ``converged`` holds when every lane converged."""

    @property
    def iterations_used(self) -> int:
        return sum(run.iterations_used for run in self)

    @property
    def converged(self) -> bool:
        return all(run.converged for run in self)


def _iterate(b: IntensityMeasurements, background: np.ndarray,
             mask: SupportMask, config: SolverConfig, step: Callable,
             final_projector: Optional[Callable], x_true=None, z0=None,
             lanes: tuple = (None,), part: bool = False) -> LaneRuns:
    _require_grid(b, mask)
    # one lane per entry of lanes (module docs): step(z, work, params) maps
    # z^{p-1} to a new array z^p, transforming in work, and a lane that stops
    # ends with final_projector(z, work, param) in the grid's own workspace.
    # part parts the lanes at the first convergence below the cap, against
    # the smallest error of the lanes converging there.
    grid_work = Workspace(mask.shape)
    if z0 is None:
        start = project_background(_spectral_start(b, grid_work), background, mask)
    else:
        start = np.array(z0, dtype=float)  # the loop writes into its iterates
    if not np.all(np.isfinite(start)):
        raise DivergenceError("non-finite start")

    stride, eps, max_iter = config.trace_every, config.eps, config.max_iter
    traces = [[] for _ in lanes]
    runs = [None] * len(lanes)
    live = list(range(len(lanes)))  # the lane of each row of the stack

    def stack(rows):
        # one lane steps its grid array with its own lanes entry, so a 1-D
        # grid keeps numpy's 1-D loops, which cost less; more lanes step as
        # the stack (lanes, *grid) with the tuple of their entries
        if len(live) == 1:
            return rows[0], lanes[live[0]], grid_work, False
        return (np.stack(rows), tuple(lanes[lane] for lane in live),
                Workspace(mask.shape, len(live)), True)

    def omega(z):
        return z[mask.slices].reshape(-1)

    def error(z):
        return measurement_error(omega(z), background, mask, b, grid_work)

    def trace_row(lane, z, error_value=None):
        rel = math.nan if x_true is None else relative_error(omega(z), x_true)
        traces[lane].append((rel, error(z) if error_value is None else error_value))

    z, params, work, stacked = stack([start] * len(lanes))
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(1, max_iter + 1):
            z_new = step(z, work, params)
            diff = np.subtract(z_new, z, out=z)  # z^{p-1} is read no more
            z = z_new
            ends = {}  # row: converged, of each lane that stops at p
            for row, lane in enumerate(live):
                step_norm = l2_norm(diff[row] if stacked else diff)
                if not math.isfinite(step_norm):
                    raise DivergenceError(f"non-finite iterate at step {p}")
                if stride and p % stride == 0:
                    trace_row(lane, z[row] if stacked else z)
                if step_norm <= eps or p == max_iter:
                    ends[row] = step_norm <= eps
            if ends:
                rows = z if stacked else (z,)
                errors = {}
                if part and p < max_iter:
                    part = False  # once per run
                    errors = {row: error(rows[row]) for row in range(len(live))}
                    bound = PART_RATIO * min(errors[row] for row in ends)
                    ends.update((row, False) for row in errors
                                if row not in ends and errors[row] > bound)
                for row, converged in ends.items():
                    lane, final = live[row], rows[row]
                    if stride and p % stride:  # its final row, once
                        trace_row(lane, final, errors.get(row))
                    if final_projector is not None:
                        final = final_projector(final, grid_work, lanes[lane])
                    runs[lane] = SolverRun(omega(final), p, traces[lane], converged)
                kept = [row for row in range(len(live)) if row not in ends]
                if not kept:
                    break
                live = [live[row] for row in kept]
                z, params, work, stacked = stack([rows[row] for row in kept])
    return LaneRuns(runs)


def run(b: IntensityMeasurements, background: np.ndarray, mask: SupportMask,
        config: SolverConfig, x_true=None, z0=None) -> SolverRun:
    """Run config.method to the stopping rule ||z^p - z^{p-1}|| <= eps or the
    iteration cap; the returned estimate is the support part of the final
    magnitude-projection output (constraint-feasible at fixed points), except
    for PGD whose iterate is already background-feasible. HIO ignores the
    background: it runs BDR1 on y = 0 from the unprojected spectral start.
    Only trace rows read x_true: a wrong shape or a zero truth raises
    ValueError at the first one."""
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
        step = lambda z, work, _: pgd_step(z, half_root, background, mask, config.lam, work)
        final = None
    else:  # BDR, BDR1 and HIO
        beta = 1.0 if method is Method.BDR else config.beta
        step = lambda z, work, _: bdr_step(z, half_root, background, mask, beta, work)
        final = lambda z, work, _: project_magnitude(z, half_root, work)
    return _iterate(b, background, mask, config, step, final, x_true=x_true, z0=z0)[0]


def cbdr_parallel_real(b: IntensityMeasurements, background: np.ndarray,
                       mask: SupportMask, config: SolverConfig,
                       x_true=None, z0=None) -> SolverRun:
    """Run CBDR with the DC coefficient pinned to +sqrt(b_1) and -sqrt(b_1),
    as two lanes of one lockstep stack; return the lane with the smaller
    measurement error (ties go to the + lane). When the first lane converges,
    the other stops there if its measurement error is above PART_RATIO times
    the converged one's."""
    half_root = b.half_root
    # the half root and the background of both lanes: numpy's loops cost
    # less on operands of one shape than on broadcast ones
    stacked = np.stack([half_root] * 2), np.stack([background] * 2)

    def step(z, work, signs):
        root, y = stacked if z.ndim > half_root.ndim else (half_root, background)
        return cbdr_step(z, root, y, mask, signs, work)

    final = lambda z, work, signs: project_magnitude_ball(z, half_root, signs, work)
    plus, minus = _iterate(b, background, mask, config, step, final, x_true=x_true, z0=z0,
                           lanes=(1, -1), part=True)
    work = Workspace(mask.shape)
    errors = [measurement_error(branch.final_estimate, background, mask, b, work)
              for branch in (plus, minus)]
    return plus if errors[0] <= errors[1] else minus
