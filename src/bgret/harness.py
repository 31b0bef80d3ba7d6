"""Experiment drivers: signal/background generators, measurement noise,
seeded trials, phase-transition sweeps, the 2-D image benchmark (noiseless
at sigma = 0, the noise study at sigma > 0) and the location-bias study. The
theory checks behind ``bgret verify`` live in ``analysis``.

One trial path: ``draw_instance`` turns a sample, its mask and a trial seed
into the background and the measured intensities (``run_trial`` and the CLI's
forward/solve both use it; the process holds the last instance, so the
methods of one noise-study trial share one draw), ``SupportMask.place`` is
the placement rule, ``solvers.run`` is the only solver call (untraced,
without the ground truth)
and ``metrics.evaluate`` gives every metric column of a row, the fixed-point
residual among them. A trial without a fixed signal draws the Gaussian one
from its seed. ``run_cells`` is the one trial dispatcher: a study is a list
of cells, each the specs it summarises together, and gets each cell's rows
back in order.

Determinism contract: a sweep is a pure function of (config, master seed),
independent of the worker count. Per-trial seeds are
mix_seed(master_seed, cell_index, trial_index) and the generator substreams
hang off the trial seed (0 signal, 1 background, 2 measurement noise), so any
worker can recompute any trial. Wall-clock columns are the only
nondeterministic output.
"""

from __future__ import annotations

import math
import os
import time
# concurrent.futures imports its process pool (2 MB resident) on the first
# access to futures.ProcessPoolExecutor, so a one-worker process never loads it
from concurrent import futures
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import solvers
from .io_formats import (ExperimentConfig, format_float, manifest_now, parse_int,
                         shape_token, write_lines, write_results)
from .model import (IntensityMeasurements, Method, SolverConfig, SupportMask, assemble,
                    background_sizes_for, hermitian_part, object_shape_for, require_count,
                    require_level)
from .rng import Xoshiro256StarStar, mix_seed
from .spectral import intensity
from .metrics import evaluate

SIGNAL_GAUSSIAN = 1
SIGNAL_HARMONIC = 2
SIGNAL_CSV = 3

#: Substream indices off a trial seed.
STREAM_SIGNAL, STREAM_BACKGROUND, STREAM_NOISE = 0, 1, 2


def harmonic_signal(n: int) -> np.ndarray:
    """Two-component frequency-modulated cosine sampled on (0, 1)."""
    t = (np.arange(n) + 1.0) / (n + 1.0)
    return (np.cos(39.2 * np.pi * t - 12.0 * np.sin(2.0 * np.pi * t))
            + np.cos(85.4 * np.pi * t + 12.0 * np.sin(2.0 * np.pi * t)))


def gen_signal(signal_type: int, n: int, rng: Optional[Xoshiro256StarStar] = None,
               values: Optional[np.ndarray] = None) -> np.ndarray:
    """Type 1: iid standard normal; type 2: the harmonic test signal;
    type 3: caller-supplied values (loaded from CSV)."""
    require_count("signal length", n)
    if signal_type == SIGNAL_GAUSSIAN:
        if rng is None:
            raise ValueError("signal type 1 needs an rng")
        return rng.normal(n)
    if signal_type == SIGNAL_HARMONIC:
        return harmonic_signal(n)
    if signal_type == SIGNAL_CSV:
        if values is None:
            raise ValueError("signal type 3 needs loaded values (paths.signal)")
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size != n:
            raise ValueError(f"loaded signal has {values.size} entries, expected {n}")
        return values.copy()
    raise ValueError(f"unknown signal type {signal_type}")


def gen_background(mask: SupportMask, mu: float = 0.0, sigma: float = 1.0, *,
                   rng: Xoshiro256StarStar) -> np.ndarray:
    """iid N(mu, sigma^2) off the support, exactly zero on it.

    One normal is drawn per grid cell in row-major order and the support
    cells are then zeroed, so the stream layout is shape-only.
    """
    if not (math.isfinite(mu) and 0 < sigma < math.inf):
        raise ValueError(f"the background needs a finite mu and a finite positive sigma, "
                         f"got mu={mu!r}, sigma={sigma!r}")
    values = rng.normal(int(np.prod(mask.shape)), mu, sigma).reshape(mask.shape)
    values[mask.inside] = 0.0
    return values


def add_noise(b: IntensityMeasurements, sigma: float,
              rng: Xoshiro256StarStar) -> IntensityMeasurements:
    """Perturb the root intensities with symmetrized Gaussian noise and
    re-square: sqrt(b) <- max(0, sqrt(b) + eps). Mirror-averaging eps keeps
    the measurements consistent with a real object.

    sigma is quoted in the unitary-transform scale, where published noise
    levels such as 0.001 are meaningful fractions of the signal; under the
    unnormalized forward transform used here the applied standard deviation
    is sigma * sqrt(prod m). sigma is a level of at least 0.
    """
    require_level("noise level", sigma, zero=True)
    if sigma == 0.0:
        return b
    grid = int(np.prod(b.shape))
    eps = rng.normal(grid, 0.0, sigma * math.sqrt(grid)).reshape(b.shape)
    eps = hermitian_part(eps)
    root = np.maximum(0.0, b.root + eps)
    return IntensityMeasurements(root * root, conj_symmetric=True)


def synthetic_test_image(n: int = 64) -> np.ndarray:
    """Deterministic structured stand-in for the photographic test images:
    illumination gradient, bright disc, dark rectangle, sinusoidal texture."""
    require_count("test image size", n, 8)
    yy, xx = np.mgrid[0:n, 0:n] / (n - 1.0)
    img = 0.35 + 0.30 * xx + 0.15 * yy
    img[(yy - 0.35) ** 2 + (xx - 0.30) ** 2 < 0.04] = 0.90
    img[int(0.55 * n):int(0.80 * n), int(0.55 * n):int(0.85 * n)] = 0.15
    band = slice(int(0.10 * n), int(0.30 * n))
    img[band, :] = img[band, :] + 0.08 * np.sin(12.0 * np.pi * xx[band, :])
    return np.clip(img, 0.0, 1.0)


# -- trials -------------------------------------------------------------------

@dataclass(frozen=True)
class TrialSpec:
    """Everything one worker needs to reproduce one trial."""

    master_seed: int
    cell_id: int
    trial_index: int
    method: Method
    sample_shape: tuple[int, ...]
    background_sizes: tuple[int, ...]
    eps: float = SolverConfig.eps
    max_iter: int = SolverConfig.max_iter
    beta: float = SolverConfig.beta
    lam: float = SolverConfig.lam
    noise_sigma: float = 0.0
    signal: Optional[np.ndarray] = None  # None: the Gaussian signal of the trial seed
    offset: Optional[tuple[int, ...]] = None  # None: SupportMask.place's rule

    @property
    def object_shape(self) -> tuple[int, ...]:
        return object_shape_for(self.sample_shape, self.background_sizes)

    def make_mask(self) -> SupportMask:
        return SupportMask.place(self.object_shape, self.sample_shape, self.offset)


#: The last instance ``draw_instance`` drew in this process, as
#: (key, signal, background, b), or None.
_held: Optional[tuple] = None


def draw_instance(x: np.ndarray, mask: SupportMask, trial_seed: int,
                  noise_sigma: float) -> tuple[np.ndarray, IntensityMeasurements]:
    """Background (substream STREAM_BACKGROUND) and the intensities of the
    combined object, noisy (substream STREAM_NOISE) when noise_sigma is not
    0; ``add_noise`` rejects a level that is negative or not finite.

    The background is read-only. The process holds the last instance drawn
    and returns it again, the same objects, for the same trial seed, grid,
    support, noise level and signal values: the methods of a noise-study
    trial solve one draw. A different instance releases the held one before
    it is drawn."""
    global _held
    x = np.asarray(x)
    key = (trial_seed, mask.shape, mask.slices, noise_sigma)
    if _held is not None and _held[0] == key and np.array_equal(_held[1], x):
        return _held[2], _held[3]
    _held = None
    background = gen_background(
        mask, rng=Xoshiro256StarStar(mix_seed(trial_seed, STREAM_BACKGROUND)))
    background.setflags(write=False)
    b = intensity(assemble(x, background, mask))
    if noise_sigma != 0:
        b = add_noise(b, noise_sigma,
                      rng=Xoshiro256StarStar(mix_seed(trial_seed, STREAM_NOISE)))
    _held = (key, x.copy(), background, b)
    return background, b


def run_trial(spec: TrialSpec) -> dict:
    """Generate the instance from the derived trial seed, solve, and emit one
    result row: its stop_reason and the metric columns of ``evaluate``, the
    fixed-point residual among them. Solver aborts become failed rows
    (stop_reason "diverged", residual NaN), not crashes."""
    trial_seed = mix_seed(spec.master_seed, spec.cell_id, spec.trial_index)
    mask = spec.make_mask()
    if spec.signal is not None:  # assemble checks its size
        x = np.asarray(spec.signal, dtype=float).reshape(-1)
    else:
        x = gen_signal(SIGNAL_GAUSSIAN, mask.sample_count,
                       rng=Xoshiro256StarStar(mix_seed(trial_seed, STREAM_SIGNAL)))
    background, b = draw_instance(x, mask, trial_seed, spec.noise_sigma)

    config = SolverConfig(method=spec.method, eps=spec.eps, max_iter=spec.max_iter,
                          beta=spec.beta, lam=spec.lam)
    start = time.perf_counter()
    aborted = False
    try:
        result = solvers.run(b, background, mask, config)
    except solvers.DivergenceError:
        aborted = True
    wall_ms = (time.perf_counter() - start) * 1e3

    row = {
        "trial": spec.trial_index,
        "seed": trial_seed,
        "method": spec.method.value,
        "n": shape_token(spec.sample_shape),
        "k": shape_token(spec.background_sizes),
        "wall_ms": wall_ms,
    }
    if aborted:
        row.update(iterations=0, relative_error=math.inf, measurement_error=math.inf,
                   psnr=math.nan, ssim=math.nan, success=False, converged=False,
                   aborted=True, stop_reason="diverged", fixedpoint_resid=math.nan)
        return row
    row.update(evaluate(result.final_estimate, x, background, mask, b),
               iterations=result.iterations_used, converged=result.converged,
               aborted=False, stop_reason="converged" if result.converged else "max_iter")
    return row


def resolve_workers(requested: Optional[int] = None) -> int:
    """``requested``, else BGRET_WORKERS read by ``parse_int``, else 1."""
    if requested is None:
        try:
            return resolve_workers(parse_int(os.environ.get("BGRET_WORKERS") or "1"))
        except ValueError as exc:
            raise ValueError(f"BGRET_WORKERS: {exc}") from None
    return require_count("worker count", requested)


def run_cells(cells: Sequence[Sequence[TrialSpec]], workers: int = 1) -> list[list[dict]]:
    """The one trial dispatcher: each cell's rows, in cell and spec order, for
    any worker count. Every row is one ``run_trial`` call; the cells' specs
    share one process pool, created here."""
    specs = [spec for cell in cells for spec in cell]
    if workers <= 1 or len(specs) <= 1:
        rows = iter([run_trial(s) for s in specs])
    else:
        chunk = max(1, len(specs) // (workers * 8))
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = iter(list(pool.map(run_trial, specs, chunksize=chunk)))
    return [list(islice(rows, len(cell))) for cell in cells]


def run_trials(specs: Sequence[TrialSpec], workers: int = 1) -> list[dict]:
    """``run_cells`` with one cell: the rows in input order."""
    return run_cells([specs], workers)[0]


# -- phase transition sweep -----------------------------------------------------

@dataclass(frozen=True)
class CellSummary:
    k: tuple[int, ...]
    ratio: float
    trials: int
    successes: int
    aborted: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def stderr(self) -> float:
        p = self.rate
        return math.sqrt(p * (1.0 - p) / self.trials)


@dataclass(frozen=True)
class SweepGrid:
    sample_shape: tuple[int, ...]
    cells: tuple[CellSummary, ...]
    rows: tuple[dict, ...]

    def cell(self, ratio: float) -> CellSummary:
        for c in self.cells:
            if abs(c.ratio - ratio) < 1e-12:
                return c
        raise KeyError(f"no cell at ratio {ratio}")

    def transition(self, level: float) -> Optional[float]:
        """Smallest k/n whose recovery rate reaches `level`."""
        for c in sorted(self.cells, key=lambda c: c.ratio):
            if c.rate >= level:
                return c.ratio
        return None


def sweep_cells(config: ExperimentConfig, ratios: Sequence[float],
                signal_values: Optional[np.ndarray] = None) -> list[list[TrialSpec]]:
    """One cell per ratio: its config.trials trials, cell id the ratio's index."""
    fixed = None  # a Gaussian sweep draws each trial's signal from its seed
    if config.signal_type != SIGNAL_GAUSSIAN:
        fixed = gen_signal(config.signal_type, math.prod(config.n), values=signal_values)
    return [[TrialSpec(master_seed=config.seed, cell_id=cell_id, trial_index=trial,
                       method=config.method, sample_shape=config.n, background_sizes=k,
                       eps=config.eps, max_iter=config.max_iter, beta=config.beta,
                       lam=config.lam, noise_sigma=config.noise_sigma, signal=fixed)
             for trial in range(config.trials)]
            for cell_id, k in enumerate(background_sizes_for(r, config.n) for r in ratios)]


def sweep_specs(config: ExperimentConfig, ratios: Sequence[float],
                signal_values: Optional[np.ndarray] = None) -> list[TrialSpec]:
    """The sweep's specs in run order: its cells, flattened."""
    return [spec for cell in sweep_cells(config, ratios, signal_values) for spec in cell]


def sweep_phase_transition(config: ExperimentConfig, ratios: Sequence[float],
                           signal_values: Optional[np.ndarray] = None,
                           workers: int = 1) -> SweepGrid:
    ratios = tuple(float(r) for r in ratios)
    cells = sweep_cells(config, ratios, signal_values)
    cell_rows = run_cells(cells, workers)
    summaries = tuple(CellSummary(
        k=cell[0].background_sizes, ratio=ratio, trials=len(rows),
        successes=sum(1 for r in rows if r["success"]),
        aborted=sum(1 for r in rows if r.get("aborted")))
        for ratio, cell, rows in zip(ratios, cells, cell_rows))
    return SweepGrid(config.n, summaries, tuple(r for rows in cell_rows for r in rows))


def write_sweep_outputs(out_dir, grid: SweepGrid, config: ExperimentConfig,
                        version: str) -> None:
    """trials.csv (+ manifest) with the fixed result header, rates.csv with the
    per-cell aggregates, transitions.csv with the 90%/99% crossing ratios."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = shape_token(grid.sample_shape)
    manifest = manifest_now(version, config.seed, config.echo(),
                            extra={"ratios": [format_float(c.ratio) for c in grid.cells]})
    write_results(out / "trials.csv", list(grid.rows), manifest)
    write_lines(out / "rates.csv", ["n,k,k_ratio,trials,successes,aborted,rate,stderr", *(
        ",".join([n, shape_token(c.k), format_float(c.ratio), str(c.trials),
                  str(c.successes), str(c.aborted), format_float(c.rate),
                  format_float(c.stderr)]) for c in grid.cells)])
    token = lambda t: "" if t is None else format_float(t)
    write_lines(out / "transitions.csv", ["n,ratio_rate90,ratio_rate99", ",".join(
        [n, token(grid.transition(0.90)), token(grid.transition(0.99))])])


# -- 2-D studies ----------------------------------------------------------------

def _image_fields(image: np.ndarray, k_ratio: float) -> dict:
    """The TrialSpec fields a 2-D study's specs share: the image as the fixed
    signal, its shape and the background that k_ratio gives it."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("image benchmarks need 2-D data")
    return {"sample_shape": image.shape, "signal": image.reshape(-1),
            "background_sizes": background_sizes_for(k_ratio, image.shape)}


def _method_summary(rows: list[dict], names: Sequence[str]) -> dict:
    out = {}
    for m in names:
        sub = [r for r in rows if r["method"] == m and not r.get("aborted")]
        if not sub:
            out[m] = {"trials": 0}
            continue
        q = lambda key, p: float(np.percentile([r[key] for r in sub], p))
        out[m] = {
            "trials": len(sub),
            "median_psnr": q("psnr", 50), "psnr_q25": q("psnr", 25), "psnr_q75": q("psnr", 75),
            "median_ssim": q("ssim", 50), "ssim_q25": q("ssim", 25), "ssim_q75": q("ssim", 75),
            "median_relative_error": q("relative_error", 50),
            "mean_wall_ms": float(np.mean([r["wall_ms"] for r in sub])),
        }
    return out


def default_bias_offsets(sample_shape: Sequence[int], k_ratio: float,
                         count: int = 17) -> list[tuple[int, ...]]:
    """Diagonal path of top-left offsets from the corner to the center of the
    object grid that k_ratio gives the sample."""
    k = background_sizes_for(k_ratio, sample_shape)
    center = SupportMask.centered(object_shape_for(sample_shape, k), sample_shape).offset
    offsets = []
    for i in range(count):
        frac = i / (count - 1) if count > 1 else 1.0
        pos = tuple(int(round(frac * c)) for c in center)
        if not offsets or pos != offsets[-1]:
            offsets.append(pos)
    return offsets


def location_bias_study(image: np.ndarray, k_ratio: float,
                        offsets: Sequence[tuple[int, ...]], trials: int,
                        method: Method = Method.BDR, seed: int = 0,
                        max_iter: int = SolverConfig.max_iter, workers: int = 1) -> dict:
    """Mean PSNR/SSIM/relative error per support offset. Every offset is
    computed in full; position symmetry is never used as a shortcut."""
    require_count("positions", len(offsets))
    require_count("trials", trials)
    fields, method = _image_fields(image, k_ratio), Method.parse(method)
    cells = [[TrialSpec(master_seed=seed, cell_id=cell_id, trial_index=trial, method=method,
                        max_iter=max_iter, offset=tuple(int(v) for v in offset), **fields)
              for trial in range(trials)]
             for cell_id, offset in enumerate(offsets)]
    for cell in cells:
        cell[0].make_mask()  # the offset must fit the trials' own grid
    rows, positions = [], []
    for offset, cell_rows in zip(offsets, run_cells(cells, workers)):
        ok = [r for r in cell_rows if not r.get("aborted")]
        mean = lambda key, empty: float(np.mean([r[key] for r in ok])) if ok else empty
        positions.append({"offset": list(offset), "trials": len(cell_rows),
                          "mean_psnr": mean("psnr", math.nan),
                          "mean_ssim": mean("ssim", math.nan),
                          "mean_relative_error": mean("relative_error", math.inf)})
        rows.extend(cell_rows)
    return {"rows": rows, "positions": positions}


def noise_benchmark(image: np.ndarray, sigma: float, k_ratio: float, trials: int,
                    methods: Sequence[Method] = (Method.PGD, Method.BDR, Method.BDR1),
                    seed: int = 0, max_iter: int = SolverConfig.max_iter,
                    workers: int = 1) -> dict:
    """The 2-D benchmark: repeated recovery of one centered image over random
    backgrounds, with measurement noise of level sigma (none at sigma = 0).
    Per trial all methods share the same background and noise draw, so rows
    pair exactly. Per method the summary gives the median and 25/75
    quantiles of PSNR/SSIM plus timing; ``pairwise_wins`` counts the trials
    where one method's relative error is below another's."""
    require_count("trials", trials)
    fields = _image_fields(image, k_ratio)
    methods = [Method.parse(m) for m in methods]
    # one cell per trial: its methods, which share the trial's instance
    cells = [[TrialSpec(master_seed=seed, cell_id=0, trial_index=trial, method=method,
                        max_iter=max_iter, noise_sigma=sigma, **fields)
              for method in methods]
             for trial in range(trials)]
    cell_rows = run_cells(cells, workers)
    rows = [r for cell in cell_rows for r in cell]
    errors = [{r["method"]: r["relative_error"] for r in cell} for cell in cell_rows]
    names = [m.value for m in methods]
    pairwise = {f"{a}<{b}": sum(1 for e in errors if e[a] < e[b])
                for a in names for b in names if a != b}
    return {"rows": rows, "summary": _method_summary(rows, names), "pairwise_wins": pairwise}
