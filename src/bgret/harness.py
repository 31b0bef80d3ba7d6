"""Experiment drivers: signal/background generators, measurement noise,
seeded trials, phase-transition sweeps, the 2-D image benchmark (noiseless
at sigma = 0, the noise study at sigma > 0) and the location-bias study. The
theory checks behind ``bgret verify`` live in ``analysis``.

One trial path: ``draw_instance`` turns a sample, its mask and a trial seed
into the background and the measured intensities (``run_trial`` and the CLI's
forward/solve both use it), ``SupportMask.place`` is the placement rule,
``solvers.run`` is the only solver call (untraced, without the ground truth)
and ``metrics.evaluate`` gives every metric column of a row, the fixed-point
residual among them. A trial without
a fixed signal draws the Gaussian one from its seed.

Determinism contract: a sweep is a pure function of (config, master seed),
independent of the worker count. Per-trial seeds are
mix_seed(master_seed, cell_index, trial_index) and the generator substreams
hang off the trial seed (0 signal, 1 background, 2 measurement noise), so any
worker can recompute any trial. Wall-clock columns are the only
nondeterministic output.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import solvers
from .io_formats import (ExperimentConfig, format_float, manifest_now, shape_token,
                         write_lines, write_results)
from .model import (IntensityMeasurements, Method, SolverConfig, SupportMask,
                    _require_count, assemble, background_sizes_for, hermitian_part,
                    object_shape_for)
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
    if n < 1:
        raise ValueError("signal length must be positive")
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
    if sigma <= 0:
        raise ValueError("sigma must be positive")
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
    is sigma * sqrt(prod m).
    """
    if sigma < 0:
        raise ValueError("noise level must be nonnegative")
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
    if n < 8:
        raise ValueError("test image needs n >= 8")
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
    eps: float = 1e-12
    max_iter: int = 300
    beta: float = 0.9
    lam: float = 1.0
    noise_sigma: float = 0.0
    signal: Optional[np.ndarray] = None  # None: the Gaussian signal of the trial seed
    offset: Optional[tuple[int, ...]] = None  # None: SupportMask.place's rule

    @property
    def object_shape(self) -> tuple[int, ...]:
        return object_shape_for(self.sample_shape, self.background_sizes)

    def make_mask(self) -> SupportMask:
        return SupportMask.place(self.object_shape, self.sample_shape, self.offset)


def draw_instance(x: np.ndarray, mask: SupportMask, trial_seed: int,
                  noise_sigma: float) -> tuple[np.ndarray, IntensityMeasurements]:
    """Background (substream STREAM_BACKGROUND) and the intensities of the
    combined object, noisy (substream STREAM_NOISE) when noise_sigma > 0."""
    background = gen_background(
        mask, rng=Xoshiro256StarStar(mix_seed(trial_seed, STREAM_BACKGROUND)))
    b = intensity(assemble(x, background, mask))
    if noise_sigma > 0:
        b = add_noise(b, noise_sigma,
                      rng=Xoshiro256StarStar(mix_seed(trial_seed, STREAM_NOISE)))
    return background, b


def run_trial(spec: TrialSpec) -> dict:
    """Generate the instance from the derived trial seed, solve, and emit one
    result row: its stop_reason and the metric columns of ``evaluate``, the
    fixed-point residual among them. Solver aborts become failed rows
    (stop_reason "diverged", residual NaN), not crashes."""
    trial_seed = mix_seed(spec.master_seed, spec.cell_id, spec.trial_index)
    mask = spec.make_mask()
    n_total = int(np.prod(spec.sample_shape))

    if spec.signal is not None:
        x = np.asarray(spec.signal, dtype=float).reshape(-1)
        if x.size != n_total:
            raise ValueError("fixed signal does not match the sample shape")
    else:
        x = gen_signal(SIGNAL_GAUSSIAN, n_total,
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
    import os
    if requested is None:
        requested = os.environ.get("BGRET_WORKERS") or 1
    workers = int(requested)
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    return workers


def run_trials(specs: Sequence[TrialSpec], workers: int = 1) -> list[dict]:
    """Execute trials; output order follows the input order for any worker count."""
    if workers <= 1 or len(specs) <= 1:
        return [run_trial(s) for s in specs]
    chunk = max(1, len(specs) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_trial, specs, chunksize=chunk))


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


def sweep_specs(config: ExperimentConfig, ratios: Sequence[float],
                signal_values: Optional[np.ndarray] = None) -> list[TrialSpec]:
    fixed = None  # a Gaussian sweep draws each trial's signal from its seed
    if config.signal_type != SIGNAL_GAUSSIAN:
        fixed = gen_signal(config.signal_type, math.prod(config.n), values=signal_values)
    specs = []
    for cell_id, ratio in enumerate(ratios):
        k = background_sizes_for(ratio, config.n)
        for trial in range(config.trials):
            specs.append(TrialSpec(
                master_seed=config.seed, cell_id=cell_id, trial_index=trial,
                method=config.method, sample_shape=config.n, background_sizes=k,
                eps=config.eps, max_iter=config.max_iter, beta=config.beta,
                lam=config.lam, noise_sigma=config.noise_sigma, signal=fixed))
    return specs


def sweep_phase_transition(config: ExperimentConfig, ratios: Sequence[float],
                           signal_values: Optional[np.ndarray] = None,
                           workers: int = 1) -> SweepGrid:
    ratios = tuple(float(r) for r in ratios)
    specs = sweep_specs(config, ratios, signal_values)
    rows = run_trials(specs, workers=workers)

    cells = []
    per_cell = config.trials
    for cell_id, ratio in enumerate(ratios):
        cell_rows = rows[cell_id * per_cell:(cell_id + 1) * per_cell]
        cells.append(CellSummary(
            k=specs[cell_id * per_cell].background_sizes, ratio=ratio, trials=per_cell,
            successes=sum(1 for r in cell_rows if r["success"]),
            aborted=sum(1 for r in cell_rows if r.get("aborted"))))
    return SweepGrid(config.n, tuple(cells), tuple(rows))


def write_sweep_outputs(out_dir, grid: SweepGrid, config: ExperimentConfig,
                        version: str) -> None:
    """trials.csv (+ manifest) with the fixed result header, rates.csv with the
    per-cell aggregates, transitions.csv with the 90%/99% crossing ratios."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = shape_token(grid.sample_shape)
    manifest = manifest_now(version, config.seed, config.echo(),
                            extra={"ratios": [format_float(c.ratio) for c in grid.cells],
                                   "n_values": list(grid.sample_shape)})
    write_results(out / "trials.csv", list(grid.rows), manifest)
    write_lines(out / "rates.csv", ["n,k,k_ratio,trials,successes,aborted,rate,stderr", *(
        ",".join([n, shape_token(c.k), format_float(c.ratio), str(c.trials),
                  str(c.successes), str(c.aborted), format_float(c.rate),
                  format_float(c.stderr)]) for c in grid.cells)])
    token = lambda t: "" if t is None else format_float(t)
    write_lines(out / "transitions.csv", ["n,ratio_rate90,ratio_rate99", ",".join(
        [n, token(grid.transition(0.90)), token(grid.transition(0.99))])])


# -- 2-D studies ----------------------------------------------------------------

def _image_specs(image: np.ndarray, k_ratio: float, methods: Sequence[Method],
                 trials: int, seed: int, max_iter: int, noise_sigma: float = 0.0,
                 offset: Optional[tuple[int, ...]] = None,
                 cell_id: int = 0) -> list[TrialSpec]:
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("image benchmarks need 2-D data")
    n = image.shape
    k = background_sizes_for(k_ratio, n)
    specs = []
    for trial in range(trials):
        for method in methods:
            specs.append(TrialSpec(
                master_seed=seed, cell_id=cell_id, trial_index=trial,
                method=Method.parse(method), sample_shape=n, background_sizes=k,
                max_iter=max_iter, noise_sigma=noise_sigma, signal=image.reshape(-1),
                offset=offset))
    return specs


def _method_summary(rows: list[dict], methods: Sequence[Method]) -> dict:
    out = {}
    for method in methods:
        m = Method.parse(method).value
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
                        max_iter: int = 300, workers: int = 1) -> dict:
    """Mean PSNR/SSIM/relative error per support offset. Every offset is
    computed in full; position symmetry is never used as a shortcut."""
    _require_count("positions", len(offsets))
    _require_count("trials", trials)
    specs = []
    for cell_id, offset in enumerate(offsets):
        cell = _image_specs(image, k_ratio, [method], trials, seed, max_iter,
                            offset=tuple(int(v) for v in offset), cell_id=cell_id)
        cell[0].make_mask()  # the offset must fit the trials' own grid
        specs.extend(cell)
    rows = run_trials(specs, workers=workers)
    positions = []
    for cell_id, offset in enumerate(offsets):
        sub = rows[cell_id * trials:(cell_id + 1) * trials]
        ok = [r for r in sub if not r.get("aborted")]
        positions.append({
            "offset": list(offsets[cell_id]),
            "trials": len(sub),
            "mean_psnr": float(np.mean([r["psnr"] for r in ok])) if ok else math.nan,
            "mean_ssim": float(np.mean([r["ssim"] for r in ok])) if ok else math.nan,
            "mean_relative_error":
                float(np.mean([r["relative_error"] for r in ok])) if ok else math.inf,
        })
    return {"rows": rows, "positions": positions}


def noise_benchmark(image: np.ndarray, sigma: float, k_ratio: float, trials: int,
                    methods: Sequence[Method] = (Method.PGD, Method.BDR, Method.BDR1),
                    seed: int = 0, max_iter: int = 300, workers: int = 1) -> dict:
    """The 2-D benchmark: repeated recovery of one centered image over random
    backgrounds, with measurement noise of level sigma (none at sigma = 0).
    Per trial all methods share the same background and noise draw, so rows
    pair exactly. Per method the summary gives the median and 25/75
    quantiles of PSNR/SSIM plus timing; ``pairwise_wins`` counts the trials
    where one method's relative error is below another's."""
    _require_count("trials", trials)
    specs = _image_specs(image, k_ratio, methods, trials, seed, max_iter,
                         noise_sigma=sigma)
    rows = run_trials(specs, workers=workers)
    summary = _method_summary(rows, methods)
    per_trial = {}
    for r in rows:
        per_trial.setdefault(r["trial"], {})[r["method"]] = r
    pairwise = {}
    names = [Method.parse(m).value for m in methods]
    for a in names:
        for b_ in names:
            if a == b_:
                continue
            wins = sum(1 for t in per_trial.values()
                       if t[a]["relative_error"] < t[b_]["relative_error"])
            pairwise[f"{a}<{b_}"] = wins
    return {"rows": rows, "summary": summary, "pairwise_wins": pairwise}
