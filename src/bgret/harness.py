"""Experiment drivers: signal/background generators, measurement noise,
seeded trials, phase-transition sweeps, 2-D image benchmarks, location-bias
and noise-robustness studies. The theory checks behind ``bgret verify`` live
in ``analysis``.

One trial path: ``draw_instance`` turns a sample, its mask and a trial seed
into the background and the measured intensities (``run_trial`` and the CLI's
forward/solve both use it), ``SupportMask.place`` is the placement rule and
``solvers.run`` is the only solver call.

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
from typing import Optional, Sequence

import numpy as np

from . import solvers
from .io_formats import ExperimentConfig, manifest_now, shape_token, write_results
from .model import (IntensityMeasurements, Method, SolverConfig, SupportMask,
                    _require_count, assemble, background_sizes_for, mirror_index)
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
    eps = 0.5 * (eps + mirror_index(eps))
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
    signal_type: int = SIGNAL_GAUSSIAN
    signal: Optional[np.ndarray] = None
    offset: Optional[tuple[int, ...]] = None  # None: corner in 1-D, centered in 2-D

    @property
    def object_shape(self) -> tuple[int, ...]:
        return tuple(n + k for n, k in zip(self.sample_shape, self.background_sizes))

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
    result row. Solver aborts become failed rows, not crashes."""
    trial_seed = mix_seed(spec.master_seed, spec.cell_id, spec.trial_index)
    mask = spec.make_mask()
    n_total = int(np.prod(spec.sample_shape))

    if spec.signal is not None:
        x = np.asarray(spec.signal, dtype=float).reshape(-1)
        if x.size != n_total:
            raise ValueError("fixed signal does not match the sample shape")
    else:
        x = gen_signal(spec.signal_type, n_total,
                       rng=Xoshiro256StarStar(mix_seed(trial_seed, STREAM_SIGNAL)))
    background, b = draw_instance(x, mask, trial_seed, spec.noise_sigma)

    config = SolverConfig(method=spec.method, eps=spec.eps, max_iter=spec.max_iter,
                          beta=spec.beta, lam=spec.lam)
    image_shape = spec.sample_shape if len(spec.sample_shape) == 2 else None
    start = time.perf_counter()
    aborted = False
    try:
        result = solvers.run(b, background, mask, config, x_true=x)
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
                   aborted=True)
        return row
    report = evaluate(result.final_estimate, x, background, mask, b,
                      image_shape=image_shape)
    # sup-norm intensity residual of P_B applied to the final point, scaled by
    # max(b): the fixed-point consistency quantity
    z_bar = assemble(result.final_estimate, background, mask)
    resid = float(np.max(np.abs(intensity(z_bar).values - b.values)))
    resid /= max(float(np.max(b.values)), np.finfo(float).tiny)
    row.update(iterations=result.iterations_used,
               relative_error=report.relative_error,
               measurement_error=report.measurement_error,
               psnr=report.psnr_db, ssim=report.ssim, success=report.success,
               converged=result.converged, aborted=False, fixedpoint_resid=resid)
    return row


def resolve_workers(requested: Optional[int] = None) -> int:
    import os
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("BGRET_WORKERS")
    return max(1, int(env)) if env else 1


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
    n: int
    k: int
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
    n_values: tuple[int, ...]
    ratios: tuple[float, ...]
    trials_per_cell: int
    cells: tuple[CellSummary, ...]
    rows: tuple[dict, ...]

    def cell(self, n: int, ratio: float) -> CellSummary:
        for c in self.cells:
            if c.n == n and abs(c.ratio - ratio) < 1e-12:
                return c
        raise KeyError(f"no cell (n={n}, ratio={ratio})")

    def transition(self, n: int, level: float) -> Optional[float]:
        """Smallest k/n whose recovery rate reaches `level` for this n."""
        for c in sorted((c for c in self.cells if c.n == n), key=lambda c: c.ratio):
            if c.rate >= level:
                return c.ratio
        return None


def sweep_specs(config: ExperimentConfig, ratios: Sequence[float],
                n_values: Optional[Sequence[int]] = None,
                signal_values: Optional[np.ndarray] = None) -> list[TrialSpec]:
    if len(config.n) != 1:
        raise ValueError("phase-transition sweeps are 1-D")
    n_values = [config.n[0]] if n_values is None else [int(v) for v in n_values]
    specs = []
    fixed = None
    for cell_id, (n, ratio) in enumerate((n, r) for n in n_values for r in ratios):
        k = background_sizes_for(ratio, (n,))
        if config.signal_type != SIGNAL_GAUSSIAN:
            fixed = gen_signal(config.signal_type, n, values=signal_values) \
                if config.signal_type == SIGNAL_CSV else harmonic_signal(n)
        for trial in range(config.trials):
            specs.append(TrialSpec(
                master_seed=config.seed, cell_id=cell_id, trial_index=trial,
                method=config.method, sample_shape=(n,), background_sizes=k,
                eps=config.eps, max_iter=config.max_iter, beta=config.beta,
                lam=config.lam, noise_sigma=config.noise_sigma,
                signal_type=config.signal_type, signal=fixed))
    return specs


def sweep_phase_transition(config: ExperimentConfig, ratios: Sequence[float],
                           n_values: Optional[Sequence[int]] = None,
                           signal_values: Optional[np.ndarray] = None,
                           workers: int = 1) -> SweepGrid:
    ratios = tuple(float(r) for r in ratios)
    n_values = tuple([config.n[0]] if n_values is None else (int(v) for v in n_values))
    specs = sweep_specs(config, ratios, n_values, signal_values)
    rows = run_trials(specs, workers=workers)

    cells = []
    per_cell = config.trials
    for cell_id, (n, ratio) in enumerate((n, r) for n in n_values for r in ratios):
        cell_rows = rows[cell_id * per_cell:(cell_id + 1) * per_cell]
        cells.append(CellSummary(
            n=n, k=specs[cell_id * per_cell].background_sizes[0], ratio=ratio, trials=per_cell,
            successes=sum(1 for r in cell_rows if r["success"]),
            aborted=sum(1 for r in cell_rows if r.get("aborted"))))
    return SweepGrid(n_values, ratios, per_cell, tuple(cells), tuple(rows))


def write_sweep_outputs(out_dir, grid: SweepGrid, config: ExperimentConfig,
                        version: str) -> None:
    """trials.csv (+ manifest) with the fixed result header, rates.csv with the
    per-cell aggregates, transitions.csv with the 90%/99% crossing ratios."""
    from pathlib import Path
    from .io_formats import format_float
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = manifest_now(version, config.seed, config.echo(),
                            extra={"ratios": [format_float(r) for r in grid.ratios],
                                   "n_values": list(grid.n_values)})
    write_results(out / "trials.csv", list(grid.rows), manifest)
    with open(out / "rates.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,k,k_ratio,trials,successes,aborted,rate,stderr\n")
        for c in grid.cells:
            fh.write(",".join([str(c.n), str(c.k), format_float(c.ratio),
                               str(c.trials), str(c.successes), str(c.aborted),
                               format_float(c.rate), format_float(c.stderr)]) + "\n")
    with open(out / "transitions.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,ratio_rate90,ratio_rate99\n")
        for n in grid.n_values:
            t90, t99 = grid.transition(n, 0.90), grid.transition(n, 0.99)
            token = lambda t: "" if t is None else format_float(t)
            fh.write(f"{n},{token(t90)},{token(t99)}\n")


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


def image_benchmark(image: np.ndarray, k_ratio: float, num_backgrounds: int,
                    methods: Sequence[Method] = (Method.PGD, Method.BDR),
                    seed: int = 0, max_iter: int = 300, workers: int = 1) -> dict:
    """Repeat recovery of one centered image over random backgrounds; per
    method report the median and 25/75 quantiles of PSNR/SSIM plus timing.
    The background stream depends only on the trial index, so methods see
    identical instances."""
    _require_count("num_backgrounds", num_backgrounds)
    specs = _image_specs(image, k_ratio, methods, num_backgrounds, seed, max_iter)
    rows = run_trials(specs, workers=workers)
    return {"rows": rows, "summary": _method_summary(rows, methods),
            "k_ratio": k_ratio, "num_backgrounds": num_backgrounds}


def default_bias_offsets(object_shape: Sequence[int], sample_shape: Sequence[int],
                         count: int = 17) -> list[tuple[int, ...]]:
    """Diagonal path of top-left offsets from the corner to the center."""
    center = tuple((m - n) // 2 for m, n in zip(object_shape, sample_shape))
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
    image = np.asarray(image, dtype=float)
    n = image.shape
    k = background_sizes_for(k_ratio, n)
    object_shape = tuple(ni + ki for ni, ki in zip(n, k))
    specs = []
    for cell_id, offset in enumerate(offsets):
        offset = tuple(int(v) for v in offset)
        SupportMask.block(object_shape, n, offset)  # validates range
        specs.extend(_image_specs(image, k_ratio, [method], trials, seed, max_iter,
                                  offset=offset, cell_id=cell_id))
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
    """Noisy-measurement comparison; per trial all methods share the same
    background and noise draw, so rows pair exactly."""
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
    return {"rows": rows, "summary": summary, "pairwise_wins": pairwise,
            "sigma": sigma, "trials": trials}
