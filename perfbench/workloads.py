"""The benchmark's workloads: seeded inputs for the public bgret harness.

Each workload runs in rounds. A round is one call into a public harness
driver with inputs made from (seed, round index), followed by the output
write the paper's experiments do. The program sees only the generated
configs and TrialSpecs, never the benchmark seed itself.

Why these three (see also BENCHMARK.json):

* sweep_1d  - many short 1-D trials (n=100, grids of 300-400 points, about
  50 ms each). Per-call Python overhead, array re-validation and the
  per-iteration trace dominate; RNG and FFT arithmetic are negligible. It is
  the plain single-threaded baseline. Batching and an opt-in trace should
  show here; real FFTs and lane RNG should not.
* noise_2d  - few long 2-D trials (64x64 sample on a 256x256 grid, about
  2-3 s each). FFT arithmetic and the pure-Python RNG dominate; per-call
  overhead is negligible. The only workload with measurement noise and
  PSNR/SSIM. Real FFTs and lane RNG should show here; batching should not.
* cbdr_pool - the CBDR two-branch driver at k/n=6 through the process pool.
  The only workload with the ball projection, the pinned DC sign and pool
  dispatch. Iteration counts spread from about 200 to 1000 per trial, so a
  round waits on its slowest trials.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bgret import __version__, harness, io_formats
from bgret.io_formats import ExperimentConfig, manifest_now, shape_token
from bgret.model import Method
from bgret.rng import mix_seed

#: Iteration cap of the untimed warm-up trials: enough to run every code path
#: and fill the FFT plan caches for each grid shape.
WARMUP_ITERS = 5
#: Cell id of the warm-up trials, outside the range the rounds use.
WARMUP_CELL = 1_000_000


def identity(spec: harness.TrialSpec) -> tuple:
    """The identifying fields of the result row a spec must produce."""
    return (spec.trial_index, mix_seed(spec.master_seed, spec.cell_id, spec.trial_index),
            spec.method.value, shape_token(spec.sample_shape),
            shape_token(spec.background_sizes))


#: Pool size of cbdr_pool: one worker per core this process may run on.
POOL_WORKERS = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Round:
    """Inputs of one round, the specs the harness will run from them, and
    how to run them and write the outputs."""

    specs: list
    execute: Callable[[Path], list]  # runs the round, writes under out, returns rows
    outputs: Callable[[Path], list]  # result CSVs written, in row order


def sweep_1d(seed: int) -> Round:
    # criterion 7's cells: BDR at k/n 2 and 3, PGD at 3
    cells = [(ExperimentConfig(method=method, n=(100,), trials=10, seed=seed,
                               k_ratio=3.0, eps=1e-12, max_iter=300), ratios)
             for method, ratios in ((Method.BDR, (2.0, 3.0)), (Method.PGD, (3.0,)))]

    def execute(out: Path) -> list:
        rows = []
        for cfg, ratios in cells:
            grid = harness.sweep_phase_transition(cfg, ratios, workers=1)
            harness.write_sweep_outputs(out / cfg.method.value, grid, cfg, __version__)
            rows.extend(grid.rows)
        return rows

    return Round(specs=[s for cfg, ratios in cells for s in harness.sweep_specs(cfg, ratios)],
                 execute=execute,
                 outputs=lambda out: [out / cfg.method.value / "trials.csv" for cfg, _ in cells])


NOISE_METHODS = (Method.PGD, Method.BDR, Method.BDR1)


def noise_2d(seed: int) -> Round:
    # criterion 15's study, one background and noise draw per round shared by
    # the three methods
    image = harness.synthetic_test_image(64)
    k = round(3.0 * 64)
    specs = [harness.TrialSpec(master_seed=seed, cell_id=0, trial_index=0, method=m,
                               sample_shape=(64, 64), background_sizes=(k, k),
                               max_iter=300, noise_sigma=0.001, signal=image.reshape(-1))
             for m in NOISE_METHODS]

    def execute(out: Path) -> list:
        result = harness.noise_benchmark(image, 0.001, 3.0, 1, methods=NOISE_METHODS,
                                         seed=seed, max_iter=300, workers=1)
        io_formats.write_results(out / "noise.csv", result["rows"],
                                 manifest_now(__version__, seed, {"study": "noise_2d"}))
        return result["rows"]

    return Round(specs=specs, execute=execute, outputs=lambda out: [out / "noise.csv"])


CBDR_TRIALS = 20


def cbdr_pool(seed: int) -> Round:
    # criterion 9's trials: n=100 inside k=600, 1000 iterations, nproc workers
    specs = [harness.TrialSpec(master_seed=seed, cell_id=0, trial_index=t,
                               method=Method.CBDR, sample_shape=(100,),
                               background_sizes=(600,), max_iter=1000)
             for t in range(CBDR_TRIALS)]

    def execute(out: Path) -> list:
        rows = harness.run_trials(specs, workers=POOL_WORKERS)
        io_formats.write_results(out / "cbdr.csv", rows,
                                 manifest_now(__version__, seed, {"study": "cbdr_pool"}))
        return rows

    return Round(specs=specs, execute=execute, outputs=lambda out: [out / "cbdr.csv"])


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[int], Round]
    workers: int
    #: Seconds one round takes on the reference machine; sizes the fixed
    #: number of rounds of a run.
    round_s: float


WORKLOADS = {w.name: w for w in (
    Workload("sweep_1d", sweep_1d, 1, 1.5),
    Workload("noise_2d", noise_2d, 1, 6.0),
    Workload("cbdr_pool", cbdr_pool, POOL_WORKERS, 3.5),
)}


def make_round(workload: Workload, seed: int, round_index: int) -> Round:
    index = list(WORKLOADS).index(workload.name)
    return workload.make_round(mix_seed(seed, index, round_index))


def warmup_specs(first: Round) -> list:
    """One short trial per distinct grid shape of the first round."""
    seen, out = set(), []
    for spec in first.specs:
        if spec.object_shape not in seen:
            seen.add(spec.object_shape)
            out.append(dataclasses.replace(spec, cell_id=WARMUP_CELL,
                                           max_iter=WARMUP_ITERS))
    return out
