"""bgret benchmark: seeded trial workloads through the public harness.

    python3 perfbench/run.py --workload {sweep_1d,noise_2d,cbdr_pool}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; it imports bgret from ``src/`` there.

S defaults to BENCHMARK.json's run_seconds. A run does a fixed number of
rounds, set by S and the workload's nominal round time, so that every run of
a seed times the same trials whatever the speed of the code.

--trace 0 measures the end-to-end metrics with tracing off. The throughputs
count every trial (and its output write) over the summed round times; the
iterations are those of every solver run, both CBDR branches included; trial
latencies are timed around each ``harness.run_trial`` call; set-up time is
the median of five fresh processes timed from launch to ready (imports,
inputs of the first round, one short warm-up trial per grid shape). The
five are launched between rounds, spread over the run, so that their median
sees the same machine as the trials: its speed drifts on a scale of seconds.

--trace 1 runs half as many rounds twice: untraced, then with spans around
the public entry points of every measured module (see spans.py). It prints
the per-layer metrics and writes the spans to
.perfbench_out/<workload>/spans.npz.

Every run checks its outputs and exits 1 without a result line if a check
fails: a result row is missing or misidentified, a converged BDR/CBDR row
has a fixed-point residual above 1e-8, a row is inconsistent with itself,
the written CSV does not read back as the rows, or (traced runs) a
deterministic row field differs between the untraced and the traced pass.

The last line of stdout is one JSON object:
{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy is imported, so that pool
# workers x BLAS threads never exceed the cores (np.linalg.norm goes through
# BLAS dot).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep_1d", "noise_2d", "cbdr_pool")
DEFAULT_SEED = 7
#: Not used while writing the benchmark; for checking claims afterwards.
HELD_OUT_SEED = 4242
SETUP_PROBES = 5
RESID_LIMIT = 1e-8  # criterion 11's fixed-point rule
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


class GateError(Exception):
    """An output failed the correctness gate."""


def import_program():
    """Import bgret from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bgret
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import bgret from {src}: {exc}")
    if Path(bgret.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: bgret imported from {bgret.__file__}, not {src}")


def setup(workload_name: str, seed: int):
    """Everything before the first timed trial."""
    import_program()
    import workloads
    from bgret import harness
    workload = workloads.WORKLOADS[workload_name]
    first = workloads.make_round(workload, seed, 0)
    for spec in workloads.warmup_specs(first):
        harness.run_trial(spec)
    return workload


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh process to its set-up being done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class TrialClock:
    """Replaces harness.run_trial with a wrapper that times each call, counts
    the iterations of every solver run in it (a CBDR trial runs two branches
    but its row reports one) and, in a traced pass, detaches the trial's
    spans. Pool workers are forked after it is installed, so they run the
    wrapper too and return its record in the row under ``_bench``."""

    def __init__(self, tracer=None):
        from bgret import harness, solvers
        self.harness, self.solvers = harness, solvers
        self.original = harness.run_trial
        self.iterate = solvers._iterate
        self.trial_ids: dict = {}
        clock, ids, run_trial, iterate = (time.perf_counter, self.trial_ids,
                                          self.original, self.iterate)
        owner = os.getpid()
        iters = [0]

        @functools.wraps(iterate)
        def counted_iterate(*args, **kwargs):
            result = iterate(*args, **kwargs)
            iters[0] += result.iterations_used
            return result

        @functools.wraps(run_trial)
        def bench_run_trial(spec):
            if tracer is not None:
                mark = len(tracer.records)
                tracer.trial[0] = ids.get(_key(spec), -1)
            iters[0] = 0
            t0 = clock()
            row = run_trial(spec)
            t1 = clock()
            pid = os.getpid()
            spans = None
            if tracer is not None:
                tracer.trial[0] = -1
                if pid != owner:  # a pool worker: send the spans back with the row
                    spans = tracer.take(mark)
            row["_bench"] = {"t0": t0, "t1": t1, "pid": pid, "spans": spans, "iters": iters[0],
                             "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            return row

        harness.run_trial = bench_run_trial
        solvers._iterate = counted_iterate

    def close(self):
        self.harness.run_trial = self.original
        self.solvers._iterate = self.iterate


def _key(spec) -> tuple:
    return (spec.master_seed, spec.cell_id, spec.trial_index, spec.method.value)


def round_count(workload, seconds: float) -> int:
    """Rounds of a run of ``seconds`` on the reference machine."""
    return max(1, round(seconds / workload.round_s))


def run_rounds(workload, seed: int, out: Path, clock: TrialClock, rounds: int,
               before_round=None) -> list:
    """Run rounds 0 .. rounds-1, calling ``before_round(index)`` untimed
    before each. Returns one record per round: wall time, rows and trial
    timings."""
    import workloads
    records = []
    for index in range(rounds):
        if before_round is not None:
            before_round(index)
        rnd = workloads.make_round(workload, seed, index)
        first_id = sum(len(r["rows"]) for r in records)
        clock.trial_ids.clear()
        clock.trial_ids.update({_key(s): first_id + i for i, s in enumerate(rnd.specs)})
        t0 = time.perf_counter()
        rows = rnd.execute(out)
        wall = time.perf_counter() - t0
        bench = [row.pop("_bench", None) for row in rows]
        check_round(rnd, rows, bench, out)
        records.append({"wall": wall, "rows": rows, "bench": bench})
    return records


def check_round(rnd, rows: list, bench: list, out: Path) -> None:
    import workloads
    from bgret.io_formats import RESULT_COLUMNS, read_results
    from bgret.metrics import SUCCESS_THRESHOLD
    if len(rows) != len(rnd.specs):
        raise GateError(f"{len(rnd.specs)} trials run, {len(rows)} rows returned")
    for spec, row, rec in zip(rnd.specs, rows, bench):
        got = (row["trial"], row["seed"], row["method"], row["n"], row["k"])
        if got != workloads.identity(spec):
            raise GateError(f"row {got} where {workloads.identity(spec)} was expected")
        if rec is None:
            raise GateError("a trial ran without the benchmark's timer "
                            "(pool workers must be forked)")
        if row["aborted"]:
            continue
        if not (1 <= row["iterations"] <= spec.max_iter):
            raise GateError(f"row {got}: {row['iterations']} iterations")
        # a CBDR row reports one of its two branches
        if not (row["iterations"] < rec["iters"] <= 2 * spec.max_iter
                if row["method"] == "cbdr" else rec["iters"] == row["iterations"]):
            raise GateError(f"row {got}: {row['iterations']} iterations reported, "
                            f"{rec['iters']} run")
        if not (math.isfinite(row["relative_error"]) and row["relative_error"] >= 0):
            raise GateError(f"row {got}: relative error {row['relative_error']}")
        if row["success"] != (row["relative_error"] < SUCCESS_THRESHOLD):
            raise GateError(f"row {got}: success flag disagrees with its relative error")
        if len(spec.sample_shape) == 2 and not (math.isfinite(row["psnr"])
                                                and math.isfinite(row["ssim"])):
            raise GateError(f"row {got}: PSNR/SSIM not finite")
        if (row["converged"] and row["method"] in ("bdr", "cbdr")
                and not row["fixedpoint_resid"] <= RESID_LIMIT):
            raise GateError(f"row {got}: converged with fixed-point residual "
                            f"{row['fixedpoint_resid']:.3e} > {RESID_LIMIT}")
    written = [r for path in rnd.outputs(out) for r in read_results(path)]
    if [_canon(r, RESULT_COLUMNS) for r in written] != [_canon(r, RESULT_COLUMNS) for r in rows]:
        raise GateError("written results do not read back as the result rows")


def _canon(row: dict, keys) -> tuple:
    return tuple(repr(row[k]) for k in keys)


def deterministic_fields(rows: list) -> list:
    return [_canon(r, sorted(k for k in r if k != "wall_ms")) for r in rows]


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least ten
    samples beyond it. Below forty samples that percentile would fall under
    p75 and not be a tail, so the maximum stands in."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 4 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(records: list, workers: int, setup_s: float) -> tuple[dict, list]:
    rows = [row for rec in records for row in rec["rows"]]
    bench = [b for rec in records for b in rec["bench"]]
    wall = sum(rec["wall"] for rec in records)
    trial_ms = [(b["t1"] - b["t0"]) * 1e3 for b in bench]
    value, pct, n = tail(trial_ms)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + max(
        _pool_rss_kb(rec["bench"]) for rec in records)
    metrics = {
        "trials_per_s": (len(rows) / wall, "1/s"),
        "iters_per_s": (sum(b["iters"] for b in bench) / wall, "1/s"),
        "trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "trial_ms_tail": (value, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = [f"trial_ms_tail is p{pct:.1f} of {n} trials"
             + (" (fewer than 40 trials: the maximum)" if n < 4 * TAIL_BEYOND else ""),
             f"rounds {len(records)}, trials {len(rows)}, workers {workers}"]
    return metrics, notes


def _pool_rss_kb(bench: list) -> int:
    """Summed peak RSS of the pool workers of one round (each round's
    run_trials call starts its own pool)."""
    peak: dict = {}
    for b in bench:
        if b["pid"] != os.getpid():
            peak[b["pid"]] = max(peak.get(b["pid"], 0), b["rss_kb"])
    return sum(peak.values())


def row_metrics(records: list, workers: int) -> dict:
    rows = [row for rec in records for row in rec["rows"]]
    busy = sum(b["t1"] - b["t0"] for rec in records for b in rec["bench"])
    wall = sum(rec["wall"] for rec in records)
    ok = [r for r in rows if not r["aborted"]]
    return {
        "quality.success_rate": (sum(r["success"] for r in rows) / len(rows), "fraction"),
        "quality.median_relative_error": (
            statistics.median(r["relative_error"] for r in ok) if ok else math.inf, "1"),
        "harness.failed_frac": ((len(rows) - len(ok)) / len(rows), "fraction"),
        # at workers=1: the share of the round spent outside run_trial
        "harness.pool_idle_frac": (1.0 - busy / (workers * wall), "fraction"),
    }


def traced_pass(workload, seed: int, out: Path, untraced: list):
    from spans import Tracer, layer_metrics, save_spans
    tracer = Tracer()
    tracer.install()
    clock = TrialClock(tracer)
    try:
        records = run_rounds(workload, seed, out, clock, len(untraced))
    finally:
        clock.close()
        tracer.uninstall()
    before = [row for rec in untraced for row in rec["rows"]]
    after = [row for rec in records for row in rec["rows"]]
    if deterministic_fields(before) != deterministic_fields(after):
        raise GateError("tracing changed a deterministic result field")
    spans = tracer.take()
    for rec in records:
        for b in rec["bench"]:
            if b["spans"] is not None:
                spans.extend(b["spans"])
    layers = layer_metrics(spans, tracer.names)
    save_spans(out / "spans.npz", spans, tracer.names)
    wall = sum(r["wall"] for r in records) / sum(r["wall"] for r in untraced)
    layers["bench.trace_overhead_frac"] = (wall - 1.0, "fraction")
    return layers, len(after)


def print_result(metrics: dict, group: str, notes: list, attempted: int, failed: int) -> None:
    """Print the metrics of BENCHMARK.json's ``group``, in its order, then
    the result line."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[group]
    if {m["name"]: m["unit"] for m in declared} != {k: u for k, (v, u) in metrics.items()}:
        raise GateError(f"measured metrics do not match BENCHMARK.json's {group}")
    ordered = {m["name"]: metrics[m["name"]] for m in declared}
    for name, (value, unit) in ordered.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in ordered.items()}}))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if not (ROOT / "src" / "bgret").is_dir():
        print(f"perfbench: no bgret sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = setup(args.workload, args.seed)
    workers = workload.workers
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    # a traced run does its rounds twice
    rounds = round_count(workload, args.seconds / 2 if args.trace else args.seconds)
    probe_at = [i * rounds // SETUP_PROBES for i in range(SETUP_PROBES)]
    probes = []

    def probe(index):
        probes.extend(probe_setup(args.workload, args.seed)
                      for _ in range(probe_at.count(index)))

    clock = TrialClock()
    try:
        records = run_rounds(workload, args.seed, out, clock, rounds,
                             before_round=None if args.trace else probe)
    finally:
        clock.close()
    rows = [row for rec in records for row in rec["rows"]]
    failed = sum(1 for r in rows if r["aborted"])

    if args.trace:
        metrics, traced = traced_pass(workload, args.seed, out, records)
        metrics.update(row_metrics(records, workers))
        print_result(metrics, "per_layer", [f"rounds {len(records)} untraced + {len(records)} traced"],
                     len(rows) + traced, 2 * failed)
    else:
        metrics, notes = end_to_end(records, workers, statistics.median(probes))
        notes += [f"{k} {v:.6g} {u}" for k, (v, u) in row_metrics(records, workers).items()]
        print_result(metrics, "end_to_end", notes, len(rows), failed)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except GateError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        sys.exit(1)
