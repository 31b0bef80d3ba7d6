"""Run the benchmark over several seeds and summarize its spread.

    python3 perfbench/baseline.py [--runs 10] [--workloads sweep_1d ...] [--write]

For each workload: ``--runs`` untraced runs with seeds 1..runs, then one
traced run with the default seed, all of BENCHMARK.json's run_seconds.
Prints, per end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json. ``--write`` stores the machine
description, the seeds and these figures in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def machine() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": "1 (OPENBLAS/OMP/MKL_NUM_THREADS pinned by run.py)"}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from run import DEFAULT_SEED, HELD_OUT_SEED

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    seconds = spec["run_seconds"]
    report = {"machine": machine(), "run_seconds": seconds,
              "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
              "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        results = [run(workload, s, seconds, 0) for s in seeds]
        e2e = {}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            e2e[name] = stats
            flag = "" if stats["spread"] < bound / 3 or name == "setup_s" else "  <-- above bound/3"
            print(f"{workload:10s} {name:16s} median {stats['median']:12.6g} "
                  f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}", flush=True)
        traced = run(workload, DEFAULT_SEED, seconds, 1)
        print(f"{workload:10s} runs took {min(r['elapsed_s'] for r in results):.1f}-"
              f"{max(r['elapsed_s'] for r in results):.1f} s, traced run "
              f"{traced['elapsed_s']:.1f} s", flush=True)
        report["workloads"][workload] = {
            "end_to_end": e2e,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "run_elapsed_s": [r["elapsed_s"] for r in results],
            "traced_run_elapsed_s": traced["elapsed_s"],
            "per_layer_seed": DEFAULT_SEED,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
