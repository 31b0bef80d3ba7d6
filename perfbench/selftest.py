"""Self-test of the benchmark's exact counts.

    python3 perfbench/selftest.py

Runs the traced benchmark twice per workload with the default seed and one
round, and fails (exit 1) unless the exact counts repeat identically and the
solver loop makes exactly 3 FFT calls per iteration: two in the magnitude
projection and one in the per-iteration trace's measurement error.
"""

from __future__ import annotations

import sys

from baseline import run
from run import DEFAULT_SEED, WORKLOAD_NAMES

EXACT = ("solvers.iterations", "spectral.fft_calls", "rng.normals", "model.assemble_calls")
FFT_CALLS_PER_ITER = 3.0


def main() -> int:
    failures = []
    for workload in WORKLOAD_NAMES:
        first, second = (run(workload, DEFAULT_SEED, 1, 1)["metrics"] for _ in range(2))
        for name in EXACT:
            a, b = first[name]["value"], second[name]["value"]
            status = "ok" if a == b else "FAIL"
            print(f"{workload:10s} {name:28s} {a:>14.0f} {b:>14.0f} {status}")
            if a != b:
                failures.append(f"{workload}: {name} {a} != {b}")
        per_iter = first["spectral.fft_calls_per_iter"]["value"]
        status = "ok" if per_iter == FFT_CALLS_PER_ITER else "FAIL"
        print(f"{workload:10s} {'spectral.fft_calls_per_iter':28s} {per_iter:>14g} "
              f"{FFT_CALLS_PER_ITER:>14g} {status}")
        if per_iter != FFT_CALLS_PER_ITER:
            failures.append(f"{workload}: {per_iter} FFT calls per iteration, "
                            f"expected {FFT_CALLS_PER_ITER:g}")
    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
