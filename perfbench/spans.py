"""In-memory spans around the public entry points of each bgret module.

The program itself is not instrumented: this module replaces functions in
the bgret module namespaces (and ``numpy.fft.fftn``/``ifftn``) with wrappers
that record one span per call, and puts the originals back afterwards.

A span is (name, start, end, parent span, trial id, work). ``work`` is a
count measured at the boundary: normals drawn, FFT points transformed, bytes
written, or 1 for a solver run that met its stop test. Self time of a span is
its duration minus the durations of its direct children; calls nest, so the
children never overlap.

A pool worker is forked with the wrappers in place; the benchmark's trial
wrapper detaches the spans of each trial there (``Tracer.take``) and returns
them with the trial's row, to be merged with the spans of the parent.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

SOLVER_STEPS = ("solvers.pgd_step", "solvers.bdr_step", "solvers.cbdr_step")
SOLVER_ENTRIES = ("solvers.run", "solvers.cbdr_parallel_real")
MAGNITUDE = ("projections.project_magnitude", "projections.project_magnitude_ball")
FFTS = ("numpy.fft.fftn", "numpy.fft.ifftn")
TRACE_CALLS = ("metrics.relative_error", "metrics.measurement_error")
WRITES = ("io_formats.write_results", "harness.write_sweep_outputs")
GENERATION = ("harness.gen_signal", "harness.gen_background", "harness.add_noise")


def _len(result, args, kwargs):
    return len(result)


def _size(result, args, kwargs):
    return result.size


def _converged(result, args, kwargs):
    return 1.0 if result.converged else 0.0


def _results_bytes(result, args, kwargs):
    path = str(args[0])
    return os.path.getsize(path) + os.path.getsize(path + ".manifest.json")


def _sweep_bytes(result, args, kwargs):
    # write_results inside it reports trials.csv and its manifest
    out = str(args[0])
    return sum(os.path.getsize(os.path.join(out, f))
               for f in ("rates.csv", "transitions.csv"))


# (module, attribute, span name, work counter). Module functions are replaced
# in every bgret module that bound them, so `from .x import f` call sites are
# covered; methods are replaced on their class.
TARGETS = (
    ("bgret.rng", "Xoshiro256StarStar.normal", "rng.normal", _len),
    ("bgret.rng", "Xoshiro256StarStar.uniform", "rng.uniform", _len),
    ("numpy.fft", "fftn", "numpy.fft.fftn", _size),
    ("numpy.fft", "ifftn", "numpy.fft.ifftn", _size),
    ("bgret.spectral", "intensity", "spectral.intensity", None),
    ("bgret.projections", "project_magnitude", "projections.project_magnitude", None),
    ("bgret.projections", "project_magnitude_ball", "projections.project_magnitude_ball", None),
    ("bgret.projections", "project_background", "projections.project_background", None),
    ("bgret.solvers", "run", "solvers.run", None),
    ("bgret.solvers", "cbdr_parallel_real", "solvers.cbdr_parallel_real", None),
    ("bgret.solvers", "_iterate", "solvers._iterate", _converged),
    ("bgret.solvers", "pgd_step", "solvers.pgd_step", None),
    ("bgret.solvers", "bdr_step", "solvers.bdr_step", None),
    ("bgret.solvers", "cbdr_step", "solvers.cbdr_step", None),
    ("bgret.model", "assemble", "model.assemble", None),
    ("bgret.metrics", "relative_error", "metrics.relative_error", None),
    ("bgret.metrics", "measurement_error", "metrics.measurement_error", None),
    ("bgret.metrics", "evaluate", "metrics.evaluate", None),
    ("bgret.harness", "run_trial", "harness.run_trial", None),
    ("bgret.harness", "run_trials", "harness.run_trials", None),
    ("bgret.harness", "gen_signal", "harness.gen_signal", None),
    ("bgret.harness", "gen_background", "harness.gen_background", None),
    ("bgret.harness", "add_noise", "harness.add_noise", None),
    ("bgret.harness", "sweep_phase_transition", "harness.sweep_phase_transition", None),
    ("bgret.harness", "noise_benchmark", "harness.noise_benchmark", None),
    ("bgret.harness", "write_sweep_outputs", "harness.write_sweep_outputs", _sweep_bytes),
    ("bgret.io_formats", "write_results", "io_formats.write_results", _results_bytes),
)

_FIELDS = (("name", "i"), ("parent", "i"), ("trial", "i"),
           ("start", "d"), ("end", "d"), ("child", "d"), ("work", "d"))


class SpanBuffer:
    """Spans as column arrays; ``child`` sums the durations of direct children."""

    def __init__(self):
        for field, code in _FIELDS:
            setattr(self, field, array(code))

    def __len__(self):
        return len(self.name)

    def columns(self):
        return {field: getattr(self, field) for field, _ in _FIELDS}

    def extend(self, block: "SpanBuffer") -> None:
        base = len(self)
        self.parent.extend(p + base if p >= 0 else -1 for p in block.parent)
        for field, _ in _FIELDS:
            if field != "parent":
                getattr(self, field).extend(getattr(block, field))


class Tracer:
    """Installs span wrappers around the TARGETS and collects the spans.

    While a span is open it is a list [name, parent record, trial, start,
    end, child, work] (cheap to create); ``take`` packs finished records into
    a SpanBuffer.
    """

    def __init__(self):
        self.names: list[str] = [t[2] for t in TARGETS]
        self.records: list[list] = []
        self.stack: list[list] = []
        self.trial = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def take(self, mark: int = 0) -> SpanBuffer:
        """Detach the records from index ``mark`` on; a parent recorded
        before ``mark`` becomes -1."""
        block = SpanBuffer()
        index = {}
        for i, rec in enumerate(self.records[mark:]):
            index[id(rec)] = i
            name, parent, trial, start, end, child, work = rec
            block.name.append(name)
            block.parent.append(-1 if parent is None else index.get(id(parent), -1))
            block.trial.append(trial)
            block.start.append(start)
            block.end.append(end)
            block.child.append(child)
            block.work.append(work)
        del self.records[mark:]
        return block

    def _wrapper(self, fn, name_id: int, work):
        records, stack, trial = self.records, self.stack, self.trial
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [name_id, parent, trial[0], 0.0, 0.0, 0.0, 0.0]
            records.append(rec)
            stack.append(rec)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[3] = t0
                rec[4] = t1
                if parent is not None:
                    parent[5] += t1 - t0
            if work is not None:
                rec[6] = work(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        import importlib
        bgret_modules = [m for n, m in list(sys.modules.items())
                         if n == "bgret" or n.startswith("bgret.")]
        for name_id, (mod_name, attr, _, work) in enumerate(TARGETS):
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original, self._wrapper(original, name_id, work))
                continue
            original = getattr(module, attr)
            wrapped = self._wrapper(original, name_id, work)
            homes = [module] + [m for m in bgret_modules if m is not module]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        self._set(home, key, original, wrapped)

    def _set(self, owner, key, original, wrapped) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


#: Self-time bucket of each span name; every span's self time lands in one.
BUCKETS = {
    "rng.normal": "rng.s", "rng.uniform": "rng.s",
    "numpy.fft.fftn": "spectral.fft_s", "numpy.fft.ifftn": "spectral.fft_s",
    "projections.project_magnitude": "projections.magnitude_s",
    "projections.project_magnitude_ball": "projections.magnitude_s",
    "projections.project_background": "projections.background_s",
    "model.assemble": "model.assemble_s",
    "io_formats.write_results": "io_formats.write_s",
    "harness.write_sweep_outputs": "io_formats.write_s",
}
for _name in GENERATION:
    BUCKETS[_name] = "harness.generate_s"
#: Bucket of the remaining spans, by module. harness.self_s is run_trial
#: itself, the drivers' aggregation and the intensity of the fixed-point
#: residual.
MODULE_BUCKETS = {"solvers": "solvers.self_s", "metrics": "metrics.self_s",
                  "harness": "harness.self_s", "spectral": "harness.self_s"}
#: Spans whose self time lands in no bucket. With a pool, run_trials' self
#: time is the parent's wait on the workers, not harness work (the trials are
#: spans of the workers; harness.pool_idle_frac measures the idle share);
#: without one it is a list comprehension.
UNBUCKETED = ("harness.run_trials",)


def _bucket(name: str):
    if name in UNBUCKETED:
        return None
    return BUCKETS.get(name) or MODULE_BUCKETS[name.split(".")[0]]


def layer_metrics(spans: SpanBuffer, names: list[str]) -> dict:
    """Per-layer counts and times from a span buffer.

    Times ending in ``_s`` are self times summed over spans (and over pool
    workers); the BUCKETS partition them, less the UNBUCKETED spans.
    ``solvers.trace_s`` and ``metrics.evaluate_s`` are instead the inclusive
    time of a whole phase: the per-iteration relative/measurement error calls
    and the final ``evaluate``.
    """
    name = [names[i] for i in spans.name]
    parent = spans.parent
    start = np.frombuffer(spans.start, dtype=float)
    dur = np.frombuffer(spans.end, dtype=float) - start
    own = dur - np.frombuffer(spans.child, dtype=float)
    work = np.frombuffer(spans.work, dtype=float)

    bucket = [_bucket(n) for n in name]
    in_loop = [False] * len(name)  # inside a solver step or a per-iteration trace call
    is_trace = [False] * len(name)
    solved = set()  # parents whose solver call has started
    for i, (n, p) in enumerate(zip(name, parent)):
        pn = name[p] if p >= 0 else None
        if n in SOLVER_ENTRIES:
            solved.add(p)
        is_trace[i] = n in TRACE_CALLS and pn == "solvers._iterate"
        in_loop[i] = p >= 0 and (in_loop[p] or is_trace[p] or pn in SOLVER_STEPS)
        # the intensity call before the solve is the instance's forward model;
        # the one after it is run_trial's fixed-point residual
        if n == "spectral.intensity" and p not in solved:
            bucket[i] = "harness.generate_s"

    def mask(pick):
        return np.fromiter(pick, dtype=bool, count=len(name))

    def named(*wanted):
        return mask(n in wanted for n in name)

    fft = named(*FFTS)
    iterate = named("solvers._iterate")
    iterations = int(named(*SOLVER_STEPS).sum())
    out = {b: (float(own[mask(x == b for x in bucket)].sum()), "s")
           for b in sorted({*BUCKETS.values(), *MODULE_BUCKETS.values()})}
    out.update({
        "rng.normals": (float(work[named("rng.normal")].sum()), "count"),
        "spectral.fft_calls": (float(fft.sum()), "count"),
        "spectral.fft_calls_per_iter": (
            float((fft & mask(in_loop)).sum()) / iterations if iterations else 0.0, "ffts/iter"),
        "spectral.fft_points": (float(work[fft].sum()), "points_computed"),
        "projections.calls": (float(named(*MAGNITUDE, "projections.project_background").sum()),
                              "count"),
        "projections.ball_calls": (float(named("projections.project_magnitude_ball").sum()),
                                   "count"),
        "solvers.iterations": (float(iterations), "count"),
        "solvers.converged_frac": (float(work[iterate].sum()) / max(1, int(iterate.sum())),
                                   "fraction"),
        "solvers.trace_s": (float(dur[mask(is_trace)].sum()), "s"),
        "model.assemble_calls": (float(named("model.assemble").sum()), "count"),
        "metrics.evaluate_s": (float(dur[named("metrics.evaluate")].sum()), "s"),
        "io_formats.bytes_written": (float(work[named(*WRITES)].sum()), "B"),
    })
    return out


def save_spans(path, spans: SpanBuffer, names: list[str]) -> None:
    """Write the spans as one .npz of columns plus the span-name table."""
    cols = {k: np.frombuffer(v, dtype=np.int32 if v.typecode == "i" else float)
            for k, v in spans.columns().items()}
    np.savez(path, names=np.array(names), **cols)
