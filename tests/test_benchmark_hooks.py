"""The benchmark (perfbench/) imports, calls and wraps program functions by
name. A rename that drops one of them must fail here, not silently break
``perfbench/run.py``."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from bgret import harness, solvers
from bgret.model import Method

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"benchmark hooks with no target: {missing}"


def _submodule(module: str, name: str) -> bool:
    return module == "bgret" and importlib.util.find_spec(f"bgret.{name}") is not None


def benchmark_names() -> set:
    """(module, name) for each bgret name a perfbench file imports, and for
    each attribute it reads or sets on a bgret module it imported, as
    ``harness.run_trial`` or ``self.harness.run_trial``."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # name bound in the file -> the bgret module it is
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bgret":
                for alias in node.names:
                    names.add((node.module, alias.name))
                    if _submodule(node.module, alias.name):
                        modules[alias.asname or alias.name] = f"bgret.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    # `import bgret.x` binds bgret, `import bgret.x as y` binds y
                    if alias.name.split(".")[0] == "bgret":
                        modules[alias.asname or "bgret"] = alias.name if alias.asname else "bgret"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = node.value
                bound = getattr(owner, "id", None) or getattr(owner, "attr", None)
                if bound in modules:
                    names.add((modules[bound], node.attr))
    return names


def test_every_name_the_benchmark_uses_resolves():
    names = benchmark_names()
    # the collector sees the drivers the workloads call and the hook run.py patches
    assert {("bgret.harness", "sweep_specs"), ("bgret.harness", "run_trials"),
            ("bgret.harness", "noise_benchmark"), ("bgret.harness", "run_trial"),
            ("bgret.solvers", "_iterate"), ("bgret.io_formats", "write_results"),
            ("bgret.metrics", "SUCCESS_THRESHOLD")} <= names
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not (_submodule(module, name)
                             or hasattr(importlib.import_module(module), name)))
    assert not missing, f"names the benchmark uses that bgret lacks: {missing}"


@pytest.mark.parametrize("method, n, k, max_iter", (
    pytest.param(Method.CBDR, 10, 60, 400, id="cbdr"),
    pytest.param(Method.CBDR, 100, 600, 1000, id="cbdr-pool"),
    pytest.param(Method.BDR, 10, 60, 400, id="bdr")))
def test_iterate_result_carries_the_counts_the_benchmark_reads(method, n, k, max_iter,
                                                               monkeypatch):
    # perfbench/run.py's TrialClock sums ``iterations_used`` of every
    # ``solvers._iterate`` result of a trial, and perfbench/spans.py reads its
    # ``converged``. A CBDR trial is one _iterate call over both DC-sign lanes:
    # its count is the sum of the lanes' own counts, above the row's
    # ``iterations`` (the chosen lane's) and at most 2 * max_iter. At
    # cbdr_pool's geometry (n = 100 inside k = 600, cap 1000) the lanes part:
    # the other lane stops where the chosen one converges
    results = []
    iterate = solvers._iterate

    def recorded(*args, **kwargs):
        results.append(iterate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solvers, "_iterate", recorded)
    spec = harness.TrialSpec(master_seed=7, cell_id=0, trial_index=0, method=method,
                             sample_shape=(n,), background_sizes=(k,), max_iter=max_iter)
    row = harness.run_trial(spec)
    assert len(results) == 1
    result = results[0]
    assert isinstance(result.iterations_used, int) and isinstance(result.converged, bool)
    assert result.converged == all(lane.converged for lane in result)
    if method is Method.CBDR:
        assert len(result) == 2
        assert result.iterations_used == sum(lane.iterations_used for lane in result)
        assert row["iterations"] < result.iterations_used <= 2 * spec.max_iter
        if n == 100:
            assert row["converged"] and not result.converged
            assert [lane.iterations_used for lane in result] == [row["iterations"]] * 2
            assert row["iterations"] < max_iter
    else:
        assert result.iterations_used == row["iterations"]
