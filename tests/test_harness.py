import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bgret import harness
from bgret.analysis import verify_frip, verify_lmatrix, verify_stability, verify_uniqueness
from bgret.harness import (STREAM_SIGNAL, TrialSpec, add_noise, default_bias_offsets,
                           draw_instance, gen_background, gen_signal, harmonic_signal, location_bias_study,
                           noise_benchmark, run_cells, run_trial, run_trials, resolve_workers,
                           sweep_phase_transition, sweep_specs,
                           synthetic_test_image)
from bgret.io_formats import RESULT_COLUMNS, ExperimentConfig, manifest_now, write_results
from bgret.model import IntensityMeasurements, Method, SupportMask
from bgret.rng import Xoshiro256StarStar, mix_seed
from test_reference_path import ref_omega


def test_harmonic_signal_matches_formula():
    n = 4
    values = gen_signal(2, n)
    for i in range(n):
        t = (i + 1) / (n + 1)
        expected = (math.cos(39.2 * math.pi * t - 12 * math.sin(2 * math.pi * t))
                    + math.cos(85.4 * math.pi * t + 12 * math.sin(2 * math.pi * t)))
        assert values[i] == pytest.approx(expected, rel=1e-15)
    assert np.all(np.abs(harmonic_signal(100)) <= 2.0)


def test_gen_signal_gaussian_reproducible():
    a = gen_signal(1, 50, rng=Xoshiro256StarStar(3))
    b = gen_signal(1, 50, rng=Xoshiro256StarStar(3))
    assert np.array_equal(a, b)
    c = gen_signal(1, 50, rng=Xoshiro256StarStar(4))
    assert not np.array_equal(a, c)


def test_gen_signal_type3_needs_values():
    with pytest.raises(ValueError):
        gen_signal(3, 5)
    loaded = gen_signal(3, 3, values=[1.0, 2.0, 3.0])
    assert loaded.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        gen_signal(3, 4, values=[1.0, 2.0])


def test_gen_background_zero_on_support_and_moments():
    mask = SupportMask.block((100_500,), (500,))
    y = gen_background(mask, mu=0.5, sigma=2.0, rng=Xoshiro256StarStar(11))
    assert np.all(y[mask.slices] == 0.0)
    off = y[~ref_omega(mask)]
    assert off.size == 100_000
    stderr = 2.0 / math.sqrt(off.size)
    assert abs(float(np.mean(off)) - 0.5) < 3 * stderr
    assert abs(float(np.std(off)) - 2.0) < 3 * stderr
    small = SupportMask.block((40,), (8,))
    assert np.array_equal(gen_background(small, rng=Xoshiro256StarStar(11)),
                          gen_background(small, rng=Xoshiro256StarStar(11)))


def test_add_noise_zero_sigma_identity():
    b = IntensityMeasurements(np.array([4.0, 1.0, 1.0]))
    assert add_noise(b, 0.0, rng=Xoshiro256StarStar(0)) is b
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            add_noise(b, sigma, rng=Xoshiro256StarStar(0))


def test_add_noise_nonnegative_and_symmetric():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(24)
    from bgret.spectral import intensity
    b = intensity(z)
    noisy = add_noise(b, 0.05, rng=Xoshiro256StarStar(5))
    assert np.all(noisy.values >= 0.0)
    assert noisy.conj_symmetric  # construction validates mirror symmetry


def test_add_noise_variance_scaling():
    # mirror-averaged noise halves the variance on non-self-mirrored bins;
    # sigma is quoted in the unitary scale so the applied std is sigma*sqrt(m)
    m = 64
    b = IntensityMeasurements(np.full(m, 400.0))
    sigma = 0.01
    diffs = []
    for seed in range(300):
        noisy = add_noise(b, sigma, rng=Xoshiro256StarStar(seed))
        diffs.append(np.sqrt(noisy.values[1:]) - np.sqrt(b.values[1:]))
    sample_var = float(np.var(np.concatenate(diffs)))
    expected = 0.5 * (sigma * math.sqrt(m)) ** 2
    assert sample_var == pytest.approx(expected, rel=0.15)


def test_synthetic_test_image_properties():
    img = synthetic_test_image(64)
    assert img.shape == (64, 64)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert np.array_equal(img, synthetic_test_image(64))
    assert img.std() > 0.1  # structured, not flat


def rows_equal_except_timing(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if key == "wall_ms":
            continue
        va, vb = a[key], b[key]
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb), key
        else:
            assert va == vb, key


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def test_draw_instance_bytes_frozen():
    # Digests of two instances as the experiments build them. Any change to
    # the generator or the instance path that moves a byte of any trial
    # fails here, long before it shows in a sweep's rows.
    image = synthetic_test_image(64)  # the 2-D noise study: 64x64 in 256x256
    spec = TrialSpec(master_seed=7, cell_id=0, trial_index=0, method=Method.BDR,
                     sample_shape=(64, 64), background_sizes=(192, 192),
                     noise_sigma=1e-3, signal=image.reshape(-1))
    background, b = draw_instance(image.reshape(-1), spec.make_mask(),
                                  mix_seed(7, 0, 0), spec.noise_sigma)
    assert b.shape == (256, 256)
    assert _sha256(background) == \
        "8d3f8cb262fd89e30edb35da3c7280ae73e4f1ec36ef43fc9a9419e04ccc0f1f"
    assert _sha256(b.values) == \
        "0ec07f063061f1d462205ecb866fa69c9b3f3a852632a3c46ae0f413ed3851db"

    spec = TrialSpec(master_seed=7, cell_id=0, trial_index=0, method=Method.BDR,
                     sample_shape=(100,), background_sizes=(300,))
    trial_seed = mix_seed(7, 0, 0)
    x = gen_signal(1, 100, rng=Xoshiro256StarStar(mix_seed(trial_seed, STREAM_SIGNAL)))
    background, b = draw_instance(x, spec.make_mask(), trial_seed, 0.0)
    assert _sha256(x) == "67a49b7504d16b54c7fc953a11c01848d0d6cbdc438d8fab1ad38420be751f42"
    assert _sha256(background) == \
        "3504850b997d86067b8f4317efafd8f1936249454c91d87fd74d558992a2296f"
    assert _sha256(b.values) == \
        "ab4a0af2efe02d5274f850db53b67182a8ba37bd91a94ec220aa53341754eb9e"


#: The SIMD levels above SSE4.2 that numpy dispatches to on x86-64.
ABOVE_SSE = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")

#: Prints the SIMD levels of ABOVE_SSE that are on, then the digests of the
#: background and the intensities of test_draw_instance_bytes_frozen's two
#: instances.
DRAW_INSTANCES = """
import hashlib
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from bgret.harness import STREAM_SIGNAL, draw_instance, gen_signal, synthetic_test_image
from bgret.model import SupportMask
from bgret.rng import Xoshiro256StarStar, mix_seed
print(*[name for name in %r if __cpu_features__.get(name)])
seed = mix_seed(7, 0, 0)
image = synthetic_test_image(64).reshape(-1)
x = gen_signal(1, 100, rng=Xoshiro256StarStar(mix_seed(seed, STREAM_SIGNAL)))
for signal, mask, sigma in ((image, SupportMask.place((256, 256), (64, 64)), 1e-3),
                            (x, SupportMask.place((400,), (100,)), 0.0)):
    background, b = draw_instance(signal, mask, seed, sigma)
    for values in (background, b.values):
        print(hashlib.sha256(np.ascontiguousarray(values, dtype="<f8")).hexdigest())
""" % (ABOVE_SSE,)


def test_draw_instance_bytes_equal_at_every_simd_level():
    # the instance path rounds the same under the default dispatch and with
    # every level above SSE4.2 switched off
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    runs = []
    for disabled in (None, " ".join(ABOVE_SSE)):
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        out = subprocess.run([sys.executable, "-c", DRAW_INSTANCES], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()
        runs.append(out)
    (levels, *default), (sse_levels, *sse) = runs
    if not levels:
        pytest.skip(f"this CPU has none of {', '.join(ABOVE_SSE)}: nothing to switch off")
    assert sse_levels == ""
    assert len(default) == 4 and sse == default


def _count_normals(monkeypatch) -> list:
    """Patch Xoshiro256StarStar.normal to count the normals drawn, and drop
    the held instance, so that no earlier test's draw is returned."""
    drawn = []
    normal = Xoshiro256StarStar.normal

    def counted(self, n, *args, **kwargs):
        drawn.append(n)
        return normal(self, n, *args, **kwargs)

    monkeypatch.setattr(Xoshiro256StarStar, "normal", counted)
    monkeypatch.setattr(harness, "_held", None, raising=False)
    return drawn


def test_noise_study_methods_share_one_instance_draw(monkeypatch):
    # 64x64 in 256x256: a draw is 65536 background and 65536 noise normals,
    # one draw per trial for its three methods
    drawn = _count_normals(monkeypatch)
    result = noise_benchmark(synthetic_test_image(64), 1e-3, 3.0, 2, seed=5, max_iter=1)
    assert len(result["rows"]) == 6
    assert sum(drawn) == 2 * 131072


def _held_case(seed=3, sigma=1e-3, signal=None, offset=(2, 3), grid=(14, 15)):
    x = np.arange(1.0, 21.0).reshape(4, 5) if signal is None else signal
    return x, SupportMask(grid, (4, 5), offset), seed, sigma


def _instance_bytes(instance) -> tuple:
    background, b = instance
    return background.tobytes(), b.values.tobytes()


@pytest.mark.parametrize("change", [
    {"seed": 4}, {"sigma": 2e-3}, {"sigma": 0.0},
    {"signal": np.arange(1.0, 21.0).reshape(4, 5) + np.eye(4, 5)},
    {"offset": (3, 3)}, {"grid": (14, 16)}])
def test_a_changed_instance_is_a_fresh_cold_draw(change, monkeypatch):
    drawn = _count_normals(monkeypatch)
    cold = _instance_bytes(draw_instance(*_held_case(**change)))
    first = draw_instance(*_held_case())
    count = len(drawn)
    held = draw_instance(*_held_case())
    assert held[0] is first[0] and held[1] is first[1] and len(drawn) == count
    again = draw_instance(*_held_case(**change))
    assert len(drawn) > count
    assert again[0] is not first[0] and again[1] is not first[1]
    assert _instance_bytes(again) == cold


def test_the_held_background_is_read_only(monkeypatch):
    monkeypatch.setattr(harness, "_held", None, raising=False)
    background, _ = draw_instance(*_held_case())
    assert not background.flags.writeable
    with pytest.raises(ValueError):
        background[0, 0] = 1.0


def test_a_new_draw_releases_the_held_instance_first(monkeypatch):
    # two successive, different 2-D draws peak no higher than one: the held
    # instance is released before the next one is drawn
    mask = SupportMask.place((256, 256), (64, 64))
    image = synthetic_test_image(64).reshape(-1)
    draw_instance(image, mask, 1, 1e-3)  # fills the generator's jump tables
    monkeypatch.setattr(harness, "_held", None, raising=False)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        draw_instance(image, mask, 2, 1e-3)
        one = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        draw_instance(image, mask, 3, 1e-3)
        two = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert two <= 1.1 * one, (one, two)


def test_noise_study_rows_are_those_of_cold_draws_at_every_worker_count(monkeypatch):
    img = synthetic_test_image(12)
    rows = {w: noise_benchmark(img, 1e-3, 2.0, 2, seed=8, max_iter=40, workers=w)["rows"]
            for w in (1, 2)}
    specs = [TrialSpec(master_seed=8, cell_id=0, trial_index=t, method=m, max_iter=40,
                       noise_sigma=1e-3, sample_shape=(12, 12), signal=img.reshape(-1),
                       background_sizes=(24, 24))
             for t in range(2) for m in (Method.PGD, Method.BDR, Method.BDR1)]
    cold = []
    for spec in specs:
        monkeypatch.setattr(harness, "_held", None, raising=False)
        cold.append(run_trial(spec))
    assert len(rows[1]) == len(rows[2]) == len(cold) == 6
    for a, b, c in zip(rows[1], rows[2], cold):
        rows_equal_except_timing(a, b)
        rows_equal_except_timing(a, c)


def _frozen_row_specs() -> list:
    def spec(method, n, k, max_iter, **kw):
        return TrialSpec(master_seed=11, cell_id=len(specs), trial_index=0,
                         method=method, sample_shape=n, background_sizes=k,
                         max_iter=max_iter, **kw)

    specs = []
    for ratio in (2, 3):
        for method in (Method.BDR, Method.PGD, Method.BDR1, Method.HIO):
            specs.append(spec(method, (12,), (12 * ratio,), 150))
    specs.append(spec(Method.CBDR, (10,), (60,), 200))
    image = synthetic_test_image(12).reshape(-1)  # 12x12 in a 36x36 grid
    for method in (Method.PGD, Method.BDR, Method.BDR1):
        specs.append(spec(method, (12, 12), (24, 24), 30, noise_sigma=1e-3, signal=image))
    specs.append(spec(Method.BDR, (12, 12), (24, 24), 60, signal=image))
    specs.append(spec(Method.BDR, (16,), (48,), 200, signal=harmonic_signal(16)))
    return specs


def test_run_trial_rows_frozen(tmp_path):
    # Digest of the result CSV (wall_ms stripped) and the outcome flags of
    # rows covering every method, 1-D and 2-D, noisy and noiseless, and a
    # fixed signal. Grids stay at 36x36 or below, where the norms' bits do
    # not depend on the BLAS thread count.
    rows = run_trials(_frozen_row_specs())
    write_results(tmp_path / "rows.csv", rows, manifest_now("0", 11, {}))
    wall = RESULT_COLUMNS.index("wall_ms")
    digest = hashlib.sha256()
    for line in (tmp_path / "rows.csv").read_text().splitlines():
        fields = line.split(",")
        digest.update((",".join(fields[:wall] + fields[wall + 1:]) + "\n").encode())
    for row in rows:
        digest.update(f"{row['converged']},{row['aborted']}\n".encode())
    assert digest.hexdigest() == \
        "233bd1609773a2944b6ca231e39f1d275112435bbda5671ab4c679de97616863"


def test_run_trial_deterministic_row():
    spec = TrialSpec(master_seed=7, cell_id=0, trial_index=3, method=Method.BDR,
                     sample_shape=(20,), background_sizes=(60,), max_iter=150)
    a = run_trial(spec)
    b = run_trial(spec)
    rows_equal_except_timing(a, b)
    assert a["seed"] == mix_seed(7, 0, 3)
    assert a["n"] == "20" and a["k"] == "60"


def test_run_trial_success_on_easy_cell():
    spec = TrialSpec(master_seed=1, cell_id=0, trial_index=0, method=Method.BDR,
                     sample_shape=(5,), background_sizes=(60,), max_iter=400)
    row = run_trial(spec)
    assert row["success"] and not row["aborted"]
    assert row["fixedpoint_resid"] <= 1e-8 or not row["converged"]


def test_run_trial_records_aborts_as_failed_rows(monkeypatch):
    from bgret import solvers as solvers_mod

    def explode(*args, **kwargs):
        raise solvers_mod.DivergenceError("boom")

    monkeypatch.setattr("bgret.harness.solvers.run", explode)
    spec = TrialSpec(master_seed=1, cell_id=0, trial_index=0, method=Method.BDR,
                     sample_shape=(6,), background_sizes=(18,), max_iter=10)
    row = run_trial(spec)
    assert row["aborted"] and not row["success"]
    assert row["iterations"] == 0 and math.isinf(row["relative_error"])
    assert row["stop_reason"] == "diverged" and math.isnan(row["fixedpoint_resid"])


def test_run_trial_stop_reason_follows_the_run():
    for max_iter, reason in ((400, "converged"), (3, "max_iter")):
        spec = TrialSpec(master_seed=1, cell_id=0, trial_index=0, method=Method.BDR,
                         sample_shape=(5,), background_sizes=(60,), max_iter=max_iter)
        row = run_trial(spec)
        assert row["stop_reason"] == reason
        assert row["converged"] == (reason == "converged")
        assert math.isfinite(row["fixedpoint_resid"])


def test_run_trials_worker_independence():
    specs = [TrialSpec(master_seed=5, cell_id=c, trial_index=t, method=Method.BDR,
                       sample_shape=(12,), background_sizes=(36,), max_iter=80)
             for c in range(2) for t in range(3)]
    serial = run_trials(specs, workers=1)
    parallel = run_trials(specs, workers=2)
    for a, b in zip(serial, parallel):
        rows_equal_except_timing(a, b)


def test_run_cells_matches_run_trials_over_the_concatenated_specs():
    spec = lambda c, t, n: TrialSpec(master_seed=6, cell_id=c, trial_index=t,
                                     method=Method.BDR, sample_shape=(n,),
                                     background_sizes=(3 * n,), max_iter=60)
    cells = [[spec(0, 0, 10), spec(0, 1, 10)], [], [spec(2, t, 8) for t in range(3)]]
    flat = run_trials([s for cell in cells for s in cell])
    for workers in (1, 2):
        per_cell = run_cells(cells, workers=workers)
        assert [len(rows) for rows in per_cell] == [2, 0, 3]
        joined = [row for rows in per_cell for row in rows]
        assert len(joined) == len(flat)
        for a, b in zip(flat, joined):
            rows_equal_except_timing(a, b)


def test_sweep_rows_follow_sweep_specs():
    # the benchmark checks each sweep row against sweep_specs' order
    cfg = ExperimentConfig(method=Method.BDR, n=(10,), trials=3, seed=8,
                           k_ratio=3.0, max_iter=40)
    grid = sweep_phase_transition(cfg, [2.0, 3.0])
    specs = sweep_specs(cfg, [2.0, 3.0])
    assert [(r["trial"], r["seed"], r["k"]) for r in grid.rows] == [
        (s.trial_index, mix_seed(8, s.cell_id, s.trial_index), str(s.background_sizes[0]))
        for s in specs]
    assert [c.k for c in grid.cells] == [(20,), (30,)]


def _without(summary: dict, key: str) -> dict:
    return {m: {k: v for k, v in stats.items() if k != key} for m, stats in summary.items()}


def test_location_bias_study_worker_independence():
    # side 12: a smaller image warns that SSIM's window is clipped
    img = synthetic_test_image(12)
    serial, parallel = (location_bias_study(img, 2.0, [(0, 0), (6, 6), (12, 12)], 2,
                                            seed=4, max_iter=60, workers=w)
                        for w in (1, 2))
    assert serial["positions"] == parallel["positions"]
    assert len(serial["rows"]) == len(parallel["rows"]) == 6
    for a, b in zip(serial["rows"], parallel["rows"]):
        rows_equal_except_timing(a, b)


def test_noise_benchmark_worker_independence():
    img = synthetic_test_image(12)
    serial, parallel = (noise_benchmark(img, 1e-3, 2.0, 3, methods=(Method.PGD, Method.BDR),
                                        seed=6, max_iter=60, workers=w)
                        for w in (1, 2))
    assert _without(serial["summary"], "mean_wall_ms") == \
        _without(parallel["summary"], "mean_wall_ms")
    assert serial["pairwise_wins"] == parallel["pairwise_wins"]
    assert list(serial["pairwise_wins"]) == ["pgd<bdr", "bdr<pgd"]
    assert len(serial["rows"]) == len(parallel["rows"]) == 6
    for a, b in zip(serial["rows"], parallel["rows"]):
        rows_equal_except_timing(a, b)


def test_sweep_single_cell_matches_trial_aggregation():
    cfg = ExperimentConfig(method=Method.BDR, n=(12,), trials=8, seed=4,
                           k_ratio=3.0, max_iter=120)
    grid = sweep_phase_transition(cfg, [3.0])
    cell = grid.cell(3.0)
    recount = sum(1 for row in grid.rows if row["success"])
    assert cell.successes == recount
    assert cell.trials == 8
    assert 0.0 <= cell.rate <= 1.0
    assert cell.stderr == pytest.approx(
        math.sqrt(cell.rate * (1 - cell.rate) / cell.trials))


def test_sweep_monotone_trend_small():
    cfg = ExperimentConfig(method=Method.BDR, n=(30,), trials=12, seed=9,
                           k_ratio=3.0, max_iter=200)
    grid = sweep_phase_transition(cfg, [1.0, 3.0])
    assert grid.cell(3.0).rate >= grid.cell(1.0).rate
    assert grid.transition(2.0) is None or grid.transition(2.0) in (1.0, 3.0)


def test_image_benchmark_pairs_methods_on_same_instance():
    img = synthetic_test_image(16)
    res = noise_benchmark(img, 0.0, 2.0, 3, methods=(Method.PGD, Method.BDR), seed=2,
                          max_iter=60)
    rows = res["rows"]
    by_trial = {}
    for row in rows:
        by_trial.setdefault(row["trial"], {})[row["method"]] = row
    assert set(by_trial) == {0, 1, 2}
    for t, methods in by_trial.items():
        assert methods["pgd"]["seed"] == methods["bdr"]["seed"]


def test_location_bias_offsets_and_validation():
    offsets = default_bias_offsets((64, 64), 2.0, count=17)
    assert offsets[0] == (0, 0)
    assert offsets[-1] == (64, 64)
    assert len(offsets) == 17
    img = synthetic_test_image(8)
    with pytest.raises(ValueError):
        location_bias_study(img, 1.0, [(999, 0)], 1, seed=0, max_iter=10)


def test_location_bias_study_small():
    img = synthetic_test_image(8)
    with pytest.warns(RuntimeWarning, match="SSIM window"):
        res = location_bias_study(img, 3.0, [(0, 0), (12, 12)], 2, seed=3, max_iter=400)
    assert len(res["positions"]) == 2
    for pos in res["positions"]:
        assert pos["trials"] == 2
        assert math.isfinite(pos["mean_relative_error"])
    # centered support with ample background recovers essentially exactly
    assert res["positions"][1]["mean_relative_error"] < 1e-5


def test_image_benchmark_uniqueness_regime_recovers():
    img = synthetic_test_image(16)
    res = noise_benchmark(img, 0.0, 3.0, 3, methods=(Method.BDR,), seed=5, max_iter=300)
    assert res["summary"]["bdr"]["median_relative_error"] < 1e-5


def test_verify_uniqueness_small():
    report = verify_uniqueness(n=4, k=6, d=2, draws=20, seed=0)
    assert report["passed"] and report["rate"] == 1.0
    report1d = verify_uniqueness(n=4, k=12, d=1, draws=20, seed=0)
    assert report1d["passed"]


def test_verify_stability_small():
    report = verify_stability(pairs=10, seed=1)
    assert report["passed"] and report["violations"] == 0
    assert report["min_margin"] > 1.0


def test_verify_lmatrix_and_frip_small():
    assert verify_lmatrix(n=4, k=12, draws=30, seed=2)["passed"]
    report = verify_frip(n=8, k=64, draws=400, num_h=2, seed=3)
    assert report["passed"]
    for item in report["reports"]:
        assert item["c1"] >= (64 - 8) / 64 - 1e-12


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("BGRET_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv("BGRET_WORKERS", "5")
    assert resolve_workers(None) == 5
    assert resolve_workers(2) == 2
    # a count below 1 is an error, given or from the environment
    for requested in (0, -4):
        with pytest.raises(ValueError, match="at least 1"):
            resolve_workers(requested)
    monkeypatch.setenv("BGRET_WORKERS", "0")
    with pytest.raises(ValueError, match="at least 1"):
        resolve_workers(None)
    # the variable is an integer token: ASCII digits, no sign, separator or
    # space, and the error names the variable
    monkeypatch.setenv("BGRET_WORKERS", "")
    assert resolve_workers(None) == 1
    for token in ("1_6", "+2", " 3", "2.0", "abc", "\u0663", "-2"):
        monkeypatch.setenv("BGRET_WORKERS", token)
        with pytest.raises(ValueError, match="BGRET_WORKERS"):
            resolve_workers(None)


_FOOTPRINT_CHILD = """
import sys
import warnings
from bgret import cli, harness, metrics
from bgret.model import Method
spec = harness.TrialSpec(master_seed=3, cell_id=0, trial_index=0, method=Method.BDR,
                         sample_shape=(8,), background_sizes=(16,), max_iter=20)
[row] = harness.run_trials([spec], workers=1)
print(sorted(m for m in ("_hashlib", "concurrent.futures.process") if m in sys.modules))
"""


def test_a_one_worker_trial_loads_neither_openssl_nor_the_process_pool():
    # Every trial process pays for what it imports: OpenSSL's libcrypto
    # (through hashlib, for the CLI's input digests only) and the process pool
    # (for more than one worker only) load on use, not with the modules.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_CHILD], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_diverging_trial_is_a_row_under_any_warning_filter():
    # PGD's step at lam = 1e300 overflows; numpy's overflow warnings, errors
    # under pytest's filter, once escaped run_trial instead of its row
    spec = TrialSpec(master_seed=3, cell_id=0, trial_index=0, method=Method.PGD,
                     sample_shape=(8,), background_sizes=(24,), max_iter=5, lam=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = run_trial(spec)
    assert row["stop_reason"] == "diverged" and row["aborted"]
