import hashlib
import math

import numpy as np
import pytest

from bgret.analysis import verify_frip, verify_lmatrix, verify_stability, verify_uniqueness
from bgret.harness import (STREAM_SIGNAL, TrialSpec, add_noise, default_bias_offsets,
                           draw_instance, gen_background, gen_signal, harmonic_signal, location_bias_study,
                           noise_benchmark, run_trial, run_trials, resolve_workers,
                           sweep_phase_transition,
                           synthetic_test_image)
from bgret.io_formats import RESULT_COLUMNS, ExperimentConfig, manifest_now, write_results
from bgret.model import IntensityMeasurements, Method, SupportMask
from bgret.rng import Xoshiro256StarStar, mix_seed


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
    assert np.all(y[mask.inside] == 0.0)
    off = y[~mask.inside]
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
    with pytest.raises(ValueError):
        add_noise(b, -0.1, rng=Xoshiro256StarStar(0))


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
        "8e66311af043c1852d9ca7688a06c1e025e1a2bd671cb72622836ed1485176d2"

    spec = TrialSpec(master_seed=7, cell_id=0, trial_index=0, method=Method.BDR,
                     sample_shape=(100,), background_sizes=(300,))
    trial_seed = mix_seed(7, 0, 0)
    x = gen_signal(1, 100, rng=Xoshiro256StarStar(mix_seed(trial_seed, STREAM_SIGNAL)))
    background, b = draw_instance(x, spec.make_mask(), trial_seed, 0.0)
    assert _sha256(x) == "67a49b7504d16b54c7fc953a11c01848d0d6cbdc438d8fab1ad38420be751f42"
    assert _sha256(background) == \
        "3504850b997d86067b8f4317efafd8f1936249454c91d87fd74d558992a2296f"
    assert _sha256(b.values) == \
        "8e84a2f966ec9bde4316b2c30554090693a89de2959cc39d939be27dd9536890"


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
        "4ea6dab4a00765f19c689ce22a7a4cbf29970e27defac04e5f4172bc75709008"


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
