import json

import numpy as np
import pytest

from bgret.cli import EXIT_CHECK_FAILED, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from bgret.io_formats import (read_image, read_results, read_signal_csv, write_image,
                              write_signal_csv)
from bgret.model import IntensityMeasurements, Method, SolverConfig, SupportMask, assemble
from bgret.solvers import cbdr_parallel_real
from bgret.spectral import intensity


def test_usage_error_exit_code(capsys):
    assert main(["solve"]) == EXIT_USAGE  # missing --method
    capsys.readouterr()
    assert main(["not-a-command"]) == EXIT_USAGE
    capsys.readouterr()


def test_gen_signal_and_metrics(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["gen-signal", "--n", "16", "--type", "2", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    sig = out / "signal_type2_n16.csv"
    values = read_signal_csv(sig)
    assert values.size == 16
    est = tmp_path / "est.csv"
    write_signal_csv(est, values)
    assert main(["metrics", "--truth", str(sig), "--estimate", str(est)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["relative_error"] == 0.0 and payload["success"]


def test_gen_background_cli(tmp_path, capsys):
    out = tmp_path / "bg"
    rc = main(["gen-background", "--shape", "12", "--sample", "4",
               "--seed", "3", "--out", str(out)])
    assert rc == EXIT_OK
    capsys.readouterr()
    y = read_signal_csv(out / "background.csv")
    assert y.size == 12 and np.all(y[:4] == 0.0)


def _forward_instance(tmp_path, capsys, n=8, k_ratio="5", seed="5"):
    # one 1-D signal through `bgret forward`; returns its inputs and outputs
    x = np.random.default_rng(1).standard_normal(n)
    sig = tmp_path / "x.csv"
    write_signal_csv(sig, x)
    out = tmp_path / "fwd"
    assert main(["forward", "--signal", str(sig), "--k-ratio", k_ratio,
                 "--seed", seed, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    return sig, x, out


def test_forward_cli_matches_gen_background_and_intensity(tmp_path, capsys):
    sig, x, out = _forward_instance(tmp_path, capsys)
    bg_out = tmp_path / "bg"
    assert main(["gen-background", "--shape", "48", "--sample", "8", "--seed", "5",
                 "--out", str(bg_out)]) == EXIT_OK
    capsys.readouterr()
    assert (out / "background.csv").read_bytes() == (bg_out / "background.csv").read_bytes()
    y = read_signal_csv(out / "background.csv")
    expected = intensity(assemble(x, y, SupportMask.block((48,), (8,)))).values
    assert np.array_equal(read_image(out / "measurements.csv"), np.atleast_2d(expected))


def test_solve_cli_cbdr_runs_two_branch_driver(tmp_path, capsys):
    sig, x, out = _forward_instance(tmp_path, capsys)
    rc = main(["solve", "--method", "cbdr", "--signal", str(sig), "--k-ratio", "5",
               "--seed", "5", "--max-iter", "200", "--out", str(tmp_path / "s")])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    y = read_signal_csv(out / "background.csv")
    b = IntensityMeasurements(read_image(out / "measurements.csv").reshape(-1))
    direct = cbdr_parallel_real(b, y, SupportMask.block((48,), (8,)),
                                SolverConfig(method=Method.CBDR, max_iter=200), x_true=x)
    assert payload["iterations"] == direct.iterations_used
    assert payload["converged"] == direct.converged


def test_solve_cli_round_trip(tmp_path, capsys):
    sig = tmp_path / "x.csv"
    write_signal_csv(sig, np.random.default_rng(0).standard_normal(12))
    out = tmp_path / "solve"
    rc = main(["solve", "--method", "bdr", "--signal", str(sig), "--k-ratio", "4",
               "--seed", "5", "--max-iter", "400", "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["success"] is True
    recovered = read_signal_csv(out / "recovered.csv")
    assert recovered.size == 12


def test_solve_cli_spectrum_hio(tmp_path, capsys):
    # measured-spectrum workflow: intensities in, HIO out, no ground truth
    from bgret.spectral import intensity
    rng = np.random.default_rng(3)
    obj = np.zeros((12, 12))
    obj[3:9, 3:9] = rng.random((6, 6)) + 0.5
    spec_path = tmp_path / "spectrum.csv"
    write_image(spec_path, intensity(obj).values)
    out = tmp_path / "hio"
    rc = main(["solve", "--method", "hio", "--spectrum", str(spec_path),
               "--support", "6", "6", "--max-iter", "150", "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["measurement_error"] < 1.0
    assert (out / "recovered.csv").exists()
    # any other method must refuse spectrum-only input
    assert main(["solve", "--method", "bdr", "--spectrum", str(spec_path),
                 "--support", "6", "6"]) == EXIT_USAGE
    capsys.readouterr()


def test_solve_cli_data_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    rc = main(["solve", "--method", "bdr", "--signal", str(missing)])
    assert rc == EXIT_DATA
    capsys.readouterr()


def test_sweep_cli_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "BDR", "n": 10, "k_ratio": 3,
                               "trials": 4, "seed": 2, "max_iter": 120}))
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(cfg), "--ratio-min", "3.0",
               "--ratio-max", "3.0", "--ratio-step", "0.5", "--seed", "9",
               "--out", str(out)])
    assert rc == EXIT_OK
    capsys.readouterr()
    rows = read_results(out / "trials.csv")
    assert len(rows) == 4
    echo = json.loads((out / "trials.csv.manifest.json").read_text())["config"]
    # --seed overrides the config's seed and keeps every other field
    assert echo["seed"] == 9
    assert echo["max_iter"] == 120 and echo["k_ratio"] == 3
    rates_lines = (out / "rates.csv").read_text().splitlines()
    assert rates_lines[0] == "n,k,k_ratio,trials,successes,aborted,rate,stderr"
    # the aggregate file is re-derivable from the raw trial rows
    recount = sum(r["success"] for r in rows)
    assert int(rates_lines[1].split(",")[4]) == recount
    assert (out / "transitions.csv").exists()


def test_sweep_cli_ratio_grid_has_no_drift(tmp_path, capsys):
    # an accumulated grid reaches 0.25000000000000006 at the third step and
    # rounds k = 2.5000000000000004 up to 3; the typed 0.25 gives k = 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "BDR", "n": 10, "k_ratio": 3,
                               "trials": 1, "seed": 2, "max_iter": 5}))
    out = tmp_path / "grid"
    rc = main(["sweep", "--config", str(cfg), "--ratio-min", "0.05",
               "--ratio-max", "0.95", "--ratio-step", "0.1", "--out", str(out)])
    assert rc == EXIT_OK
    capsys.readouterr()
    rates = [line.split(",") for line in (out / "rates.csv").read_text().splitlines()[1:]]
    assert [int(r[1]) for r in rates] == [1, 2, 2, 4, 4, 6, 6, 8, 8, 10]


def test_verify_cli_exit_codes(tmp_path, capsys):
    rc = main(["verify", "lmatrix", "--n", "4", "--k", "12", "--draws", "20",
               "--seed", "1", "--out", str(tmp_path / "v")])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert (tmp_path / "v" / "verify_lmatrix.json").exists()


def test_verify_uniqueness_cli(capsys, tmp_path):
    rc = main(["verify", "uniqueness", "--n", "4", "--k", "6", "--d", "2",
               "--draws", "10", "--seed", "0", "--out", str(tmp_path / "u")])
    assert rc == EXIT_OK
    capsys.readouterr()


def test_verify_failing_check_exits_3(capsys, tmp_path):
    # k far below the 1-D bound: the rank certificate fails on every draw
    rc = main(["verify", "uniqueness", "--n", "8", "--k", "2", "--d", "1",
               "--draws", "10", "--seed", "0", "--out", str(tmp_path / "f")])
    assert rc == EXIT_CHECK_FAILED
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False and payload["rate"] < 0.99


@pytest.mark.parametrize("what,count", [
    ("uniqueness", ["--draws", "0"]),
    ("stability", ["--pairs", "0"]),
    ("robustness", ["--instances", "0"]),
    ("lmatrix", ["--draws", "0"]),
    ("frip", ["--num-h", "0"]),
    ("frip", ["--draws", "1"]),
    ("frip", ["--n", "4", "--k", "0", "--draws", "10", "--num-h", "1"]),
])
def test_verify_rejects_empty_counts(what, count, capsys, tmp_path):
    # an empty loop must not pass vacuously nor die with an unrelated error
    rc = main(["verify", what, *count, "--out", str(tmp_path / "e")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")
    assert not (tmp_path / "e" / f"verify_{what}.json").exists()


@pytest.mark.parametrize("command,count,summary", [
    ("image-bench", "--trials=0", "image_summary.json"),
    ("image-bench", "--trials=-1", "image_summary.json"),
    ("noise-bench", "--trials=0", "noise_summary.json"),
    ("location-bias", "--trials=0", "location_summary.json"),
    ("location-bias", "--positions=0", "location_summary.json"),
])
def test_studies_reject_empty_counts(command, count, summary, capsys, tmp_path):
    # no preset fallback for an explicit 0, no empty summary, no NaN in the JSON
    from bgret.harness import synthetic_test_image
    img = tmp_path / "img.csv"
    write_image(img, synthetic_test_image(8))
    rc = main([command, "--image", str(img), "--max-iter", "5", count,
               "--out", str(tmp_path / "e")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")
    assert not (tmp_path / "e" / summary).exists()


def test_sweep_cli_rejects_empty_ratio_range(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "BDR", "n": 10, "k_ratio": 3,
                               "trials": 1, "seed": 2, "max_iter": 5}))
    out = tmp_path / "empty"
    rc = main(["sweep", "--config", str(cfg), "--ratio-min", "3",
               "--ratio-max", "2", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "--ratio-max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lo,hi", [("-1", "-1"), ("0", "1"), ("0", "0")])
def test_sweep_cli_rejects_nonpositive_ratio(lo, hi, tmp_path, capsys):
    # k = max(1, round(ratio * n)) would run k = 1 and report k_ratio lo
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "BDR", "n": 10, "k_ratio": 3,
                               "trials": 1, "seed": 2, "max_iter": 5}))
    out = tmp_path / "nonpositive"
    rc = main(["sweep", "--config", str(cfg), "--ratio-min", lo,
               "--ratio-max", hi, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "--ratio-min" in capsys.readouterr().err
    assert not out.exists()


def test_gen_signal_type3_cli(tmp_path, capsys):
    src = tmp_path / "src.csv"
    write_signal_csv(src, [1.0, 2.0, 3.0])
    out = tmp_path / "o3"
    rc = main(["gen-signal", "--type", "3", "--n", "3", "--input", str(src),
               "--out", str(out)])
    assert rc == EXIT_OK
    capsys.readouterr()
    assert read_signal_csv(out / "signal_type3_n3.csv").tolist() == [1.0, 2.0, 3.0]


def test_location_bias_cli_small(tmp_path, capsys):
    img = tmp_path / "img.csv"
    from bgret.harness import synthetic_test_image
    write_image(img, synthetic_test_image(8))
    out = tmp_path / "bias"
    with pytest.warns(RuntimeWarning, match="SSIM window"):
        rc = main(["location-bias", "--image", str(img), "--k-ratio", "2.0",
                   "--positions", "3", "--trials", "1", "--max-iter", "40",
                   "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    capsys.readouterr()
    summary = json.loads((out / "location_summary.json").read_text())
    assert len(summary["positions"]) == 3
    assert summary["positions"][0]["offset"] == [0, 0]


def test_noise_bench_cli_small(tmp_path, capsys):
    img = tmp_path / "img.csv"
    from bgret.harness import synthetic_test_image
    write_image(img, synthetic_test_image(8))
    out = tmp_path / "noise"
    with pytest.warns(RuntimeWarning, match="SSIM window"):
        rc = main(["noise-bench", "--image", str(img), "--sigma", "0.001",
                   "--k-ratio", "3.0", "--trials", "2", "--max-iter", "40",
                   "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    capsys.readouterr()
    summary = json.loads((out / "noise_summary.json").read_text())
    assert set(summary["summary"]) == {"pgd", "bdr", "bdr1"}


def test_image_bench_cli_small(tmp_path, capsys):
    img = tmp_path / "img.csv"
    from bgret.harness import synthetic_test_image
    write_image(img, synthetic_test_image(12))
    out = tmp_path / "bench"
    rc = main(["image-bench", "--image", str(img), "--k-ratio", "2.0",
               "--trials", "2", "--max-iter", "60", "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    capsys.readouterr()
    assert (out / "image_trials.csv").exists()
    summary = json.loads((out / "image_summary.json").read_text())
    assert "bdr" in summary and "pgd" in summary
