import hashlib
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from bgret.cli import EXIT_CHECK_FAILED, EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main
from bgret.io_formats import (read_image, read_results, read_signal_csv, write_image,
                              write_signal_csv)
from bgret.metrics import measurement_error
from bgret.model import IntensityMeasurements, Method, SolverConfig, SupportMask, assemble
from bgret.solvers import cbdr_parallel_real, run
from bgret.spectral import intensity


def test_usage_error_exit_code(capsys):
    assert main(["solve"]) == EXIT_USAGE  # missing --method
    capsys.readouterr()
    assert main(["not-a-command"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--method", "bdr", "--signal", "sig.csv", "--max-iter", "5"],
     ["--preset", "paper"]),
    (["solve", "--method", "bdr", "--signal", "sig.csv", "--max-iter", "5"],
     ["--workers", "2"]),
    (["verify", "stability", "--pairs", "2"], ["--workers", "4"]),
    (["gen-signal", "--n", "4"], ["--config", "cfg.json"]),
    (["forward", "--signal", "sig.csv"], ["--preset", "desk"]),
    (["metrics", "--truth", "sig.csv", "--estimate", "sig.csv"], ["--out", "d"]),
    (["metrics", "--truth", "sig.csv", "--estimate", "sig.csv"], ["--seed", "1"]),
    # each verify target takes only the flags it reads
    (["verify", "stability", "--pairs", "3"], ["--n", "5"]),
    (["verify", "stability", "--pairs", "3"], ["--d", "2"]),
    (["verify", "stability", "--pairs", "3"], ["--num-h", "9"]),
    (["verify", "lmatrix", "--draws", "5"], ["--c1", "7"]),
    (["verify", "lmatrix", "--draws", "5"], ["--num-h", "2"]),
    (["verify", "uniqueness", "--draws", "5"], ["--pairs", "3"]),
    (["verify", "robustness", "--instances", "3"], ["--draws", "5"]),
    (["verify", "frip", "--n", "4", "--k", "8", "--draws", "20"], ["--c2", "1e-3"]),
    # flags are spelled in full: a prefix of one the subcommand takes is not read as it
    (["verify", "frip", "--n", "4", "--k", "8", "--draws", "20"], ["--d", "2"]),
    (["solve", "--method", "bdr", "--signal", "sig.csv", "--max-iter", "5"],
     ["--sig", "sig.csv"]),
])
def test_flags_a_subcommand_ignores_are_usage_errors(argv, flag, tmp_path, monkeypatch,
                                                     capsys):
    # each subcommand takes only the shared flags it reads
    monkeypatch.chdir(tmp_path)
    write_signal_csv(tmp_path / "sig.csv", np.arange(1.0, 9.0))
    assert main(argv) == EXIT_OK
    assert main(argv + flag) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


SPECTRUM_SOLVE = ["solve", "--method", "hio", "--spectrum", "spec.csv", "--support", "4",
                  "4", "--max-iter", "5"]
SIGNAL_SOLVE = ["solve", "--method", "bdr", "--signal", "sig.csv", "--max-iter", "5"]


@pytest.mark.parametrize("argv, flag", [
    (SPECTRUM_SOLVE, ["--signal", "sig.csv"]),
    (SPECTRUM_SOLVE, ["--image", "sig.csv"]),
    (SPECTRUM_SOLVE, ["--k-ratio", "3"]),
    (SPECTRUM_SOLVE, ["--noise-sigma", "0"]),
    (SPECTRUM_SOLVE, ["--seed", "3"]),
    (SIGNAL_SOLVE, ["--support", "3"]),
])
def test_solve_rejects_the_other_modes_flags(argv, flag, tmp_path, monkeypatch, capsys):
    # --spectrum mode and the signal/image mode take disjoint inputs
    monkeypatch.chdir(tmp_path)
    write_signal_csv(tmp_path / "sig.csv", np.arange(1.0, 9.0))
    write_image(tmp_path / "spec.csv", intensity(np.arange(64.0).reshape(8, 8)).values)
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main(argv + flag) == EXIT_USAGE
    assert flag[0] in capsys.readouterr().err


def test_readme_cli_examples_parse():
    # every `bgret ...` line of the README's CLI block names flags that exist
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("bgret ")]
    assert examples
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)


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
    # the report carries every metric column of a result row
    assert json.loads((out / "solve_report.json").read_text()) == payload
    assert payload["converged"] and payload["fixedpoint_resid"] <= 1e-8
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


def test_solve_cli_spectrum_reports_the_recovered_point(tmp_path, capsys):
    # the report's measurement error is that of recovered.csv's values, not
    # that of the iterate before HIO's final projection
    rng = np.random.default_rng(5)
    mask = SupportMask.centered((20, 20), (8, 8))
    obj = assemble(rng.random(64) + 0.5, np.zeros(mask.shape), mask)
    spec_path = tmp_path / "spectrum.csv"
    write_image(spec_path, intensity(obj).values)
    out = tmp_path / "hio"
    assert main(["solve", "--method", "hio", "--spectrum", str(spec_path),
                 "--support", "8", "8", "--max-iter", "50", "--out", str(out)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    b = IntensityMeasurements(read_image(spec_path), conj_symmetric=False)
    zeros = np.zeros(mask.shape)
    direct = run(b, zeros, mask, SolverConfig(method=Method.HIO, max_iter=50))
    assert np.array_equal(mask.to_block(direct.final_estimate), read_image(out / "recovered.csv"))
    assert payload["measurement_error"] == measurement_error(direct.final_estimate, zeros,
                                                             mask, b)


def test_solve_cli_data_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    rc = main(["solve", "--method", "bdr", "--signal", str(missing)])
    assert rc == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize("argv, files", [
    # a directory where an input file belongs
    (["solve", "--method", "bdr", "--image", "adir.csv"], {}),
    # a pixel above the PGM's maxval
    (["metrics", "--image-truth", "p.pgm", "--image-estimate", "p.pgm"],
     {"p.pgm": "P2\n2 1\n255\n300 0\n"}),
    # a value that is no finite number
    (["metrics", "--image-truth", "n.csv", "--image-estimate", "n.csv"],
     {"n.csv": "1,nan\n2,3\n"}),
    # a config number that is not finite, and a config nested too deep to parse
    (["sweep", "--config", "c.json"],
     {"c.json": '{"method": "bdr", "n": 8, "trials": 2, "seed": 1, "eps": Infinity}'}),
    (["sweep", "--config", "c.json"], {"c.json": "[" * 100000}),
    # a master seed outside 0..2^64-1, in a config or in --seed
    (["sweep", "--config", "c.json"],
     {"c.json": '{"method": "bdr", "n": 8, "trials": 2, "seed": 18446744073709551616}'}),
    (["sweep", "--config", "c.json"],
     {"c.json": '{"method": "bdr", "n": 8, "trials": 2, "seed": -1}'}),
    (["solve", "--method", "bdr", "--signal", "s.csv", "--seed", "-1"], {"s.csv": "1\n2\n"}),
    # no file format holds a 3-D array
    (["gen-background", "--shape", "4", "4", "4", "--sample", "2", "2", "2"], {}),
])
def test_bad_input_files_are_data_errors(argv, files, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir.csv").mkdir()
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


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


def test_sweep_cli_any_dimension(tmp_path, capsys):
    # the config's n is the sample shape; the rows, rates.csv, transitions.csv
    # and the progress line name it by its shape token
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "bdr", "n": [6, 6], "trials": 2, "seed": 1,
                               "max_iter": 30}))
    out = tmp_path / "sweep"
    with pytest.warns(RuntimeWarning, match="SSIM window"):  # a 6x6 sample is below it
        assert main(["sweep", "--config", str(cfg), "--ratio-min", "1", "--ratio-max", "1",
                     "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("n=6x6 k/n=1:")
    assert [(r["n"], r["k"]) for r in read_results(out / "trials.csv")] == [("6x6", "6x6")] * 2
    assert (out / "rates.csv").read_text().splitlines()[1].startswith("6x6,6x6,1,2,")
    assert (out / "transitions.csv").read_text().splitlines()[1].startswith("6x6,")


def test_sweep_cli_signal_csv(tmp_path, capsys):
    # signal_type 3 sweeps run the signal of paths.signal in every trial; a
    # config that lacks it or names a file that is not there is a data error
    sig = tmp_path / "sig.csv"
    write_signal_csv(sig, np.arange(1.0, 7.0))
    cfg = tmp_path / "cfg.json"
    base = {"method": "bdr", "n": 6, "trials": 2, "seed": 1, "max_iter": 50,
            "signal_type": 3}
    argv = ["sweep", "--config", str(cfg), "--ratio-min", "3", "--ratio-max", "3",
            "--out", str(tmp_path / "out")]
    cfg.write_text(json.dumps({**base, "paths": {"signal": str(sig)}}))
    assert main(argv) == EXIT_OK
    echo = json.loads((tmp_path / "out" / "trials.csv.manifest.json").read_text())["config"]
    assert echo["paths"] == {"signal": str(sig)}
    for paths in ({}, {"signal": str(tmp_path / "missing.csv")}):
        cfg.write_text(json.dumps({**base, "paths": paths}))
        assert main(argv) == EXIT_DATA
    capsys.readouterr()


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
    for n, k, d in (("4", "6", "2"), ("4", "4", "3")):
        rc = main(["verify", "uniqueness", "--n", n, "--k", k, "--d", d,
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
    ("lmatrix", ["--n", "0", "--draws", "5"]),
    ("uniqueness", ["--d", "0"]),
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
    # a worker count below 1 is no count either
    ("image-bench", "--workers=0", "image_summary.json"),
    ("noise-bench", "--workers=-4", "noise_summary.json"),
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


def _study_bytes(out, stem):
    # the trials CSV without wall_ms, the manifest's seed and config, and
    # the summary JSON without mean_wall_ms: the deterministic study output
    lines = (out / f"{stem}_trials.csv").read_text().splitlines()
    wall = lines[0].split(",").index("wall_ms")
    text = "".join(",".join(f for i, f in enumerate(line.split(",")) if i != wall) + "\n"
                   for line in lines)
    manifest = json.loads((out / f"{stem}_trials.csv.manifest.json").read_text())
    summary = (out / f"{stem}_summary.json").read_text()
    summary = "".join(line + "\n" for line in summary.splitlines()
                      if '"mean_wall_ms"' not in line)
    return (text + json.dumps([manifest["seed"], manifest["config"]], sort_keys=True)
            + "\n" + summary).encode()


FROZEN_CLI_OUTPUTS = {
    "image-bench":
        "fa0cae310697046cfd0cb3b254513440c5c92dedc94e2192dffba5d8ecda6cea",
    "noise-bench":
        "ffcd6a832aac150ee77ad5b4046fef0a310f4742a899f7e276b3e062190f9b7a",
    "location-bias":
        "970da47bd9e2c0b8fbacc524c77a067ec7751913a8904481c8126c716ba9973a",
    "solve-spectrum":
        "8f608c8476804f560c17e8559c021452a58378dfffb2575eec85d482e76d3824",
    "verify-uniqueness":
        "e238157d9414857f612d22785de42eacdfd050b4f86069d28a0c857cc014869c",
    "verify-stability":
        "eb2e05cd9cb4f9699d6d3dc0a803db3c04aaa65b7e040d2eac2c5367697ddedf",
    "verify-robustness":
        "3c2c17cf6caa6226c5fab1d28b6e3fd5362e7760c7f817ce88060ab15c24cc6b",
    "verify-lmatrix":
        "b9c56a9e9f2342a4cf6385da0510063851a57788e26d5144a130f3069e88ee9d",
    "verify-frip":
        "9e48c0eba6c275607ee7da9892d4551b5070ce9beec3c93f4e9450cdb7be2601",
    "gen-signal":
        "830e528b097e500b78e7718af1e4aa4c630b7ccd4b3568ff70b4c538f26cbc88",
    "gen-background":
        "6f4b722b3117a867b77dfa12e1acd90c134c9af17413772127f9204d6292276f",
    "forward":
        "609c429497fb26aa91cdaacb0b1ae082bdea9579f9989a4d0927f31f19fa8b13",
    "solve-bdr":
        "056ee3eab9082682afa3964b1f4864f664ed58723a3ae503414094e6f1a69571",
    "solve-bdr1-noisy":
        "3ca1b73a98438f09b5f0449a82b2f5c207921c1e7faa3df4954513e2d140cd6f",
    "sweep":
        "e22b995bd021e9e9ccc51e87ad4ac2fc6ba9b4e21555eb8a2f312da1d87c5f76",
}


def test_cli_outputs_frozen(tmp_path, capsys):
    # SHA-256 of what each command writes, wall-clock fields, time stamps
    # and the output path stripped. The image is 8x8 and every grid is at
    # most 40 points per axis, where the norms' bits do not depend on the
    # BLAS thread count.
    from bgret.harness import synthetic_test_image
    img = tmp_path / "img.csv"
    write_image(img, synthetic_test_image(8))
    common = ["--image", str(img), "--seed", "3", "--max-iter", "30"]
    studies = {
        "image-bench": (["--k-ratio", "0.6", "--trials", "2"], "image"),
        "noise-bench": (["--sigma", "0.001", "--k-ratio", "3", "--trials", "2"], "noise"),
        "location-bias": (["--k-ratio", "2", "--positions", "3", "--trials", "2"],
                          "location"),
    }
    outputs = {}
    for command, (flags, stem) in studies.items():
        out = tmp_path / command
        with pytest.warns(RuntimeWarning, match="SSIM window"):
            assert main([command, *common, *flags, "--out", str(out)]) == EXIT_OK
        outputs[command] = _study_bytes(out, stem)

    obj = np.zeros((12, 12))
    obj[3:9, 3:9] = synthetic_test_image(8)[1:7, 1:7]
    write_image(tmp_path / "spectrum.csv", intensity(obj).values)
    out = tmp_path / "spectrum"
    assert main(["solve", "--method", "hio", "--spectrum", str(tmp_path / "spectrum.csv"),
                 "--support", "6", "6", "--max-iter", "40", "--out", str(out)]) == EXIT_OK
    report = (out / "solve_report.json").read_text().replace(str(out), "")
    outputs["solve-spectrum"] = (report + (out / "recovered.csv").read_text()).encode()

    for what, flags in (("uniqueness", ["--n", "4", "--k", "6", "--d", "2", "--draws", "5"]),
                        ("stability", ["--pairs", "3"]),
                        ("robustness", ["--instances", "3"]),
                        ("lmatrix", ["--n", "4", "--k", "12", "--draws", "10"]),
                        ("frip", ["--n", "4", "--k", "8", "--draws", "20", "--num-h", "2"])):
        out = tmp_path / what
        assert main(["verify", what, *flags, "--seed", "5", "--out", str(out)]) == EXIT_OK
        outputs[f"verify-{what}"] = (out / f"verify_{what}.json").read_bytes()

    out = tmp_path / "gen-signal"
    assert main(["gen-signal", "--type", "2", "--n", "10", "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    sig = out / "signal_type2_n10.csv"
    outputs["gen-signal"] = sig.read_bytes()
    out = tmp_path / "gen-background"
    assert main(["gen-background", "--shape", "12", "10", "--sample", "4", "6",
                 "--placement", "center", "--mu", "0.5", "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    outputs["gen-background"] = (out / "background.csv").read_bytes()

    out = tmp_path / "forward"
    assert main(["forward", "--image", str(img), "--k-ratio", "2", "--noise-sigma", "0.01",
                 "--seed", "3", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "measurements.csv.manifest.json").read_text())
    outputs["forward"] = ((out / "measurements.csv").read_bytes()
                          + (out / "background.csv").read_bytes()
                          + json.dumps([manifest[key] for key in
                                        ("seed", "config", "input_digests")],
                                       sort_keys=True).encode())

    for name, flags in (("solve-bdr", ["--method", "bdr", "--signal", str(sig),
                                       "--k-ratio", "3"]),
                        ("solve-bdr1-noisy", ["--method", "bdr1", "--image", str(img),
                                              "--k-ratio", "2", "--noise-sigma", "0.001"])):
        out = tmp_path / name
        with warnings.catch_warnings():  # the 8x8 image is below the SSIM window
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["solve", *flags, "--seed", "3", "--max-iter", "30",
                         "--out", str(out)]) == EXIT_OK
        report = (out / "solve_report.json").read_text().replace(str(out), "")
        outputs[name] = (report + (out / "recovered.csv").read_text()).encode()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "bdr", "n": 8, "trials": 2, "seed": 1,
                               "max_iter": 30}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--ratio-min", "1", "--ratio-max", "3",
                 "--ratio-step", "1", "--out", str(out)]) == EXIT_OK
    lines = (out / "trials.csv").read_text().splitlines()
    trials = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)  # wall_ms is last
    manifest = json.loads((out / "trials.csv.manifest.json").read_text())
    outputs["sweep"] = (trials + (out / "rates.csv").read_text()
                        + (out / "transitions.csv").read_text()
                        + json.dumps([manifest[key] for key in ("seed", "config", "extra")],
                                     sort_keys=True)).encode()
    capsys.readouterr()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == FROZEN_CLI_OUTPUTS
