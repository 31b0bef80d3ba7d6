import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgret.cli import (EXIT_CHECK_FAILED, EXIT_DATA, EXIT_OK, EXIT_USAGE, SystemExit2,
                       build_parser, main)
from bgret.harness import resolve_workers
from bgret.io_formats import (parse_float, parse_int, read_image, read_results,
                              read_signal_csv, write_image, write_signal_csv)
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


def readme_examples() -> list:
    """The argv of every `bgret ...` line of the README's CLI block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bgret ")]


def test_readme_cli_examples_parse():
    # every `bgret ...` line of the README's CLI block names flags that exist
    examples = readme_examples()
    assert examples
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)


# -- bad input of any kind ends in a documented exit code -------------------------

# The files a generated argv may name, written into each case's directory:
# valid small inputs, files of the wrong kind or content, a directory and a
# missing path.
CASE_FILES = ("sig.csv", "img.csv", "cfg.json", "bad.csv", "bad.json", "dir", "missing.csv")
# "1_0" and "+5" are tokens Python's int or float reads and the number rule
# of files and flags refuses
INTS = ("-1", "0", "1", "2", "3", "4", "x", "1_0", "+5")
FLOATS = ("-1", "0", "0.001", "0.5", "1", "2", "3", "nan", "inf", "-inf", "x", "1_0")
SEEDS = ("0", "7", "-1", str(2**64), "x")
OUTS = ("out", "o/deep", ".", "", "sig.csv")
#: the values a README flag's value is replaced by; --shape, --sample and
#: --support take one to three of them. --d stops at 2: a 3-D certificate at
#: the default --n and --k takes about 0.4 s and 160 MB per draw (criterion 17
#: covers d = 3), and one at --d 6 under the size cap (--n 3 --k 3) 0.7 s and
#: 220 MB.
FLAG_VALUES = {
    "--type": INTS, "--n": INTS, "--k": INTS, "--d": ("-1", "0", "1", "2", "x"),
    "--draws": INTS,
    "--pairs": INTS, "--instances": INTS, "--num-h": INTS, "--trials": INTS,
    "--positions": INTS, "--shape": INTS, "--sample": INTS,
    "--k-ratio": FLOATS, "--sigma": FLOATS, "--c1": FLOATS, "--c2": FLOATS,
    "--ratio-min": FLOATS, "--ratio-max": FLOATS, "--ratio-step": FLOATS,
    "--seed": SEEDS, "--out": OUTS, "--method": ("bdr", "pgd", "cbdr", "hio", "bdr1", "x"),
    "--signal": CASE_FILES, "--config": CASE_FILES, "--truth": CASE_FILES,
    "--estimate": CASE_FILES, "--spectrum": CASE_FILES, "--support": INTS,
    "--max-iter": INTS, "--image-truth": CASE_FILES, "--image-estimate": CASE_FILES,
    "--eps": FLOATS, "--beta": FLOATS, "--lam": FLOATS, "--mu": FLOATS,
}
#: the image studies default to a 64x64 image and 300 iterations; a case
#: gives them a small image and a few iterations
STUDIES = ("image-bench", "location-bias", "noise-bench")


def _write_case_files(where: Path) -> None:
    write_signal_csv(where / "sig.csv", np.arange(1.0, 9.0))
    write_image(where / "img.csv", np.arange(36.0).reshape(6, 6) / 36.0)
    (where / "cfg.json").write_text(json.dumps({"method": "bdr", "n": 4, "trials": 2,
                                                "seed": 1, "max_iter": 3}))
    (where / "bad.csv").write_text("1,x\n")
    (where / "bad.json").write_text("{")
    (where / "dir").mkdir()


@st.composite
def cli_argvs(draw):
    """A README example with each flag kept, dropped or repeated and each
    value replaced by a small generated one."""
    example = draw(st.sampled_from(readme_examples()))
    first = next(i for i, token in enumerate(example) if token.startswith("--"))
    argv = example[:first]
    groups, flag = [], None
    for token in example[first:]:
        if token.startswith("--"):
            flag = token
            groups.append(flag)
    for flag in groups:
        pool = FLAG_VALUES[flag]
        count = draw(st.integers(1, 3)) if flag in ("--shape", "--sample", "--support") else 1
        for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2)))):
            argv += [flag, *draw(st.lists(st.sampled_from(pool), min_size=count,
                                          max_size=count))]
    if argv[0] in STUDIES:
        argv += ["--image", "img.csv", "--max-iter", draw(st.sampled_from(INTS))]
    return argv


def test_every_readme_flag_has_generated_values():
    flags = {token for argv in readme_examples() for token in argv if token.startswith("--")}
    assert flags <= set(FLAG_VALUES)


@settings(max_examples=300, deadline=None)
@given(argv=cli_argvs())
# a draw that random search meets about once in 50000 (6000 draws missed it):
# PGD at an infinite step once escaped main as a DivergenceError traceback
@example(argv=["solve", "--method", "pgd", "--signal", "sig.csv", "--lam", "inf"])
@example(argv=["sweep", "--config", "cfg.json", "--ratio-min", "inf"])
def test_cli_returns_a_documented_exit_code(argv, tmp_path_factory):
    # main returns 0-3 for any such argv and raises nothing; each case runs
    # in a directory of its own
    case = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    _write_case_files(case)
    cwd = os.getcwd()
    os.chdir(case)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_CHECK_FAILED), argv


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


def _strict_json(text):
    # JSON as RFC 8259 has it: NaN and Infinity are not numbers there
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_json_outputs_are_strict(tmp_path, capsys):
    # a 1-D solve has no PSNR/SSIM, and identical images have PSNR +inf;
    # both are written as null, in the report and on stdout alike
    sig = tmp_path / "x.csv"
    write_signal_csv(sig, np.random.default_rng(0).standard_normal(6))
    out = tmp_path / "solve"
    assert main(["solve", "--method", "bdr", "--signal", str(sig), "--k-ratio", "3",
                 "--seed", "5", "--max-iter", "20", "--out", str(out)]) == EXIT_OK
    payload = _strict_json(capsys.readouterr().out)
    assert payload["psnr"] is None and payload["ssim"] is None
    assert _strict_json((out / "solve_report.json").read_text()) == payload

    img = tmp_path / "img.csv"
    write_image(img, np.arange(144.0).reshape(12, 12))
    assert main(["metrics", "--image-truth", str(img), "--image-estimate", str(img)]) == EXIT_OK
    payload = _strict_json(capsys.readouterr().out)
    assert payload["psnr"] is None and payload["ssim"] == 1.0 and payload["success"]


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


def test_forward_then_solve_round_trips_a_1d_spectrum(tmp_path, capsys):
    # forward writes a 1-D spectrum as one row; solve --spectrum with one
    # --support extent reads it back as 1-D, the measurements forward drew
    sig = tmp_path / "sig.csv"
    write_signal_csv(sig, np.random.default_rng(2).random(10) + 0.5)
    out = tmp_path / "out"
    assert main(["forward", "--signal", str(sig), "--k-ratio", "3", "--seed", "7",
                 "--out", str(out)]) == EXIT_OK
    assert main(["solve", "--method", "hio", "--spectrum", str(out / "measurements.csv"),
                 "--support", "10", "--max-iter", "50", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    b = IntensityMeasurements(read_image(out / "measurements.csv")[0], conj_symmetric=False)
    direct = run(b, np.zeros(40), SupportMask.centered((40,), (10,)),
                 SolverConfig(method=Method.HIO, max_iter=50))
    assert read_signal_csv(out / "recovered.csv").tobytes() == direct.final_estimate.tobytes()


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


def test_verify_uniqueness_cli_refuses_an_oversized_certificate(capsys, tmp_path):
    # --d 4 at the default --n 8 --k 24 would need a 16 GB coefficient
    # matrix, --d 6 a 2^30-cell grid; the size guard turns each into a data
    # error before anything of that size is built
    import tracemalloc
    for d in ("4", "6"):
        tracemalloc.start()
        try:
            rc = main(["verify", "uniqueness", "--d", d, "--draws", "1",
                       "--out", str(tmp_path / "u")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_DATA
        assert "entries" in capsys.readouterr().err
        assert peak < 16 * 2**20


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


@pytest.mark.parametrize("lo,hi,step,flag", [
    pytest.param("-1", "-1", "0.1", "--ratio-min", id="-1--1"),
    pytest.param("0", "1", "0.1", "--ratio-min", id="0-1"),
    pytest.param("0", "0", "0.1", "--ratio-min", id="0-0"),
    pytest.param("2", "3", "0", "--ratio-step", id="step-0"),
    pytest.param("2", "3", "-0.1", "--ratio-step", id="step--0.1"),
    # an infinite --ratio-min once raised OverflowError out of main; an
    # infinite step would give an empty grid
    pytest.param("inf", "7", "0.1", "--ratio-min", id="inf-7"),
    pytest.param("2", "3", "inf", "--ratio-step", id="step-inf"),
])
def test_sweep_cli_rejects_nonpositive_ratio(lo, hi, step, flag, tmp_path, capsys):
    # k = max(1, round(ratio * n)) would run k = 1 and report k_ratio lo; a
    # step of 0 or below would never reach --ratio-max
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "BDR", "n": 10, "k_ratio": 3,
                               "trials": 1, "seed": 2, "max_iter": 5}))
    out = tmp_path / "nonpositive"
    rc = main(["sweep", "--config", str(cfg), "--ratio-min", lo,
               "--ratio-max", hi, "--ratio-step", step, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    # each of these once raised OverflowError or ZeroDivisionError out of main
    (["solve", "--method", "bdr", "--signal", "sig.csv", "--k-ratio", "inf"], EXIT_DATA),
    (["sweep", "--config", "cfg.json", "--ratio-max", "inf"], EXIT_USAGE),
    (["verify", "robustness", "--instances", "1", "--c1", "nan"], EXIT_DATA),
    (["verify", "robustness", "--instances", "1", "--c2", "inf"], EXIT_DATA),
    (["verify", "frip", "--n", "0", "--k", "0", "--draws", "2"], EXIT_DATA),
    # a negative noise bound, rejected by the same guard
    (["verify", "robustness", "--instances", "1", "--c1", "-1"], EXIT_DATA),
    # a guard no README example reaches: a 1-D support for a 2-D spectrum
    (["solve", "--method", "hio", "--spectrum", "img.csv", "--support", "3"], EXIT_USAGE),
    # a noise level below 0 or NaN once ran as the noiseless sigma = 0
    (["forward", "--signal", "sig.csv", "--noise-sigma", "-1"], EXIT_DATA),
    (["forward", "--signal", "sig.csv", "--noise-sigma", "nan"], EXIT_DATA),
    (["solve", "--method", "bdr", "--signal", "sig.csv", "--noise-sigma", "-1"], EXIT_DATA),
    (["noise-bench", "--image", "img.csv", "--sigma", "nan", "--trials", "1",
      "--max-iter", "3"], EXIT_DATA),
    # a k/n ratio of 0 or below once ran a one-cell background
    (["solve", "--method", "bdr", "--signal", "sig.csv", "--k-ratio", "-3"], EXIT_DATA),
    (["solve", "--method", "bdr", "--signal", "sig.csv", "--k-ratio", "0"], EXIT_DATA),
    (["image-bench", "--image", "img.csv", "--k-ratio", "0", "--trials", "1"], EXIT_DATA),
    (["location-bias", "--image", "img.csv", "--k-ratio", "-1", "--trials", "1"], EXIT_DATA),
    # a solver setting that is not finite once ran, and PGD's step at lam = inf
    # escaped main as a DivergenceError traceback
    (["solve", "--method", "pgd", "--signal", "sig.csv", "--lam", "inf"], EXIT_DATA),
    (["solve", "--method", "bdr", "--signal", "sig.csv", "--eps", "nan"], EXIT_DATA),
    (["solve", "--method", "bdr", "--signal", "sig.csv", "--eps", "inf"], EXIT_DATA),
])
def test_values_without_meaning_exit_with_their_code(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_case_files(tmp_path)
    assert main(argv) == code
    capsys.readouterr()


SOLVER_EDGE_VALUES = [(flag, value) for flag in ("--lam", "--beta", "--eps")
                      for value in ("0", "-1", "nan", "inf", "1e308")] + [("--beta", "2")]


@pytest.mark.parametrize("flag, value", SOLVER_EDGE_VALUES)
@pytest.mark.parametrize("method", [m.value for m in Method])
def test_solver_edge_values_exit_0_or_2_for_every_method(method, flag, value, tmp_path,
                                                         monkeypatch, capsys):
    # the steps trust lam and beta, so every method's solve meets each edge
    # value at SolverConfig or runs it: a data error or a result, no traceback
    monkeypatch.chdir(tmp_path)
    _write_case_files(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--method", method, "--signal", "sig.csv", flag, value])
    assert code in (EXIT_OK, EXIT_DATA)
    capsys.readouterr()


def test_a_diverging_solve_is_one_data_error_line(tmp_path, monkeypatch, capsys):
    # PGD's step at lam = 1e300 overflows, which once escaped main as a
    # traceback: one line on stderr, no output files
    monkeypatch.chdir(tmp_path)
    _write_case_files(tmp_path)
    argv = ["solve", "--method", "pgd", "--signal", "sig.csv", "--lam", "1e300"]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: non-finite iterate") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--sigma", "nan"), ("--sigma", "inf"),
                                         ("--sigma", "0"), ("--mu", "nan"), ("--mu", "inf")])
def test_gen_background_writes_no_file_for_a_level_without_meaning(flag, value, tmp_path,
                                                                   capsys):
    # a level that is not finite once wrote nan or inf into background.csv
    out = tmp_path / "bg"
    assert main(["gen-background", "--shape", "12", "--sample", "4", flag, value,
                 "--out", str(out)]) == EXIT_DATA
    assert f"{flag[2:]}=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["metrics", "--truth", "sig.csv"], "--estimate"),
    (["metrics", "--image-truth", "img.csv"], "--image-estimate"),
    (["metrics"], "--truth"),
    (["solve", "--method", "hio", "--spectrum", "spec.csv"], "--support"),
])
def test_cli_input_pairs_name_the_missing_flag(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_signal_csv(tmp_path / "sig.csv", np.arange(1.0, 9.0))
    write_image(tmp_path / "img.csv", np.arange(64.0).reshape(8, 8))
    write_image(tmp_path / "spec.csv", intensity(np.arange(64.0).reshape(8, 8)).values)
    assert main(argv) == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_bgret_workers_is_a_data_error(tmp_path, monkeypatch, capsys):
    # read as an integer token, not by Python's int, which takes "1_6" as 16
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "BDR", "n": 10, "k_ratio": 3,
                               "trials": 1, "seed": 2, "max_iter": 5}))
    monkeypatch.setenv("BGRET_WORKERS", "1_6")
    out = tmp_path / "workers"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
    assert "BGRET_WORKERS" in capsys.readouterr().err
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
        "36b9ad348b4ff8317fa66ce09452ad513f0f0f3e2c60731e57c11350b47047f7",
    "noise-bench":
        "d651d0978d4a59bbd549a94f4e1d08cdfe75631c9479be59b4d19707c0a1aee8",
    "location-bias":
        "f3698740ed09f1ee3645e7ed464f611166b85a7aa8e6b08147ea71b64c5ba281",
    "solve-spectrum":
        "a3391ca40e3510e8b213cf8af7e57ff6a4c02a2ae4acbbcd5fd2459423958251",
    "verify-uniqueness":
        "e238157d9414857f612d22785de42eacdfd050b4f86069d28a0c857cc014869c",
    "verify-stability":
        "eb2e05cd9cb4f9699d6d3dc0a803db3c04aaa65b7e040d2eac2c5367697ddedf",
    "verify-robustness":
        "8a10f33e12844357f7bd9a85dd6d5abdfe5a614b6c5765de84ca9980b70ca9d1",
    "verify-lmatrix":
        "b9c56a9e9f2342a4cf6385da0510063851a57788e26d5144a130f3069e88ee9d",
    "verify-frip":
        "9e48c0eba6c275607ee7da9892d4551b5070ce9beec3c93f4e9450cdb7be2601",
    "gen-signal":
        "830e528b097e500b78e7718af1e4aa4c630b7ccd4b3568ff70b4c538f26cbc88",
    "gen-background":
        "6f4b722b3117a867b77dfa12e1acd90c134c9af17413772127f9204d6292276f",
    "forward":
        "5133785bd1692c4510bbcc7c7de272d8b64bf6e30cfe40d51200a45bcdda80db",
    "solve-bdr":
        "8da21d3aba0e22fa4aeb06c8bf5c674805ac8a80a309f779b4d378ce0d6de042",
    "solve-bdr1-noisy":
        "03a54abeb8f22d7b4eabef52fb06336102e44d24b0fb2f5106356836bc08b397",
    "sweep":
        "6300f7528103794e5c069fc9f8e1dff871394f089570643cae824f23c9930242",
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


def _typed_flags() -> list:
    """(subcommand path, flag, type) of every flag of build_parser() that
    converts its value."""
    found = []

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, path + [name])
            elif action.type is not None:
                found.append((path, action.option_strings[0], action.type))

    walk(build_parser(), [])
    return found


#: tokens Python's int reads that the number rule of files refuses (an int
#: token is ASCII digits with an optional '-'); "٣" is the Arabic-Indic
#: digit three. A float token is ASCII without '_', so it may carry a sign or
#: a space.
LOOSE_INTS = ("1_0", "+5", " 5", "٣")
LOOSE_FLOATS = ("1_0", "٣")


def test_every_numeric_flag_reads_its_value_by_the_file_token_rule(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.chdir(tmp_path)
    flags = _typed_flags()
    assert len(flags) > 30 and {kind for _, _, kind in flags} == {parse_int, parse_float}
    for path, flag, kind in flags:
        for token in LOOSE_INTS if kind is parse_int else LOOSE_FLOATS:
            assert main([*path, flag, token]) == EXIT_USAGE, (path, flag, token)
            assert f"argument {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # no command ran


@pytest.mark.parametrize("argv, message", [
    (["gen-signal", "--n", "1_0"], "argument --n: malformed integer '1_0'"),
    (["noise-bench", "--sigma", "1_0"], "argument --sigma: malformed float '1_0'")])
def test_a_malformed_number_flag_gives_the_token_rules_message(argv, message, tmp_path,
                                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("token", ["1", "2", "02", "0", "-1", "1_0", "+2", " 3", "2.0", "x",
                                   "٣", "1e1"])
def test_workers_flag_and_variable_take_the_same_tokens(token, monkeypatch):
    def accepted(read) -> bool:
        try:
            read()
            return True
        except (SystemExit2, ValueError):
            return False

    monkeypatch.setenv("BGRET_WORKERS", token)
    from_variable = accepted(lambda: resolve_workers(None))
    monkeypatch.delenv("BGRET_WORKERS")
    from_flag = accepted(lambda: resolve_workers(build_parser().parse_args(
        ["sweep", "--config", "c.json", "--workers", token]).workers))
    assert from_flag == from_variable == (token in ("1", "2", "02"))


def test_a_diverging_sweep_is_aborted_rows_with_warnings_as_errors(tmp_path):
    # PGD at lambda = 1e300 overflows in every trial: numpy's overflow
    # warnings once ended a sweep run under -W error in a traceback
    (tmp_path / "cfg.json").write_text(json.dumps({
        "method": "pgd", "n": 6, "trials": 3, "seed": 2, "lambda": 1e300, "max_iter": 20}))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "bgret.cli", "sweep", "--config", "cfg.json",
         "--ratio-min", "2", "--ratio-max", "3", "--ratio-step", "1", "--workers", "2"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = read_results(tmp_path / "out" / "trials.csv")
    assert len(rows) == 6 and all(r["stop_reason"] == "diverged" for r in rows)
    assert proc.stdout.count("aborted 3)") == 2


def test_a_d6_uniqueness_draw_peaks_below_250_mb(tmp_path):
    # one certificate draw at --d 6 (a 729-column coefficient matrix on a 6^6
    # grid) peaked at 216 MB resident, and at 731 MB before its rows were
    # gathered as windows; the child reports its own peak after cli.main
    script = ("import resource\n"
              "from bgret import cli\n"
              "code = cli.main(['verify', 'uniqueness', '--n', '3', '--k', '3', '--d', '6',"
              " '--draws', '1'])\n"
              "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split()[-2:])  # ru_maxrss is in KiB on Linux
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    assert peak_kib <= 250 * 1024
