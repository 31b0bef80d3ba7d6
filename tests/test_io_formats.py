import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgret.io_formats import (DataFormatError, RESULT_COLUMNS, ExperimentConfig,
                              format_float, manifest_now, parse_config, read_config,
                              read_image, read_results, read_signal_csv, shape_token,
                              write_image, write_results, write_signal_csv)
from bgret.model import Method


def test_format_float_round_trip():
    rng = np.random.default_rng(0)
    for v in list(rng.standard_normal(200)) + [1e-300, 1e300, 0.0, -0.0]:
        assert float(format_float(v)) == v
    assert format_float(math.inf) == "inf"
    assert format_float(math.nan) == "nan"


def test_signal_csv_round_trip(tmp_path):
    path = tmp_path / "sig.csv"
    values = np.random.default_rng(1).standard_normal(64)
    write_signal_csv(path, values)
    assert np.array_equal(read_signal_csv(path), values)


def test_signal_csv_basic_and_errors(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("# comment\n1\n2\n3\n")
    assert read_signal_csv(path).tolist() == [1.0, 2.0, 3.0]
    bad = tmp_path / "bad.csv"
    bad.write_text("1\nabc\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_signal_csv(bad)
    bad.write_text("1\n2,3\n")
    with pytest.raises(DataFormatError, match="ragged row 2"):
        read_signal_csv(bad)
    bad.write_text("1,2\n3,4\n")
    with pytest.raises(DataFormatError, match="one value per line"):
        read_signal_csv(bad)


def test_pgm_round_trip(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 2\n255\n255 255\n255 255\n")
    img = read_image(path)
    assert np.array_equal(img, np.ones((2, 2)))
    out = tmp_path / "out.pgm"
    write_image(out, img)
    assert np.array_equal(read_image(out), img)


def test_pgm_header_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_text("P5\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(DataFormatError):
        read_image(bad)
    short = tmp_path / "short.pgm"
    short.write_text("P2\n2 2\n255\n0 0 0\n")
    with pytest.raises(DataFormatError):
        read_image(short)


def test_readers_reject_values_out_of_range(tmp_path):
    pgm = tmp_path / "range.pgm"
    for pixel in ("256", "-1"):
        pgm.write_text(f"P2\n2 1\n255\n{pixel} 0\n")
        with pytest.raises(DataFormatError, match="0..255"):
            read_image(pgm)
    csv_path = tmp_path / "values.csv"
    for value in ("nan", "inf", "-inf"):
        csv_path.write_text(f"1\n{value}\n")
        with pytest.raises(DataFormatError, match="non-finite value at line 2"):
            read_signal_csv(csv_path)
    # numbers are plain ASCII decimals: Python's int and float alone would
    # read these as 5, 10 and 3
    pgm.write_text("P2\n2 1\n255\n+5 1_0\n")
    with pytest.raises(DataFormatError, match="bad PGM"):
        read_image(pgm)
    # a maxval beyond PGM's 65535 (one too large for a float crashed the read)
    for maxval in ("65536", "1" + "0" * 400):
        pgm.write_text(f"P2\n2 1\n{maxval}\n5 0\n")
        with pytest.raises(DataFormatError, match="bad PGM header"):
            read_image(pgm)
    pgm.write_bytes(b"P2\n2 1\n255\n5 \xb5\n")
    with pytest.raises(DataFormatError):
        read_image(pgm)
    for value in ("1_0", "\u0663"):
        csv_path.write_text(f"1\n{value}\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="malformed numeric value at line 2"):
            read_signal_csv(csv_path)
    csv_path.write_bytes(b"1\n\xff\n")
    with pytest.raises(DataFormatError):
        read_signal_csv(csv_path)


def test_csv_image_round_trip_and_ragged(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    assert read_image(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    exact = np.random.default_rng(2).standard_normal((5, 7))
    out = tmp_path / "exact.csv"
    write_image(out, exact)
    assert np.array_equal(read_image(out), exact)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(DataFormatError, match="row 2"):
        read_image(ragged)


def test_read_config_minimal_and_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"method": "BDR", "n": 100, "k_ratio": 3, "trials": 10, "seed": 7}))
    cfg = read_config(path)
    assert cfg.method is Method.BDR
    assert cfg.eps == 1e-12 and cfg.max_iter == 300
    assert cfg.beta == 0.9 and cfg.lam == 1.0
    assert cfg.n == (100,) and cfg.k_ratio == 3 and isinstance(cfg.k_ratio, float)
    # n is the sample shape: an int is one axis, a list gives each axis
    path.write_text(json.dumps({"method": "bdr", "n": [6, 5, 4], "trials": 1, "seed": 0}))
    assert read_config(path).n == (6, 5, 4)


def test_read_config_data_errors(tmp_path):
    # non-finite numbers, JSON nested too deep to parse and bytes that are
    # not UTF-8 are data errors, not crashes
    path = tmp_path / "cfg.json"
    base = '{"method": "bdr", "n": 8, "trials": 2, "seed": 1, '
    for tail, message in (('"eps": Infinity}', "finite"), ('"beta": NaN}', "finite"),
                          ('"noise_sigma": 1e999}', "finite"),
                          ('"eps": 1' + "0" * 5000 + "}", "invalid JSON")):
        path.write_text(base + tail)
        with pytest.raises(DataFormatError, match=message):
            read_config(path)
    path.write_text("[" * 100000)
    with pytest.raises(DataFormatError, match="invalid JSON"):
        read_config(path)
    path.write_bytes(base.encode() + b'"eps": 1e-9, "method": "\xff"}')
    with pytest.raises(DataFormatError, match="not UTF-8"):
        read_config(path)


def test_read_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"method": "BDR", "n": 10, "k_ratio": 3, "trials": 1, "seed": 0, "foo": 1}))
    with pytest.raises(DataFormatError, match="foo"):
        read_config(path)


def test_parse_config_type_errors_name_keys():
    base = {"method": "bdr", "n": 10, "k_ratio": 3, "trials": 1, "seed": 0}
    with pytest.raises(DataFormatError, match="trials"):
        parse_config({**base, "trials": "ten"})
    with pytest.raises(DataFormatError, match="eps"):
        parse_config({**base, "eps": "small"})
    with pytest.raises(DataFormatError, match="max_iter"):
        parse_config({**base, "max_iter": 1.5})
    with pytest.raises(DataFormatError, match="method"):
        parse_config({"n": 10, "k_ratio": 3, "trials": 1, "seed": 0})


@pytest.mark.parametrize("key", ["k1", "k2", "n1", "n2"])
def test_parse_config_rejects_keys_a_sweep_cannot_honour(key):
    # a sweep takes its shape from n and k from its ratios, so these would be ignored
    with pytest.raises(DataFormatError, match=key):
        parse_config({"method": "bdr", "n": 10, "trials": 1, "seed": 0, key: 40})


@pytest.mark.parametrize("edit, message", [
    # a JSON boolean is no number, although Python's bool is an int
    ({"trials": True}, "trials"),
    ({"seed": False}, "seed"),
    ({"n": True}, "'n'"),
    ({"eps": True}, "eps"),
    ({"k_ratio": False}, "k_ratio"),
    ({"max_iter": True}, "max_iter"),
    ({"signal_type": True}, "signal_type"),
    # paths holds only the signal CSV of signal_type 3
    ({"signal_type": 3, "paths": {"signal": "s.csv", "foo": 1}}, "foo"),
    ({"paths": {"signal": "s.csv"}}, "signal_type 3"),
    ({"signal_type": 2, "paths": {"signal": "s.csv"}}, "signal_type 3"),
    ({"signal_type": 3}, "paths.signal"),
    ({"signal_type": 3, "paths": {"signal": 1}}, "paths.signal"),
    # a float key must be finite (JSON's NaN and Infinity parse as floats)
    ({"eps": math.inf}, "eps"),
    ({"beta": math.nan}, "beta"),
    ({"noise_sigma": math.nan}, "noise_sigma"),
    ({"lambda": -math.inf}, "lambda"),
    ({"k_ratio": 10 ** 400}, "k_ratio"),
    # n is a positive int or a list of them, one per axis
    ({"n": []}, "'n'"),
    ({"n": [0]}, "'n'"),
    ({"n": [True]}, "'n'"),
    ({"n": [4, "a"]}, "'n'"),
    ({"n": [[4]]}, "'n'"),
    # the harmonic signal and the signal CSV have one axis
    ({"signal_type": 2, "n": [4, 4]}, "signal_type 2"),
    ({"signal_type": 3, "n": [4, 4], "paths": {"signal": "s.csv"}}, "signal_type 3"),
])
def test_parse_config_rejects_what_a_sweep_would_misread(edit, message):
    with pytest.raises(DataFormatError, match=message):
        parse_config({"method": "bdr", "n": 6, "trials": 1, "seed": 1, **edit})


def test_results_round_trip_and_summary(tmp_path):
    rows = [
        {"trial": t, "seed": 100 + t, "method": "bdr", "n": "100", "k": "300",
         "iterations": 42, "relative_error": 10.0 ** (-t - 4),
         "measurement_error": 1e-9, "psnr": math.nan, "ssim": math.nan,
         "success": t > 0, "stop_reason": ("max_iter", "converged")[t % 2],
         "fixedpoint_resid": 3e-15 * t, "wall_ms": 1.5}
        for t in range(4)
    ]
    path = tmp_path / "results.csv"
    manifest = manifest_now("0.1.0", 7, {"method": "bdr"})
    write_results(path, rows, manifest)
    back = read_results(path)
    assert len(back) == 4
    assert [r["success"] for r in back] == [False, True, True, True]
    assert sum(r["success"] for r in back) / 4 == 0.75  # recount oracle
    assert back[2]["relative_error"] == rows[2]["relative_error"]
    sidecar = path.with_suffix(".csv.manifest.json")
    payload = json.loads(sidecar.read_text())
    assert payload["seed"] == 7 and payload["version"] == "0.1.0"


def test_write_results_deterministic_bytes(tmp_path):
    rows = [{"trial": 0, "seed": 1, "method": "pgd", "n": "10", "k": "30",
             "iterations": 3, "relative_error": 0.125, "measurement_error": 0.5,
             "psnr": 1.0, "ssim": 0.5, "success": False, "stop_reason": "max_iter",
             "fixedpoint_resid": 0.25, "wall_ms": 0.0}]
    manifest = manifest_now("0.1.0", 1, {})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(a, rows, manifest)
    write_results(b, rows, manifest)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert tuple(header.split(",")) == RESULT_COLUMNS


def test_results_outcome_columns_read_back_as_written(tmp_path):
    # the two outcome columns sit before wall_ms; an aborted row has a NaN
    # residual, and every field reads back as the value written
    assert RESULT_COLUMNS[-3:] == ("stop_reason", "fixedpoint_resid", "wall_ms")
    rows = [{"trial": t, "seed": t, "method": "bdr", "n": "8", "k": "24", "iterations": 5,
             "relative_error": 0.1, "measurement_error": 0.2, "psnr": math.nan,
             "ssim": math.nan, "success": False, "stop_reason": reason,
             "fixedpoint_resid": resid, "wall_ms": 2.0}
            for t, (reason, resid) in enumerate((("converged", 1.2345678901234567e-13),
                                                 ("max_iter", 0.5),
                                                 ("diverged", math.nan)))]
    path = tmp_path / "r.csv"
    write_results(path, rows, manifest_now("0", 0, {}))
    back = read_results(path)
    assert [repr(r[c]) for r in back for c in RESULT_COLUMNS] == \
        [repr(r[c]) for r in rows for c in RESULT_COLUMNS]
    text = path.read_text().replace(",max_iter,", ",stalled,")
    path.write_text(text)
    with pytest.raises(DataFormatError, match="stop_reason"):
        read_results(path)


def test_write_results_missing_column(tmp_path):
    with pytest.raises(DataFormatError, match="missing"):
        write_results(tmp_path / "x.csv", [{"trial": 0}], manifest_now("0", 0, {}))


def test_shape_token():
    assert shape_token((100,)) == "100"
    assert shape_token((64, 64)) == "64x64"


def _one_row_file(tmp_path):
    rows = [{"trial": t, "seed": 1, "method": "bdr", "n": "8", "k": "24", "iterations": 5,
             "relative_error": 0.1, "measurement_error": 0.2, "psnr": math.nan,
             "ssim": math.nan, "success": False, "stop_reason": "max_iter",
             "fixedpoint_resid": 0.5, "wall_ms": 2.0} for t in range(2)]
    path = tmp_path / "r.csv"
    write_results(path, rows, manifest_now("0", 0, {}))
    lines = path.read_text().splitlines()
    assert read_results(path)[1]["trial"] == 1
    return path, lines


@pytest.mark.parametrize("edit, message", [
    (lambda fields: fields[:-2], "12 fields, expected 14"),
    (lambda fields: fields + ["max_iter"], "15 fields, expected 14"),
    (lambda fields: fields[:5] + ["many"] + fields[6:], "malformed iterations 'many'"),
    (lambda fields: fields[:6] + ["tiny"] + fields[7:], "malformed relative_error 'tiny'"),
    (lambda fields: fields[:10] + ["yes"] + fields[11:], "malformed success 'yes'"),
    # numbers are plain ASCII decimals: Python's int would read 10, 3 and 5
    (lambda fields: ["1_0"] + fields[1:], "malformed trial '1_0'"),
    (lambda fields: fields[:5] + ["\u0663"] + fields[6:], "malformed iterations '\u0663'"),
    (lambda fields: fields[:1] + [" 5"] + fields[2:], "malformed seed ' 5'"),
    (lambda fields: fields[:7] + ["1_0"] + fields[8:], "malformed measurement_error '1_0'"),
], ids=["short-row", "long-row", "non-numeric-int", "non-numeric-float", "bad-success",
        "underscore-int", "non-ascii-digit", "space-int", "underscore-float"])
def test_read_results_rejects_malformed_row(tmp_path, edit, message):
    # a short row, a long row and unparseable fields name the file and line 3
    path, lines = _one_row_file(tmp_path)
    lines[2] = ",".join(edit(lines[2].split(",")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"r.csv: line 3: {message}"):
        read_results(path)


def test_read_results_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="header"):
        read_results(path)


def test_manifest_records_python_numpy_and_fft(tmp_path):
    import platform
    manifest = manifest_now("0.1.0", 7, {"method": "bdr"})
    assert manifest.software == {"python": platform.python_version(),
                                 "numpy": np.__version__, "fft": "numpy.fft rfftn/irfftn"}
    path = tmp_path / "results.csv"
    write_results(path, [], manifest)
    payload = json.loads(path.with_suffix(".csv.manifest.json").read_text())
    assert payload["software"] == manifest.software
    assert path.read_text() == ",".join(RESULT_COLUMNS) + "\n"


# one valid file per reader, the seeds of the mutation property below
_RESULT_ROW = "0,1,bdr,8,24,5,0.125,0.25,nan,nan,0,max_iter,0.5,2\n"
READER_SEEDS = {
    "image.pgm": (read_image, b"P2\n# a comment\n3 2\n255\n0 128 255\n7 8 9\n"),
    "image.csv": (read_image, b"1,2.5\n-3e-2,4\n# end\n"),
    "signal.csv": (read_signal_csv, b"# signal\n1\n0.5\n\n-2e3\n"),
    "config.json": (read_config, json.dumps(
        {"method": "bdr", "n": 8, "trials": 2, "seed": 1, "eps": 1e-12, "beta": 0.9,
         "k_ratio": 3, "noise_sigma": 0.0}).encode()),
    "results.csv": (read_results, (",".join(RESULT_COLUMNS) + "\n" + _RESULT_ROW
                                   + _RESULT_ROW.replace(",0,max_iter,", ",1,converged,")
                                   ).encode()),
}
_RESULT_TYPES = {**{c: float for c in RESULT_COLUMNS}, "trial": int, "seed": int,
                 "iterations": int, "success": bool, "method": str, "n": str, "k": str,
                 "stop_reason": str}

# byte edits: replace, insert or delete at a position, favouring the bytes
# numbers and lines are made of, plus bytes that are not UTF-8
_EDITS = st.lists(st.tuples(st.sampled_from("rid"), st.integers(0, 1 << 16),
                            st.one_of(st.sampled_from(b"0123456789-+_.,eE #\n\r"),
                                      st.integers(0, 255))),
                  min_size=1, max_size=6)


def _mutate(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for op, pos, byte in edits:
        pos %= len(data) + 1
        if op == "i":
            data.insert(pos, byte)
        elif data and pos < len(data):
            if op == "r":
                data[pos] = byte
            else:
                del data[pos]
    return bytes(data)


@pytest.mark.parametrize("name", sorted(READER_SEEDS))
@settings(max_examples=150, deadline=None)
@given(edits=_EDITS)
def test_readers_return_data_or_raise_data_errors(name, edits, tmp_path_factory):
    # any bytes either read as finite arrays, a config or typed rows, or
    # raise DataFormatError; no other exception escapes a reader
    reader, seed = READER_SEEDS[name]
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(_mutate(seed, edits))
    try:
        value = reader(path)
    except DataFormatError:
        return
    if reader is read_config:
        assert isinstance(value, ExperimentConfig)
        floats = (value.eps, value.beta, value.lam, value.noise_sigma)
        assert all(math.isfinite(v) for v in floats + (value.k_ratio or 0.0,))
    elif reader is read_results:
        assert all(type(row[c]) is _RESULT_TYPES[c] for row in value for c in RESULT_COLUMNS)
    else:
        assert value.size and np.all(np.isfinite(value))
