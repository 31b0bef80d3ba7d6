"""Deterministic serialization: signal CSVs, ASCII PGM / CSV images,
experiment configs, result tables and run manifests.

This module owns how bgret turns values into text and text into values,
each rule stated once:

- writing: ``write_lines`` is the one text writer, UTF-8 with every line
  ended by ``"\n"``; ``json_text`` is the one JSON text (sorted keys,
  indent 2, numpy scalars as floats, a NaN or infinity as null), and
  ``write_manifest`` puts a run's manifest at ``<path>.manifest.json``.
  Floats are written with 17 significant digits (binary64 round-trip), so
  identical inputs give identical bytes;
- decoding: ``read_text`` is the one text reader; bytes that do not decode
  (UTF-8, or ASCII for a PGM) raise DataFormatError;
- numbers: an integer token matches ``-?[0-9]+`` (``parse_int``) and a float
  token is ASCII without ``_`` (``parse_float``), in PGM images, CSV
  matrices, result CSVs, the CLI's numeric flags and BGRET_WORKERS alike;
- results: ``RESULT_CELLS`` gives each result column its (format, parse)
  pair, in file order.

Every reader fails with DataFormatError on input it cannot read. Every
result file gets a sidecar manifest recording the config echo, software
version, seed, input digests, and the Python and numpy versions and the
transforms of the solver loop; re-running with an identical manifest
reproduces the result files byte-for-byte apart from timestamps.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
import platform
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import Method, SolverConfig, require_count, require_level
from .rng import check_seed
from .spectral import LOOP_TRANSFORMS


class DataFormatError(ValueError):
    """Malformed input file or configuration."""


def format_float(x: float) -> str:
    """17 significant digits; exact binary64 round-trip."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def parse_int(token: str) -> int:
    """An integer token: ASCII digits with an optional '-' (Python's int
    alone also reads '+5', ' 5', '1_0' and non-ASCII digits)."""
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ValueError(f"malformed integer {token!r}")
    return int(token)


def parse_float(token: str) -> float:
    """A float token: ASCII without '_' (Python's float alone also reads
    '1_0' and non-ASCII digits)."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"malformed float {token!r}")
    return float(token)


def write_lines(path, lines: Iterable[str]) -> None:
    """The one text writer: UTF-8, each line ended by a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def read_text(path, encoding: str = "utf-8") -> str:
    """The one text reader: bytes that do not decode are a DataFormatError."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: not {encoding.upper()} text") from None


def _finite_or_null(value):
    # every non-finite float as None, in dicts, lists and tuples alike
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def json_text(payload) -> str:
    """The one JSON text: sorted keys, indent 2, numpy scalars as floats, a
    NaN or infinite float as null (JSON has no such numbers; a missed one
    raises ValueError)."""
    return json.dumps(_finite_or_null(payload), sort_keys=True, indent=2, default=float,
                      allow_nan=False)


def sha256_of(path) -> str:
    # hashlib loads OpenSSL's libcrypto (3.6 MB resident); only the CLI's
    # input digests need it, so trial processes do not import it
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- signals ----------------------------------------------------------------

def read_signal_csv(path) -> np.ndarray:
    """One numeric value per line; '#' comment lines and blanks ignored."""
    values = _read_csv_matrix(path)
    if values.shape[1] != 1:
        raise DataFormatError(f"{path}: expected one value per line, got {values.shape[1]}")
    return values.reshape(-1)


def write_signal_csv(path, values) -> None:
    write_lines(path, map(format_float, np.asarray(values, dtype=float).reshape(-1)))


# -- images ------------------------------------------------------------------

def _read_pgm(path) -> np.ndarray:
    tokens = [t for raw in read_text(path, "ascii").split("\n")
              for t in raw.split("#", 1)[0].split()]
    if not tokens or tokens[0] != "P2":
        raise DataFormatError(f"{path}: not an ASCII PGM (P2) file")
    try:
        # a negative pixel parses, and fails the range check below
        width, height, maxval, *pixels = map(parse_int, tokens[1:])
    except ValueError:
        raise DataFormatError(f"{path}: bad PGM header or pixel data") from None
    if not 0 < maxval < 65536 or width <= 0 or height <= 0:  # PGM's maxval range
        raise DataFormatError(f"{path}: bad PGM header")
    if len(pixels) != width * height:
        raise DataFormatError(f"{path}: expected {width * height} pixels, got {len(pixels)}")
    if not all(0 <= v <= maxval for v in pixels):
        raise DataFormatError(f"{path}: pixel values must lie in 0..{maxval}")
    img = np.asarray(pixels, dtype=float).reshape(height, width)
    return img / maxval


def _read_csv_matrix(path) -> np.ndarray:
    """Comma-separated rows of equal length of finite numbers; '#' comment
    lines and blanks ignored."""
    rows = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [parse_float(tok) for tok in line.split(",")]
        except ValueError:
            raise DataFormatError(f"{path}: malformed numeric value at line {lineno}: "
                                  f"{line!r}")
        if not all(map(math.isfinite, row)):
            raise DataFormatError(f"{path}: non-finite value at line {lineno}: {line!r}")
        if rows and len(row) != len(rows[0]):
            raise DataFormatError(f"{path}: ragged row {lineno} "
                                  f"({len(row)} values, expected {len(rows[0])})")
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: empty matrix")
    return np.asarray(rows, dtype=float)


def read_image(path) -> np.ndarray:
    """ASCII PGM (values normalized to [0,1]) or CSV matrix (read verbatim),
    dispatched on extension."""
    suffix = Path(path).suffix.lower()
    if suffix == ".pgm":
        return _read_pgm(path)
    if suffix == ".csv":
        return _read_csv_matrix(path)
    raise DataFormatError(f"{path}: unsupported image extension {suffix!r} (use .pgm or .csv)")


def write_image(path, img) -> None:
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise DataFormatError("images must be 2-D")
    suffix = Path(path).suffix.lower()
    if suffix == ".pgm":
        quantized = np.clip(np.rint(np.clip(img, 0.0, 1.0) * 255), 0, 255).astype(int)
        write_lines(path, ["P2", f"{img.shape[1]} {img.shape[0]}", "255",
                           *(" ".join(map(str, row)) for row in quantized)])
    elif suffix == ".csv":
        write_lines(path, (",".join(map(format_float, row)) for row in img))
    else:
        raise DataFormatError(f"{path}: unsupported image extension {suffix!r}")


# -- experiment configuration -------------------------------------------------

#: The types a config key's JSON value may have. A JSON boolean is no number
#: here, although Python's bool is an int.
_CONFIG_TYPES = {
    "method": (str,), "n": (int, list), "trials": (int,), "seed": (int,),
    "k_ratio": (int, float), "eps": (int, float), "max_iter": (int,),
    "beta": (int, float), "lambda": (int, float), "noise_sigma": (int, float),
    "signal_type": (int,), "paths": (dict,),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep's settings; n is the sample shape. A sweep takes k from its
    ratios, so k_ratio is only echoed into the manifest. A value a trial's
    ``SolverConfig`` or model's number rules refuse raises DataFormatError."""

    method: Method
    n: tuple[int, ...]
    trials: int
    seed: int
    k_ratio: Optional[float] = None
    eps: float = SolverConfig.eps
    max_iter: int = SolverConfig.max_iter
    beta: float = SolverConfig.beta
    lam: float = SolverConfig.lam
    noise_sigma: float = 0.0
    signal_type: int = 1
    paths: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            require_count("trials", self.trials)
            require_level("noise_sigma", self.noise_sigma, zero=True)
            require_level("lambda", self.lam)  # SolverConfig's lam, by its config key
            SolverConfig(self.method, self.eps, self.max_iter, self.beta, self.lam)
        except ValueError as exc:
            raise DataFormatError(str(exc)) from None
        if self.signal_type not in (1, 2, 3):
            raise DataFormatError("signal_type must be 1, 2 or 3")
        if self.signal_type != 1 and len(self.n) != 1:
            raise DataFormatError(f"signal_type {self.signal_type} is 1-D; n must have one axis")

    def echo(self) -> dict:
        fields = dataclasses.asdict(self)
        fields["lambda"] = fields.pop("lam")  # the config file's key
        return fields


def parse_config(raw: dict) -> ExperimentConfig:
    """The config of a JSON object. Only the keys given reach ExperimentConfig,
    whose defaults apply to the others."""
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        raise DataFormatError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key in ("method", "n", "trials", "seed"):
        if key not in raw:
            raise DataFormatError(f"missing required config key {key!r}")
    fields = {}
    for key, value in raw.items():
        types = _CONFIG_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, types):
            expected = " or ".join(t.__name__ for t in types)
            raise DataFormatError(f"config key {key!r}: expected {expected}, "
                                  f"got {type(value).__name__}")
        if types == (int, float):
            # NaN, infinities (JSON's NaN, Infinity, 1e999) and ints beyond a float
            if not abs(value) <= sys.float_info.max:
                raise DataFormatError(f"config key {key!r}: expected a finite number")
            value = float(value)
        fields["lam" if key == "lambda" else key] = value
    n = [fields["n"]] if isinstance(fields["n"], int) else fields["n"]
    if not n or not all(type(v) is int and v >= 1 for v in n):
        raise DataFormatError(f"config key 'n': expected positive ints, got {raw['n']!r}")
    fields["n"] = tuple(n)
    # paths holds only the CSV a signal_type 3 sweep reads its signal from
    paths = fields["paths"] = dict(fields.get("paths", {}))
    unknown = set(paths) - {"signal"}
    if unknown:
        raise DataFormatError(f"unknown config paths: {', '.join(sorted(unknown))}")
    if fields.get("signal_type") == 3:
        if not isinstance(paths.get("signal"), str) or not paths["signal"]:
            raise DataFormatError("signal_type 3 needs paths.signal in the config")
    elif paths:
        raise DataFormatError("paths.signal is only read with signal_type 3")
    try:
        check_seed(fields["seed"])
        fields["method"] = Method.parse(fields["method"])
    except ValueError as exc:
        raise DataFormatError(str(exc))
    return ExperimentConfig(**fields)


def read_config(path) -> ExperimentConfig:
    """JSON key/value document; unknown keys are rejected."""
    text = read_text(path)
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise DataFormatError(f"{path}: config must be a JSON object")
    return parse_config(raw)


# -- results ------------------------------------------------------------------

#: How a run ended: it met the stop test, hit the iteration cap, or its
#: iterate turned non-finite (an aborted row).
STOP_REASONS = ("converged", "max_iter", "diverged")


_INT_CELL = (lambda v: str(int(v)), parse_int)
_FLOAT_CELL = (format_float, parse_float)
_TEXT_CELL = (str, str)

#: Each result column's (format, parse) pair, in file order. A parse raises
#: ValueError on a token its column never holds (tuple.index does for the
#: success flag and the stop reason).
RESULT_CELLS = {
    "trial": _INT_CELL, "seed": _INT_CELL, "method": _TEXT_CELL, "n": _TEXT_CELL,
    "k": _TEXT_CELL, "iterations": _INT_CELL, "relative_error": _FLOAT_CELL,
    "measurement_error": _FLOAT_CELL, "psnr": _FLOAT_CELL, "ssim": _FLOAT_CELL,
    "success": (lambda v: "1" if v else "0", lambda t: bool(("0", "1").index(t))),
    "stop_reason": (str, lambda t: STOP_REASONS[STOP_REASONS.index(t)]),
    "fixedpoint_resid": _FLOAT_CELL, "wall_ms": _FLOAT_CELL,
}
RESULT_COLUMNS = tuple(RESULT_CELLS)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a result file (timestamps excepted)."""

    version: str
    seed: int
    config: dict
    input_digests: dict = field(default_factory=dict)
    created_utc: str = ""
    extra: dict = field(default_factory=dict)
    software: dict = field(default_factory=dict)


def manifest_now(version: str, seed: int, config: dict, input_digests=None,
                 extra=None) -> RunManifest:
    """A manifest stamped now, with the Python and numpy versions and the
    transforms of the solver loop under ``software``."""
    stamp = datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)
    software = {"python": platform.python_version(), "numpy": np.__version__,
                "fft": LOOP_TRANSFORMS}
    return RunManifest(version, seed, config, dict(input_digests or {}),
                       stamp.isoformat(), dict(extra or {}), software)


def write_manifest(path, manifest: RunManifest) -> None:
    """The manifest of the file at path, written to <path>.manifest.json."""
    write_lines(f"{path}.manifest.json", [json_text(dataclasses.asdict(manifest))])


def shape_token(shape: Sequence[int]) -> str:
    return "x".join(str(int(v)) for v in shape)


def write_results(path, rows: Sequence[dict], manifest: RunManifest) -> None:
    """Fixed-header CSV plus the sidecar manifest at <path>.manifest.json."""
    for row in rows:
        missing = [c for c in RESULT_COLUMNS if c not in row]
        if missing:
            raise DataFormatError(f"result row missing columns: {missing}")
    write_lines(path, [",".join(RESULT_COLUMNS),
                       *(",".join(fmt(row[c]) for c, (fmt, _) in RESULT_CELLS.items())
                         for row in rows)])
    write_manifest(path, manifest)


def read_results(path) -> list[dict]:
    """Rows of a result CSV, each field as written. A row with the wrong
    number of fields or a field its column cannot parse (a malformed number,
    a success flag other than 0/1, an unknown stop_reason) raises
    DataFormatError naming the file and line."""
    lines = read_text(path).splitlines()
    if not lines or tuple(lines[0].split(",")) != RESULT_COLUMNS:
        raise DataFormatError(f"{path}: unexpected results header {lines[:1]}")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{path}: line {lineno}"
        fields = line.split(",")
        if len(fields) != len(RESULT_COLUMNS):
            raise DataFormatError(
                f"{where}: {len(fields)} fields, expected {len(RESULT_COLUMNS)}")
        row = {}
        for (key, (_, parse)), token in zip(RESULT_CELLS.items(), fields):
            try:
                row[key] = parse(token)
            except ValueError:
                fault = "unknown" if key == "stop_reason" else "malformed"
                raise DataFormatError(f"{where}: {fault} {key} {token!r}") from None
        out.append(row)
    return out
