"""Deterministic serialization: signal CSVs, ASCII PGM / CSV images,
experiment configs, result tables and run manifests.

All writers are deterministic given identical inputs: fixed field order and
17-significant-digit float text (binary64 round-trip). Every result file gets
a sidecar manifest recording the config echo, software version, seed, input
digests, and the Python and numpy versions and the transforms of the solver
loop; re-running with an identical manifest reproduces the result files
byte-for-byte apart from timestamps.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
import platform
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .model import Method
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


def sha256_of(path) -> str:
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
    values = np.asarray(values, dtype=float).reshape(-1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in values:
            fh.write(format_float(v) + "\n")


# -- images ------------------------------------------------------------------

def _read_pgm(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = [t for raw in fh for t in raw.split("#", 1)[0].split()]
    except UnicodeDecodeError:
        tokens = []
    if not tokens or tokens[0] != "P2":
        raise DataFormatError(f"{path}: not an ASCII PGM (P2) file")
    # ASCII digits ('-' too, so that a negative pixel fails the range check):
    # Python's int alone also reads '+5' and '1_0'
    if len(tokens) < 4 or not all(re.fullmatch(r"-?[0-9]+", t) for t in tokens[1:]):
        raise DataFormatError(f"{path}: bad PGM header or pixel data")
    width, height, maxval = (int(t) for t in tokens[1:4])
    pixels = [int(t) for t in tokens[4:]]
    if maxval <= 0 or width <= 0 or height <= 0:
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: not UTF-8 text")
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if not line.isascii() or "_" in line:
                raise ValueError  # float alone also reads '1_0' and non-ASCII digits
            row = [float(tok) for tok in line.split(",")]
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
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"P2\n{img.shape[1]} {img.shape[0]}\n255\n")
            for row in quantized:
                fh.write(" ".join(str(v) for v in row) + "\n")
    elif suffix == ".csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for row in img:
                fh.write(",".join(format_float(v) for v in row) + "\n")
    else:
        raise DataFormatError(f"{path}: unsupported image extension {suffix!r}")


# -- experiment configuration -------------------------------------------------

#: The types a config key's JSON value may have. A JSON boolean is no number
#: here, although Python's bool is an int.
_CONFIG_TYPES = {
    "method": (str,), "n": (int,), "trials": (int,), "seed": (int,),
    "k_ratio": (int, float), "eps": (int, float), "max_iter": (int,),
    "beta": (int, float), "lambda": (int, float), "noise_sigma": (int, float),
    "signal_type": (int,), "paths": (dict,),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A 1-D sweep's settings. A sweep takes k from its ratios, so k_ratio is
    only echoed into the manifest."""

    method: Method
    n: tuple[int, ...]
    trials: int
    seed: int
    k_ratio: Optional[float] = None
    eps: float = 1e-12
    max_iter: int = 300
    beta: float = 0.9
    lam: float = 1.0
    noise_sigma: float = 0.0
    signal_type: int = 1
    paths: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise DataFormatError("trials must be at least 1")
        if self.noise_sigma < 0:
            raise DataFormatError("noise_sigma must be nonnegative")
        if self.signal_type not in (1, 2, 3):
            raise DataFormatError("signal_type must be 1, 2 or 3")

    def echo(self) -> dict:
        return {
            "method": self.method.value,
            "n": list(self.n),
            "k_ratio": self.k_ratio,
            "trials": self.trials,
            "seed": self.seed,
            "eps": self.eps,
            "max_iter": self.max_iter,
            "beta": self.beta,
            "lambda": self.lam,
            "noise_sigma": self.noise_sigma,
            "signal_type": self.signal_type,
            "paths": dict(sorted(self.paths.items())),
        }


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
            value = float(value)
        fields["lam" if key == "lambda" else key] = value
    fields["n"] = (fields["n"],)
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
        fields["method"] = Method.parse(fields["method"])
    except ValueError as exc:
        raise DataFormatError(str(exc))
    return ExperimentConfig(**fields)


def read_config(path) -> ExperimentConfig:
    """JSON key/value document; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})")
    if not isinstance(raw, dict):
        raise DataFormatError(f"{path}: config must be a JSON object")
    return parse_config(raw)


# -- results ------------------------------------------------------------------

RESULT_COLUMNS = ("trial", "seed", "method", "n", "k", "iterations",
                  "relative_error", "measurement_error", "psnr", "ssim",
                  "success", "stop_reason", "fixedpoint_resid", "wall_ms")

#: How a run ended: it met the stop test, hit the iteration cap, or its
#: iterate turned non-finite (an aborted row).
STOP_REASONS = ("converged", "max_iter", "diverged")


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

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "seed": self.seed,
            "config": self.config,
            "input_digests": dict(sorted(self.input_digests.items())),
            "created_utc": self.created_utc,
            "extra": self.extra,
            "software": self.software,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def manifest_now(version: str, seed: int, config: dict, input_digests=None,
                 extra=None) -> RunManifest:
    """A manifest stamped now, with the Python and numpy versions and the
    transforms of the solver loop under ``software``."""
    stamp = datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)
    software = {"python": platform.python_version(), "numpy": np.__version__,
                "fft": LOOP_TRANSFORMS}
    return RunManifest(version, seed, config, dict(input_digests or {}),
                       stamp.isoformat(), dict(extra or {}), software)


_INT_COLUMNS = ("trial", "seed", "iterations")
_FLOAT_COLUMNS = ("relative_error", "measurement_error", "psnr", "ssim",
                  "fixedpoint_resid", "wall_ms")


def _format_cell(key: str, value) -> str:
    if key in _INT_COLUMNS:
        return str(int(value))
    if key == "success":
        return "1" if value else "0"
    if key in ("method", "n", "k", "stop_reason"):
        return str(value)
    return format_float(value)


def shape_token(shape: Sequence[int]) -> str:
    return "x".join(str(int(v)) for v in shape)


def write_results(path, rows: Sequence[dict], manifest: RunManifest) -> None:
    """Fixed-header CSV plus the sidecar manifest at <path>.manifest.json."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            missing = [c for c in RESULT_COLUMNS if c not in row]
            if missing:
                raise DataFormatError(f"result row missing columns: {missing}")
            writer.writerow([_format_cell(c, row[c]) for c in RESULT_COLUMNS])
    with open(path.with_suffix(path.suffix + ".manifest.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(manifest.to_json())


def read_results(path) -> list[dict]:
    """Rows of a result CSV, each field as written. A row with the wrong
    number of fields, an unparseable number, a success flag other than 0/1 or
    an unknown stop_reason raises DataFormatError naming the file and line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RESULT_COLUMNS:
            raise DataFormatError(f"{path}: unexpected results header {header}")
        out = []
        for line in reader:
            where = f"{path}: line {reader.line_num}"
            if len(line) != len(RESULT_COLUMNS):
                raise DataFormatError(
                    f"{where}: {len(line)} fields, expected {len(RESULT_COLUMNS)}")
            row = dict(zip(RESULT_COLUMNS, line))
            for keys, parse in ((_INT_COLUMNS, int), (_FLOAT_COLUMNS, float)):
                for key in keys:
                    try:
                        row[key] = parse(row[key])
                    except ValueError:
                        raise DataFormatError(f"{where}: malformed {key} {row[key]!r}") from None
            if row["success"] not in ("0", "1"):
                raise DataFormatError(f"{where}: malformed success {row['success']!r}")
            row["success"] = row["success"] == "1"
            if row["stop_reason"] not in STOP_REASONS:
                raise DataFormatError(f"{where}: unknown stop_reason {row['stop_reason']!r}")
            out.append(row)
    return out
