"""Shared data model: support masks, the combined object, intensity
measurements and solver configuration.

Conventions used by every module
--------------------------------
* Arrays are real float64 on the object grid of shape (n_i + k_i) per axis,
  1-D or 2-D. Dimensions above 2 are rejected.
* Vectorization is row-major everywhere, and boolean masks index in the
  same order.
* The combined object [x; y] is a plain array on the object grid:
  ``assemble`` places a sample on the support Ω inside its background, and
  ``z[mask.inside]`` reads the sample back.
* Value types are frozen dataclasses holding read-only arrays, safe to share
  across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

MAX_DIMS = 2


def background_sizes_for(ratio: float, sizes: Sequence[int]) -> tuple[int, ...]:
    """The one rule turning a ratio k/n into background sizes:
    k_i = max(1, round(ratio * n_i)), rounding half to even."""
    return tuple(max(1, int(round(ratio * n))) for n in sizes)


def _require_count(name: str, value: int) -> None:
    # an empty loop would pass vacuously or fail with an unrelated error
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _readonly(a, dtype=None) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def mirror_index(values: np.ndarray) -> np.ndarray:
    """Return values at the mirrored index (m - i) mod m along every axis."""
    out = np.asarray(values)
    for axis in range(out.ndim):
        out = np.flip(out, axis=axis)
        out = np.roll(out, 1, axis=axis)
    return out


@dataclass(frozen=True)
class SupportMask:
    """Boolean mask of the sample support Ω on the object grid.

    Default layout is a contiguous axis-aligned block; arbitrary offsets are
    allowed so location-bias experiments can slide the sample around.
    """

    inside: np.ndarray
    sample_shape: Optional[tuple[int, ...]] = None
    offset: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        inside = np.asarray(self.inside, dtype=bool)
        if inside.ndim < 1 or inside.ndim > MAX_DIMS:
            raise ValueError(f"mask dimension {inside.ndim} not supported")
        if not inside.any():
            raise ValueError("support mask is empty")
        object.__setattr__(self, "inside", _readonly(inside, bool))
        if self.sample_shape is not None:
            if int(np.prod(self.sample_shape)) != self.sample_count:
                raise ValueError("sample_shape inconsistent with mask population")

    @classmethod
    def block(cls, object_shape: Sequence[int], sample_shape: Sequence[int],
              offset: Optional[Sequence[int]] = None) -> "SupportMask":
        """Axis-aligned block support; offset defaults to the origin (corner)."""
        object_shape = tuple(int(v) for v in object_shape)
        sample_shape = tuple(int(v) for v in sample_shape)
        if len(sample_shape) != len(object_shape):
            raise ValueError("sample_shape and object_shape must share dimension")
        if offset is None:
            offset = (0,) * len(object_shape)
        offset = tuple(int(v) for v in offset)
        for n, m, o in zip(sample_shape, object_shape, offset):
            if n < 1 or o < 0 or o + n > m:
                raise ValueError(f"block {sample_shape}@{offset} does not fit in {object_shape}")
        inside = np.zeros(object_shape, dtype=bool)
        inside[tuple(slice(o, o + n) for o, n in zip(offset, sample_shape))] = True
        return cls(inside, sample_shape=sample_shape, offset=offset)

    @classmethod
    def centered(cls, object_shape: Sequence[int], sample_shape: Sequence[int]) -> "SupportMask":
        offset = tuple((m - n) // 2 for m, n in zip(object_shape, sample_shape))
        return cls.block(object_shape, sample_shape, offset)

    @classmethod
    def place(cls, object_shape: Sequence[int], sample_shape: Sequence[int],
              offset: Optional[Sequence[int]] = None) -> "SupportMask":
        """The experiments' placement rule: a block at an explicit offset,
        otherwise centered in 2-D and at the corner in 1-D."""
        if offset is None and len(sample_shape) == 2:
            return cls.centered(object_shape, sample_shape)
        return cls.block(object_shape, sample_shape, offset)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.inside.shape

    @property
    def sample_count(self) -> int:
        return int(np.count_nonzero(self.inside))

    def to_block(self, values_on_omega: np.ndarray) -> np.ndarray:
        """Reshape a row-major Ω vector back to the sample block."""
        if self.sample_shape is None:
            raise ValueError("mask has no block shape")
        return np.asarray(values_on_omega).reshape(self.sample_shape)


def assemble(x, background, mask: SupportMask) -> np.ndarray:
    """The combined object [x; y]: sample values x placed on Ω inside the
    known background, as a new array on the object grid.

    x may be a row-major Ω vector or an array of the block shape.
    """
    y = np.asarray(background, dtype=float)
    if y.shape != mask.shape:
        raise ValueError(f"background shape {y.shape} does not match mask {mask.shape}")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != mask.sample_count:
        raise ValueError(f"sample has {x.size} entries, support has {mask.sample_count}")
    if np.any(y[mask.inside] != 0.0):
        raise ValueError("background must be exactly zero on the support")
    z = y.copy()
    z[mask.inside] = x
    return z


@dataclass(frozen=True)
class IntensityMeasurements:
    """Nonnegative Fourier intensities; conj_symmetric marks real-object data."""

    values: np.ndarray
    conj_symmetric: bool = True

    SYMMETRY_RTOL = 1e-10

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim < 1 or v.ndim > MAX_DIMS:
            raise ValueError(f"measurement dimension {v.ndim} not supported")
        if not np.all(np.isfinite(v)):
            raise ValueError("intensity measurements must be finite")
        if np.any(v < 0.0):
            raise ValueError("intensity measurements must be nonnegative")
        if self.conj_symmetric:
            dev = np.max(np.abs(v - mirror_index(v)))
            scale = max(float(np.max(v)), np.finfo(float).tiny)
            if dev > self.SYMMETRY_RTOL * scale:
                raise ValueError(
                    f"measurements not conjugate-symmetric (relative deviation {dev / scale:.3e})")
        object.__setattr__(self, "values", _readonly(v, float))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def root(self) -> np.ndarray:
        """Elementwise square root b^{1/2}."""
        return np.sqrt(self.values)

    @cached_property
    def norm(self) -> float:
        """||b||_2, the measurement error's denominator, computed once."""
        return float(np.linalg.norm(self.values.reshape(-1)))


class Method(str, Enum):
    PGD = "pgd"
    BDR = "bdr"
    BDR1 = "bdr1"
    CBDR = "cbdr"
    HIO = "hio"

    @classmethod
    def parse(cls, name) -> "Method":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise ValueError(f"unknown method {name!r}; choose from "
                             f"{', '.join(m.value for m in cls)}") from None


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs: stopping tolerance eps, iteration cap, relaxation beta
    (BDR1/HIO) and PGD learning rate lam."""

    method: Method
    eps: float = 1e-12
    max_iter: int = 300
    beta: float = 0.9
    lam: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "method", Method.parse(self.method))
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError("beta must lie in (0, 1]")
        if not self.lam > 0:
            raise ValueError("lam must be positive")


@dataclass(frozen=True)
class SolverRun:
    """Outcome of one solver run: recovered Ω values plus per-iteration trace."""

    final_estimate: np.ndarray
    iterations_used: int
    trace: np.ndarray  # shape (iterations_used, 2): (relative_error, measurement_error)
    converged: bool

    def __post_init__(self):
        est = _readonly(self.final_estimate, float)
        trace = _readonly(np.asarray(self.trace, dtype=float).reshape(-1, 2))
        if trace.shape[0] != self.iterations_used:
            raise ValueError("trace length must equal iterations_used")
        object.__setattr__(self, "final_estimate", est)
        object.__setattr__(self, "trace", trace)

    @property
    def measurement_errors(self) -> np.ndarray:
        return self.trace[:, 1]
