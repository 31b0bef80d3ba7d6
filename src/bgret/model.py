"""Shared data model: the support block, the combined object, intensity
measurements and solver configuration.

Conventions used by every module
--------------------------------
* Arrays are real float64 on the object grid of shape (n_i + k_i) per axis
  (``object_shape_for``), in any number d >= 1 of axes.
* Vectorization is row-major everywhere, and boolean masks index in the
  same order.
* The combined object [x; y] is a plain array on the object grid:
  ``assemble`` places a sample on the support Ω inside its background, and
  ``z[mask.inside]`` reads the sample back.
* Value types are frozen dataclasses holding read-only arrays, safe to share
  across workers.
* ``require_count`` (an integer of at least a bound), ``require_level`` (a
  finite number above 0, or at least 0) and ``require_beta`` (a number in
  (0, 1]) own the range of every count and level a user supplies; each
  raises ValueError naming the number.
* ``mirror`` owns the mirror map i -> -i mod m of a grid, which intensities,
  half spectra and the theory's shift pairs l, -l share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np


def require_count(name: str, value, least: int = 1):
    """Return value if it is an int or numpy integer of at least least, else
    raise ValueError naming it (a bool is an int to Python, but no count)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return value


def require_level(name: str, value, zero: bool = False):
    """Return value if it is a finite real number (no bool) above 0, or at
    least 0 with zero, else raise ValueError naming it."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not (0 <= value < math.inf if zero else 0 < value < math.inf)):
        raise ValueError(f"{name} must be finite and {'nonnegative' if zero else 'positive'}"
                         f", got {value!r}")
    return value


def require_beta(value):
    """Return beta if it is a level of at most 1, else raise ValueError."""
    if require_level("beta", value) > 1:
        raise ValueError(f"beta must lie in (0, 1], got {value!r}")
    return value


def background_sizes_for(ratio: float, sizes: Sequence[int]) -> tuple[int, ...]:
    """The one rule turning a ratio k/n into background sizes:
    k_i = max(1, round(ratio * n_i)), rounding half to even, so a small
    positive ratio gives one cell. The ratio is a level above 0."""
    require_level("background ratio", ratio)
    return tuple(max(1, int(round(ratio * n))) for n in sizes)


def object_shape_for(sample_shape: Sequence[int],
                     background_sizes: Sequence[int]) -> tuple[int, ...]:
    """The object grid of a sample and its background: n_i + k_i per axis."""
    return tuple(n + k for n, k in zip(sample_shape, background_sizes))


def _readonly(a, dtype=None) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def mirror(shape: Sequence[int], index=None) -> tuple:
    """The mirror map i -> -i mod m_axis on the grid shape, axis by axis: of
    the index tuple index (ints or integer arrays) or, without one, of every
    index of each axis (one integer array per axis)."""
    if index is None:
        index = [np.arange(m) for m in shape]
    return tuple(-i % m for i, m in zip(index, shape))


def mirror_index(values: np.ndarray) -> np.ndarray:
    """values at the mirrored index -i mod m along every axis, gathered."""
    values = np.asarray(values)
    return values[np.ix_(*mirror(values.shape))]


def hermitian_part(values: np.ndarray) -> np.ndarray:
    """The Hermitian part 0.5 * (v[i] + v[-i]) of a real array."""
    return 0.5 * (values + mirror_index(values))


def require_mirror_symmetric(values: np.ndarray, mirrored: np.ndarray, rtol: float,
                             message: str) -> None:
    """ValueError with message when max|v - v[-i]| exceeds rtol * max|v|, v[-i]
    being mirrored: the symmetry test of measurements and autocorrelations."""
    dev = np.max(np.abs(values - mirrored))
    scale = max(float(np.max(np.abs(values))), np.finfo(float).tiny)
    if dev > rtol * scale:
        raise ValueError(f"{message} (relative deviation {dev / scale:.3e})")


def hermitian_half(values) -> np.ndarray:
    """The Hermitian part 0.5 * (v[i] + v[-i]) of a real array, cut to its
    half grid, entries 0 .. m_last//2 of the last axis (contiguous)."""
    v = np.asarray(values, dtype=float)
    return np.ascontiguousarray(hermitian_part(v)[..., : v.shape[-1] // 2 + 1])


@dataclass(frozen=True)
class SupportMask:
    """The sample support Ω: a block of ``sample_shape`` whose top-left
    corner sits at ``offset`` on the object grid of shape ``shape``. The
    three are validated once, here; two views of Ω on the grid are derived
    from them: ``inside``, its read-only boolean mask, and ``slices``, the
    tuple of slices that cuts the block out of a grid array (``z[slices]``
    is the sample block, ``z[inside]`` its row-major vector). ``block`` puts
    the block at the corner, ``centered`` in the middle and ``place`` by the
    experiments' rule.
    """

    shape: tuple[int, ...]
    sample_shape: tuple[int, ...]
    offset: tuple[int, ...]

    def __post_init__(self):
        for name in ("shape", "sample_shape", "offset"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        shape, sample_shape, offset = self.shape, self.sample_shape, self.offset
        if not shape:
            raise ValueError("a mask needs at least one axis")
        if not len(sample_shape) == len(offset) == len(shape):
            raise ValueError("sample_shape, offset and shape must share dimension")
        for n, m, o in zip(sample_shape, shape, offset):
            if n < 1 or o < 0 or o + n > m:
                raise ValueError(f"block {sample_shape}@{offset} does not fit in {shape}")
        slices = tuple(slice(o, o + n) for o, n in zip(offset, sample_shape))
        inside = np.zeros(shape, dtype=bool)
        inside[slices] = True
        inside.setflags(write=False)
        object.__setattr__(self, "inside", inside)
        object.__setattr__(self, "slices", slices)

    @classmethod
    def block(cls, object_shape: Sequence[int], sample_shape: Sequence[int],
              offset: Optional[Sequence[int]] = None) -> "SupportMask":
        """Axis-aligned block support; offset defaults to the origin (corner)."""
        return cls(object_shape, sample_shape,
                   (0,) * len(object_shape) if offset is None else offset)

    @classmethod
    def centered(cls, object_shape: Sequence[int], sample_shape: Sequence[int]) -> "SupportMask":
        offset = tuple((m - n) // 2 for m, n in zip(object_shape, sample_shape))
        return cls(object_shape, sample_shape, offset)

    @classmethod
    def place(cls, object_shape: Sequence[int], sample_shape: Sequence[int],
              offset: Optional[Sequence[int]] = None) -> "SupportMask":
        """The experiments' placement rule: a block at an explicit offset,
        otherwise centered in 2-D and at the corner in every other d."""
        if offset is None and len(sample_shape) == 2:
            return cls.centered(object_shape, sample_shape)
        return cls.block(object_shape, sample_shape, offset)

    @property
    def sample_count(self) -> int:
        return math.prod(self.sample_shape)

    def to_block(self, values_on_omega: np.ndarray) -> np.ndarray:
        """Reshape a row-major Ω vector back to the sample block."""
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
    """Nonnegative Fourier intensities; conj_symmetric marks real-object data.
    The solvers and metrics read b through ``half_values``, h =
    hermitian_half(b), the nearest intensity a real object can match;
    ``asymmetry``, ||b - h||^2 over the grid (for the intensity s of a real
    object s - h and b - h are orthogonal, so ||s - b||^2 = ||s - h||^2 +
    ||b - h||^2); and ``half_root``, hermitian_half(b^{1/2}), the root of the
    magnitude projections and the spectral start. The constructor mirrors b
    once, for its symmetry test, h and the asymmetry."""

    values: np.ndarray
    conj_symmetric: bool = True

    SYMMETRY_RTOL = 1e-10

    def __post_init__(self):
        v = _readonly(self.values, float)
        if v.ndim < 1:
            raise ValueError("measurements need at least one axis")
        if not np.all(np.isfinite(v)):
            raise ValueError("intensity measurements must be finite")
        if np.any(v < 0.0):
            raise ValueError("intensity measurements must be nonnegative")
        mirrored = mirror_index(v)
        if self.conj_symmetric:
            require_mirror_symmetric(v, mirrored, self.SYMMETRY_RTOL,
                                     "measurements not conjugate-symmetric")
        h = 0.5 * (v + mirrored)
        d = (v - h).reshape(-1)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "half_values", _readonly(h[..., : v.shape[-1] // 2 + 1]))
        object.__setattr__(self, "asymmetry", float(d.dot(d)))

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

    @cached_property
    def half_root(self) -> np.ndarray:
        return _readonly(hermitian_half(self.root))


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
    (BDR1/HIO), PGD learning rate lam and the trace stride trace_every: with
    s > 0 a trace row at every iteration p with p % s == 0 and always at the
    final one; 0 (the default) records none."""

    method: Method
    eps: float = 1e-12
    max_iter: int = 300
    beta: float = 0.9
    lam: float = 1.0
    trace_every: int = 0

    def __post_init__(self):
        object.__setattr__(self, "method", Method.parse(self.method))
        require_level("eps", self.eps)
        require_count("max_iter", self.max_iter)
        require_count("trace_every", self.trace_every, 0)
        require_beta(self.beta)
        require_level("lam", self.lam)


@dataclass(frozen=True)
class SolverRun:
    """Outcome of one solver run: recovered Ω values, the number of loop
    iterations, and the trace rows (relative_error, measurement_error) of the
    iterates at the stride of ``SolverConfig.trace_every``. An untraced run
    has no rows; a traced one ends with the row of the final iteration, so a
    trace has between 0 and iterations_used rows."""

    final_estimate: np.ndarray
    iterations_used: int
    trace: np.ndarray  # shape (rows, 2): (relative_error, measurement_error)
    converged: bool

    def __post_init__(self):
        est = _readonly(self.final_estimate, float)
        trace = _readonly(np.asarray(self.trace, dtype=float).reshape(-1, 2))
        if trace.shape[0] > self.iterations_used:
            raise ValueError("trace must have at most iterations_used rows")
        object.__setattr__(self, "final_estimate", est)
        object.__setattr__(self, "trace", trace)
