"""Discrete Fourier transforms, the intensity forward model, and circular
autocorrelation with its spectral bridge.

Convention: the forward transform is unnormalized, entry i of ``dft_forward(z)``
equals sum_t z_t exp(-2*pi*j*i*t/m); the inverse carries the 1/prod(m) factor,
so ``dft_inverse(dft_forward(z)) == z``. Both return plain complex ndarrays,
and ``crop`` cuts the object grid back out of an oversampled measurement
grid. The forward model, the metrics and the spectral start transform through
this pair. Multi-axis transforms factor by separability.

The magnitude projections use the real-data pair instead. The spectrum of a
real array is Hermitian, X[-i] = conj(X[i]), so ``rdft_forward`` returns only
its half grid: entries 0 .. m_last//2 along the last axis. ``rdft_inverse``
maps a half spectrum back to the real array of the measurement grid, as the
inverse of its Hermitian extension. The real part of a complex inverse is the
inverse of the Hermitian part of its input, so a real factor on the full grid
that multiplies a Hermitian spectrum acts through its Hermitian part, which
``hermitian_half`` computes once on the half grid: with it, the magnitude
projection onto a root intensity b^{1/2} is the one the complex pair followed
by ``.real`` gives, up to rounding, symmetric root or not.

For real z the intensity |DFT z|^2 and the circular autocorrelation
R[l] = sum_p z[p] z[(p+l) mod m] are a transform pair, which the
direct-summation oracle below pins down numerically.

The real-data pair takes ``out=`` as numpy does: the result is written into
that array and returned. numpy cannot zero-pad two axes into ``out``, so a
padded ``rdft_forward`` places z in the leading block of a zeroed real array
of the measurement grid (``grid``) and transforms that, which gives the same
bits. A solver run keeps its buffers in one ``Workspace``, built once per run
and passed as ``out=`` to the projectors, the solver steps and the
measurement error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import IntensityMeasurements, SupportMask, _readonly, mirror_index


@dataclass(frozen=True)
class Autocorrelation:
    """Circular autocorrelation of a real object; symmetric under l -> m - l."""

    values: np.ndarray

    SYMMETRY_RTOL = 1e-9

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        dev = np.max(np.abs(v - mirror_index(v)))
        scale = max(float(np.max(np.abs(v))), np.finfo(float).tiny)
        if dev > self.SYMMETRY_RTOL * scale:
            raise ValueError(f"autocorrelation lacks circular symmetry (rel dev {dev / scale:.3e})")
        object.__setattr__(self, "values", _readonly(v, float))

    @property
    def shape(self):
        return self.values.shape


#: The transforms of the solver loop's magnitude projections, as recorded in
#: every run manifest.
LOOP_TRANSFORMS = "numpy.fft rfftn/irfftn"


def _lead(shape) -> tuple:
    return tuple(slice(0, n) for n in shape)


def _measurement_shape(a: np.ndarray, measurement_sizes) -> tuple:
    s = a.shape if measurement_sizes is None else tuple(map(int, measurement_sizes))
    if s != a.shape and (len(s) != a.ndim or any(si < ai for si, ai in zip(s, a.shape))):
        raise ValueError(f"cannot pad shape {a.shape} to measurement sizes {s}")
    return s


def dft_forward(z, measurement_sizes=None) -> np.ndarray:
    """Unnormalized forward transform, zero-padding up to measurement_sizes."""
    a = np.asarray(z)
    s = _measurement_shape(a, measurement_sizes)
    return np.fft.fftn(a, s=s, axes=tuple(range(a.ndim)))


def dft_inverse(s) -> np.ndarray:
    """Inverse transform with the 1/prod(m) normalization."""
    return np.fft.ifftn(np.asarray(s))


def rdft_forward(z, measurement_sizes=None, out=None, grid=None) -> np.ndarray:
    """Half spectrum of real z zero-padded up to measurement_sizes: the
    entries 0 .. m_last//2 along the last axis of ``dft_forward(z, m)``.
    ``out`` is an optional complex array of that half grid; with it, a padded
    z is placed in ``grid``, a real array of the measurement shape."""
    a = np.asarray(z, dtype=float)
    s = _measurement_shape(a, measurement_sizes)
    if out is None:
        return np.fft.rfftn(a, s=s, axes=tuple(range(a.ndim)))
    if s != a.shape:
        # a in the leading block of the zeroed grid: numpy cannot pad two axes
        # into out=, and the bits are those of the padding transform
        grid.fill(0.0)
        grid[_lead(a.shape)] = a
        a = grid
    return np.fft.rfftn(a, out=out)


def rdft_inverse(half, measurement_shape, out=None) -> np.ndarray:
    """Inverse of ``rdft_forward``: the real array of the measurement grid
    whose spectrum is the Hermitian extension of ``half`` (on its
    self-mirrored entries, where ``half`` may break the symmetry, its
    Hermitian part), with the 1/prod(m) normalization; ``out`` is an
    optional real array of the measurement shape."""
    shape = tuple(map(int, measurement_shape))
    return np.fft.irfftn(half, s=shape, axes=tuple(range(len(shape))), out=out)


def hermitian_half(values) -> np.ndarray:
    """The Hermitian part 0.5 * (v[i] + v[-i]) of a real array on the
    measurement grid, cut to its half grid (contiguous)."""
    v = np.asarray(values, dtype=float)
    symmetric = 0.5 * (v + mirror_index(v))
    return np.ascontiguousarray(symmetric[..., : v.shape[-1] // 2 + 1])


def crop(a: np.ndarray, shape) -> np.ndarray:
    """Leading block of ``a`` with the given shape: the object grid of an
    oversampled measurement grid. Returns ``a`` itself when no crop is needed."""
    if a.shape == tuple(shape):
        return a
    return a[_lead(shape)].copy()


class Workspace:
    """The arrays one solver run reuses on every iteration.

    Built once per run (so once per CBDR branch) for one background, support
    mask and measurement grid: the two iterate buffers, used in turn; the
    complex half spectrum and its real magnitude; one real array of the
    measurement grid, which holds the inverse transform (and a padded
    forward input, and the intensity of the measurement error); and the
    combined object [x; y] with the background placed once, so that each
    measurement error rewrites only the support. An array returned through
    ``out=`` a workspace lives in it, overwritten by its next use.
    """

    def __init__(self, background: np.ndarray, mask: SupportMask, measurement_shape):
        self.iterates = (np.empty(mask.shape), np.empty(mask.shape))
        m = tuple(measurement_shape)
        self.half = np.empty(m[:-1] + (m[-1] // 2 + 1,), dtype=complex)
        self.half_magnitude = np.empty(self.half.shape)
        self.grid = np.empty(m)
        self.combined = np.array(background, dtype=float)

    def next_iterate(self, z: np.ndarray) -> np.ndarray:
        """The iterate buffer that does not hold z."""
        first, second = self.iterates
        return second if np.may_share_memory(z, first) else first


def intensity(z, measurement_sizes=None) -> IntensityMeasurements:
    """Forward intensity model I = |DFT z|^2."""
    a = np.asarray(z)
    return IntensityMeasurements(np.abs(dft_forward(a, measurement_sizes)) ** 2,
                                 conj_symmetric=bool(np.isrealobj(a)))


def autocorrelation_direct(z) -> Autocorrelation:
    """Circular autocorrelation by direct summation, R[l] = sum_p z_p z_{p+l}.

    This is the independent O(m^2) oracle against the spectral route; it never
    touches the FFT. Requires m_i = n_i + k_i (shifts live on the object grid).
    """
    a = np.asarray(z, dtype=float)
    out = np.empty(a.shape, dtype=float)
    axes = tuple(range(a.ndim))
    for lag in product(*(range(s) for s in a.shape)):
        shifted = np.roll(a, tuple(-l for l in lag), axis=axes)
        out[lag] = float(np.sum(a * shifted))
    return Autocorrelation(out)


def autocorrelation_from_intensity(measurements: IntensityMeasurements) -> Autocorrelation:
    """Recover R from the intensities via the inverse transform.

    Rejects non-symmetric measurements (a complex object or corrupted data)
    and any inverse transform whose imaginary residue exceeds 1e-9 * max(I).
    """
    if not measurements.conj_symmetric:
        raise ValueError("autocorrelation requires conjugate-symmetric measurements")
    r = dft_inverse(measurements.values)
    scale = max(float(np.max(measurements.values)), np.finfo(float).tiny)
    residue = float(np.max(np.abs(r.imag)))
    if residue > 1e-9 * scale:
        raise ValueError(f"imaginary residue {residue:.3e} exceeds 1e-9 * max(I)")
    return Autocorrelation(r.real)
