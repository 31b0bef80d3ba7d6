"""Discrete Fourier transforms, the intensity forward model, and circular
autocorrelation with its spectral bridge.

Convention: the forward transform is unnormalized, entry i of ``dft_forward(z)``
equals sum_t z_t exp(-2*pi*j*i*t/m); the inverse carries the 1/prod(m) factor,
so ``dft_inverse(dft_forward(z)) == z``. Both return plain complex ndarrays,
and ``crop`` cuts the object grid back out of an oversampled measurement
grid. The forward model, the projectors, the solvers and the metrics all
transform through this pair. Multi-axis transforms factor by separability.

For real z the intensity |DFT z|^2 and the circular autocorrelation
R[l] = sum_p z[p] z[(p+l) mod m] are a transform pair, which the
direct-summation oracle below pins down numerically.

Both transforms take ``out=`` as numpy does: the result is written into that
complex array and returned. numpy cannot zero-pad two axes into ``out``, so a
padded forward transform places z in the leading block of the zeroed ``out``
and transforms it in place, which gives the same bits. A solver run keeps its
buffers in one ``Workspace``, built once per run and passed as ``out=`` to
the projectors, the solver steps and the measurement error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

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


def _lead(shape) -> tuple:
    return tuple(slice(0, n) for n in shape)


def dft_forward(z, measurement_sizes=None, out=None) -> np.ndarray:
    """Unnormalized forward transform, zero-padding up to measurement_sizes;
    ``out`` is an optional complex array of the measurement shape."""
    a = np.asarray(z)
    s = a.shape if measurement_sizes is None else tuple(map(int, measurement_sizes))
    if s != a.shape and (len(s) != a.ndim or any(si < ai for si, ai in zip(s, a.shape))):
        raise ValueError(f"cannot pad shape {a.shape} to measurement sizes {s}")
    if out is None:
        return np.fft.fftn(a, s=s, axes=tuple(range(a.ndim)))
    if s == a.shape:
        out[...] = a
    else:
        out.fill(0.0)
        out[_lead(a.shape)] = a
    return np.fft.fftn(out, out=out)


def dft_inverse(s, out=None) -> np.ndarray:
    """Inverse transform with the 1/prod(m) normalization; ``out`` (a complex
    array of the same shape) may be ``s`` itself."""
    return np.fft.ifftn(np.asarray(s), out=out)


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
    complex spectrum and real magnitude buffers of the measurement grid; and
    the combined object [x; y] with the background placed once, so that each
    measurement error rewrites only the support. An array returned through
    ``out=`` a workspace lives in it, overwritten by its next use.
    """

    def __init__(self, background: np.ndarray, mask: SupportMask, measurement_shape):
        self.iterates = (np.empty(mask.shape), np.empty(mask.shape))
        self.spectrum = np.empty(measurement_shape, dtype=complex)
        self.magnitude = np.empty(measurement_shape)
        self.combined = np.array(background, dtype=float)

    def next_iterate(self, z: np.ndarray) -> np.ndarray:
        """The iterate buffer that does not hold z."""
        first, second = self.iterates
        return second if np.may_share_memory(z, first) else first


def spectrum_buffers(out: Optional[Workspace], shape) -> tuple[np.ndarray, np.ndarray]:
    """The (complex spectrum, real magnitude) pair of the workspace, or a new
    pair of the given shape without one."""
    if out is None:
        return np.empty(shape, dtype=complex), np.empty(shape)
    return out.spectrum, out.magnitude


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
