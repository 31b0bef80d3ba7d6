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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import CombinedObject, IntensityMeasurements, _readonly, mirror_index


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


def _as_array(z):
    if isinstance(z, CombinedObject):
        return z.values
    return np.asarray(z)


def dft_forward(z, measurement_sizes=None) -> np.ndarray:
    """Unnormalized forward transform, zero-padding up to measurement_sizes."""
    a = _as_array(z)
    if measurement_sizes is not None:
        s = tuple(int(v) for v in measurement_sizes)
        if len(s) != a.ndim or any(si < ai for si, ai in zip(s, a.shape)):
            raise ValueError(f"cannot pad shape {a.shape} to measurement sizes {s}")
    else:
        s = a.shape
    return np.fft.fftn(a, s=s, axes=tuple(range(a.ndim)))


def dft_inverse(s) -> np.ndarray:
    """Inverse transform with the 1/prod(m) normalization."""
    return np.fft.ifftn(np.asarray(s))


def crop(a: np.ndarray, shape) -> np.ndarray:
    """Leading block of ``a`` with the given shape: the object grid of an
    oversampled measurement grid. Returns ``a`` itself when no crop is needed."""
    if a.shape == tuple(shape):
        return a
    return a[tuple(slice(0, s) for s in shape)].copy()


def intensity(z, measurement_sizes=None) -> IntensityMeasurements:
    """Forward intensity model I = |DFT z|^2."""
    a = _as_array(z)
    return IntensityMeasurements(np.abs(dft_forward(a, measurement_sizes)) ** 2,
                                 conj_symmetric=bool(np.isrealobj(a)))


def autocorrelation_direct(z) -> Autocorrelation:
    """Circular autocorrelation by direct summation, R[l] = sum_p z_p z_{p+l}.

    This is the independent O(m^2) oracle against the spectral route; it never
    touches the FFT. Requires m_i = n_i + k_i (shifts live on the object grid).
    """
    a = np.asarray(_as_array(z), dtype=float)
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
