"""The real transform pair, the intensity forward model, and circular
autocorrelation with its spectral bridge.

Every transform bgret makes is a real-data transform of a ``Workspace``
(``LOOP_TRANSFORMS``). Measurements live on the object grid: the known
background takes the place of oversampling, so the combined object [x; y] of
grid m = n + k is transformed on that grid, unpadded. The forward transform
is unnormalized, entry i equals sum_t z_t exp(-2*pi*j*i*t/m), and the inverse
carries the 1/prod(m) factor.

A real object's spectrum is Hermitian, X[-i] = conj(X[i]), so a
``Workspace`` holds only its half grid: ``forward`` computes the spectrum's
entries 0 .. m_last//2 along the last axis, and ``inverse`` maps a half
spectrum back to the real array of the grid, as the inverse of its Hermitian
extension. ``power`` forms the intensity |X|^2 on the half grid as
re*re + im*im, the one place bgret squares a magnitude; unlike ``np.abs`` of
a complex array it gives the same bits at every SIMD level. The forward
model ``intensity`` takes the half grid's power and fills the rest of the
grid from s[-i] = s[i]; the autocorrelation is the inverse of the half grid
of the intensities. A real array on the full grid that multiplies a
Hermitian spectrum, or is inverted, acts through its Hermitian part cut to
the half grid, ``hermitian_half`` (from ``model``; ``IntensityMeasurements``
caches it for b and b^{1/2}). So the magnitude projection onto b^{1/2} takes
the half root, the spectral start (1/prod m) * Re DFT(b^{1/2}) is the
inverse of the half root, and a sum over the grid of a Hermitian real array
is a sum over its half grid weighted by ``Workspace.weights``: 1 on the
self-mirrored lines (last-axis index 0, and m_last/2 when m_last is even),
which hold both entries of each mirror pair, and 2 elsewhere. On those lines
the computed half spectrum of a real array is Hermitian only up to
rounding; ``Workspace.hermitian_lines`` makes them Hermitian (2-D and above;
in 1-D their entries are real).

For real z the intensity |DFT z|^2 and the circular autocorrelation
R[l] = sum_p z[p] z[(p+l) mod m] are a transform pair.

The real-data pair runs in the solver loop, twice per iteration, on grids
where numpy's Python wrappers (``rfftn`` -> ``rfft`` -> ``_raw_fft``) cost
more than the transforms. So a ``Workspace``, built once per solver run
(and per lane count of its stack), checks its grid once and calls the
pocketfft gufuncs under them, ``numpy.fft._pocketfft_umath``, directly, once
per axis, with the axis order and the factors ``rfftn``/``irfftn`` use, and
gives the same bytes:

* ``forward(z)`` runs ``rfft_n_even`` or ``rfft_n_odd`` (factor 1) along the
  last axis of z into ``half``, then ``fft`` (factor 1) in place over the
  leading axes, from the last one to the first;
* ``inverse()`` runs ``ifft`` with factor 1/m_axis in place in ``half`` over
  the leading axes, from the first one to the last, then ``irfft`` with
  factor 1/m_last into ``grid``. In 2-D and above it therefore overwrites
  the half spectrum.

A ``Workspace`` with ``lanes`` = L holds a stack of L arrays of the grid, the
lane axis in front, and its gufuncs loop over that axis (their grid axes are
counted from the end): one call transforms every lane, and each lane gets
the bytes of a workspace of one array. CBDR's two DC-sign lanes run in one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .model import (IntensityMeasurements, _readonly, hermitian_half, mirror, mirror_index,
                    require_count, require_mirror_symmetric)


@dataclass(frozen=True)
class Autocorrelation:
    """Circular autocorrelation of a real object; symmetric under l -> m - l."""

    values: np.ndarray

    SYMMETRY_RTOL = 1e-9

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        require_mirror_symmetric(v, mirror_index(v), self.SYMMETRY_RTOL,
                                 "autocorrelation lacks circular symmetry")
        object.__setattr__(self, "values", _readonly(v, float))


#: Every transform bgret makes, as recorded in every run manifest.
LOOP_TRANSFORMS = "numpy.fft._pocketfft_umath rfft_n_even/rfft_n_odd/fft/ifft/irfft"


class Workspace:
    """The real-data transform pair on one grid and its scratch: the half
    spectrum ``half``, a real array ``half_magnitude`` of the half grid for
    its magnitude or ``power``, and a real array ``grid`` of the grid.
    ``forward`` and ``inverse`` give the bytes of ``numpy.fft.rfftn(z)`` and
    ``numpy.fft.irfftn(half, s=shape)`` (on the self-mirrored entries, where
    ``half`` may break the Hermitian symmetry, its Hermitian part) and
    return the buffer they fill.

    With ``lanes`` = L the buffers hold a stack of L arrays of the grid, the
    lane axis in front, and the gufuncs loop over it: each lane gets the
    bytes of a workspace of one array."""

    def __init__(self, shape: tuple[int, ...], lanes: Optional[int] = None):
        self.shape = shape = tuple(shape)
        if not shape or min(shape) < 1:
            raise ValueError(f"{shape} is not a transform grid: it needs one axis or more, "
                             "each of length 1 or more")
        if lanes is not None:
            require_count("lanes", lanes)
        stack = () if lanes is None else (lanes,)
        d, m = len(shape), shape[-1]
        self.half = np.empty(stack + shape[:-1] + (m // 2 + 1,), dtype=complex)
        self.half_magnitude = np.empty(self.half.shape)
        self.grid = np.empty(stack + shape)
        self._stack_shape = self.grid.shape
        self._rfft = _pocketfft.rfft_n_odd if m % 2 else _pocketfft.rfft_n_even
        # gufunc axes of a (n),()->(m) transform along each leading axis, in
        # irfftn's order, with its inverse factor; counted from the end, so
        # the gufunc loops over a lane axis in front
        self._leading = [([(axis - d,), (), (axis - d,)], 1 / shape[axis])
                         for axis in range(d - 1)]
        self._leading_reversed = [axes for axes, _ in reversed(self._leading)]
        self._last_factor = 1 / m
        # the self-mirrored lines (last-axis j = -j mod m) of the half grid and,
        # in 2-D and above, the flat indices in ``half`` of their entries and
        # of the entries' mirrors over every leading axis, in every lane
        self._lines = np.flatnonzero(mirror((m,))[0] == np.arange(m))
        self._line_entries = self._line_mirrors = None
        if d > 1:
            lane_index = [np.arange(n) for n in stack]
            def flat(leading):
                index = np.ix_(*lane_index, *leading, self._lines)
                return np.ravel_multi_index(index, self.half.shape).reshape(-1)
            self._line_entries = flat([np.arange(n) for n in shape[:-1]])
            self._line_mirrors = flat(mirror(shape[:-1]))

    @cached_property
    def weights(self) -> np.ndarray:
        """The weight of each half-grid entry in a sum over the grid of a
        Hermitian real array: 2, and 1 on the self-mirrored lines."""
        w = np.full(self.half.shape[-len(self.shape):], 2.0)
        w[..., self._lines] = 1.0
        return w

    def forward(self, z: np.ndarray) -> np.ndarray:
        """Half spectrum of the real grid array z (only read) into ``half``;
        with lanes, z is the stack. A z off the grid or with another lane
        count raises ValueError: the gufuncs would pad, cut or broadcast it."""
        if z.shape != self._stack_shape:
            raise ValueError(f"array of shape {z.shape} is not on the grid {self._stack_shape}")
        half = self._rfft(z, 1, out=self.half)
        for axes in self._leading_reversed:
            _pocketfft.fft(half, 1, out=half, axes=axes)
        return half

    def power(self, z: np.ndarray) -> np.ndarray:
        """The power |X|^2 of the half spectrum X of z (``forward``), as
        re*re + im*im, into ``half_magnitude``."""
        half = self.forward(z)
        return np.add(half.real * half.real, half.imag * half.imag, out=self.half_magnitude)

    def hermitian_lines(self) -> None:
        """Replace each self-mirrored line of ``half`` by its Hermitian part
        0.5 * (v[i] + conj(v[-i])), the mirror taken over the leading axes
        of the grid, in each lane. In 1-D those entries are real and nothing
        is done."""
        if self._line_mirrors is None:
            return
        flat = self.half.reshape(-1)
        lines = flat[self._line_entries]
        lines += np.conjugate(flat[self._line_mirrors])
        lines *= 0.5
        flat[self._line_entries] = lines

    def inverse(self) -> np.ndarray:
        """The real array of the half spectrum in ``half``, into ``grid``
        (lane by lane)."""
        half = self.half
        for axes, factor in self._leading:
            _pocketfft.ifft(half, factor, out=half, axes=axes)
        return _pocketfft.irfft(half, self._last_factor, out=self.grid)


def intensity(z) -> IntensityMeasurements:
    """Forward intensity model I = |DFT z|^2 of a real array z, on its grid:
    ``Workspace.power`` on the half grid, and s[-i] = s[i] on the rest (for
    a last-axis index j > m_last//2, -j mod m_last lies in the half grid). A
    complex z raises ValueError."""
    a = np.asarray(z)
    if np.iscomplexobj(a):
        raise ValueError("the intensity model takes a real object")
    power = Workspace(a.shape).power(a)
    half = power.shape[-1]
    values = np.empty(a.shape)
    values[..., :half] = power
    values[..., half:] = mirror_index(values)[..., half:]
    return IntensityMeasurements(values)


def autocorrelation_from_intensity(measurements: IntensityMeasurements) -> Autocorrelation:
    """Recover R from the intensities as the inverse of their half grid,
    ``b.half_values``. Rejects measurements not marked conjugate-symmetric
    (a complex object or corrupted data)."""
    if not measurements.conj_symmetric:
        raise ValueError("autocorrelation requires conjugate-symmetric measurements")
    work = Workspace(measurements.shape)
    work.half[...] = measurements.half_values
    return Autocorrelation(work.inverse())
