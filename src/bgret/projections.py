"""Projectors and reflectors for the magnitude sets (equality and convex-ball
variants, with optional pinned DC sign) and the affine background set.

All projectors map real arrays to real arrays: the inverse transform of a
conjugate-symmetric spectrum is real up to rounding, and the real part is
taken so iterates stay in R^{n+k}. When a spectral coefficient vanishes the
magnitude projection is not unique; phase 1 is used, which keeps runs
reproducible.

The projectors take ``out=``: either a ``spectral.Workspace``, whose spectrum
and magnitude buffers the projection is computed in, or None, for new ones.
The code is the same either way; the projection returned is the real part of
the spectrum buffer on the object grid (a copy when the measurement grid is
oversampled), so with a workspace it is a view, valid until its next use.
``project_background`` takes an ordinary ``out`` array.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .model import IntensityMeasurements, SupportMask, _readonly
from .spectral import Workspace, crop, dft_forward, dft_inverse, spectrum_buffers


class MagnitudeMode(Enum):
    EQUALITY = "equality"
    BALL = "ball"


@dataclass(frozen=True)
class DcConstraint:
    """Pinned DC coefficient: sign * value with value = sqrt(b) at DC."""

    sign: int
    value: float

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("dc sign must be +1 or -1")
        if self.value < 0:
            raise ValueError("dc value is a root intensity, must be >= 0")


@dataclass(frozen=True)
class MagnitudeTarget:
    """Target root intensities b^{1/2} plus the projection mode."""

    root_intensity: np.ndarray
    mode: MagnitudeMode
    dc: Optional[DcConstraint] = None

    def __post_init__(self):
        r = np.asarray(self.root_intensity, dtype=float)
        if np.any(r < 0) or not np.all(np.isfinite(r)):
            raise ValueError("root intensities must be finite and nonnegative")
        if self.dc is not None:
            if self.mode is not MagnitudeMode.BALL:
                raise ValueError("dc constraint only applies in ball mode")
            if self.dc.value != float(r.flat[0]):
                raise ValueError("dc value must equal the root intensity at DC")
        object.__setattr__(self, "root_intensity", _readonly(r, float))

    @classmethod
    def equality(cls, b: IntensityMeasurements) -> "MagnitudeTarget":
        return cls(b.root, MagnitudeMode.EQUALITY)

    @classmethod
    def ball(cls, b: IntensityMeasurements, dc_sign: Optional[int] = None) -> "MagnitudeTarget":
        root = b.root
        dc = None if dc_sign is None else DcConstraint(dc_sign, float(root.flat[0]))
        return cls(root, MagnitudeMode.BALL, dc)

    @property
    def shape(self):
        return self.root_intensity.shape


def _divide_nonzero(num: np.ndarray, mag: np.ndarray, out: np.ndarray) -> np.ndarray:
    # num / mag where mag > 0, and 1 where the magnitude vanishes (or is NaN);
    # the mask is only built when some magnitude is not positive
    if mag.min() > 0.0:
        return np.divide(num, mag, out=out)
    nonzero = mag > 0
    np.divide(num, mag, out=out, where=nonzero)
    out[~nonzero] = 1.0
    return out


def project_magnitude(z: np.ndarray, target: MagnitudeTarget,
                      out: Optional[Workspace] = None) -> np.ndarray:
    """Replace spectral magnitudes with b^{1/2}, keeping the phases of z."""
    if target.mode is not MagnitudeMode.EQUALITY:
        raise ValueError("project_magnitude expects an equality-mode target")
    z = np.asarray(z, dtype=float)
    spectrum, mag = spectrum_buffers(out, target.shape)
    zhat = dft_forward(z, target.shape, out=spectrum)
    phase = _divide_nonzero(zhat, np.abs(zhat, out=mag), out=zhat)
    what = np.multiply(target.root_intensity, phase, out=zhat)
    return crop(dft_inverse(what, out=what).real, z.shape)


def project_magnitude_ball(z: np.ndarray, target: MagnitudeTarget,
                           out: Optional[Workspace] = None) -> np.ndarray:
    """Radially clamp spectral magnitudes to at most b^{1/2}; coefficients
    already inside the ball are untouched. A pinned DC is set exactly."""
    if target.mode is not MagnitudeMode.BALL:
        raise ValueError("project_magnitude_ball expects a ball-mode target")
    z = np.asarray(z, dtype=float)
    spectrum, mag = spectrum_buffers(out, target.shape)
    zhat = dft_forward(z, target.shape, out=spectrum)
    scale = _divide_nonzero(target.root_intensity, np.abs(zhat, out=mag), out=mag)
    what = np.multiply(zhat, np.minimum(1.0, scale, out=scale), out=zhat)
    if target.dc is not None:
        what.flat[0] = target.dc.sign * target.dc.value
    return crop(dft_inverse(what, out=what).real, z.shape)


def project_background(z: np.ndarray, background: np.ndarray, mask: SupportMask,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """Nearest point of the affine set B: keep z on Ω, restore y elsewhere.
    ``out`` is an optional array of the object grid that does not overlap z."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(background, dtype=float)
    if z.shape != mask.shape or y.shape != mask.shape:
        raise ValueError("shapes do not match the support mask")
    if out is None:
        out = np.empty(mask.shape)
    np.copyto(out, y)
    np.copyto(out, z, where=mask.inside)
    return out


def reflect(z: np.ndarray, projector: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Reflector 2*P(z) - z for any projector P."""
    z = np.asarray(z, dtype=float)
    return 2.0 * projector(z) - z
