"""Projectors and reflectors for the magnitude sets (equality and convex-ball
variants, with optional pinned DC sign) and the affine background set.

All projectors map real arrays to real arrays: the inverse transform of a
conjugate-symmetric spectrum is real up to rounding, and the real part is
taken so iterates stay in R^{n+k}. When a spectral coefficient vanishes the
magnitude projection is not unique; phase 1 is used, which keeps runs
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .model import IntensityMeasurements, SupportMask, _readonly
from .spectral import crop, dft_forward, dft_inverse


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


def project_magnitude(z: np.ndarray, target: MagnitudeTarget) -> np.ndarray:
    """Replace spectral magnitudes with b^{1/2}, keeping the phases of z."""
    if target.mode is not MagnitudeMode.EQUALITY:
        raise ValueError("project_magnitude expects an equality-mode target")
    z = np.asarray(z, dtype=float)
    zhat = dft_forward(z, target.shape)
    mag = np.abs(zhat)
    phase = np.divide(zhat, mag, out=np.ones_like(zhat), where=mag > 0)
    return crop(dft_inverse(target.root_intensity * phase).real, z.shape)


def project_magnitude_ball(z: np.ndarray, target: MagnitudeTarget) -> np.ndarray:
    """Radially clamp spectral magnitudes to at most b^{1/2}; coefficients
    already inside the ball are untouched. A pinned DC is set exactly."""
    if target.mode is not MagnitudeMode.BALL:
        raise ValueError("project_magnitude_ball expects a ball-mode target")
    z = np.asarray(z, dtype=float)
    zhat = dft_forward(z, target.shape)
    mag = np.abs(zhat)
    scale = np.divide(target.root_intensity, mag, out=np.ones_like(mag), where=mag > 0)
    what = zhat * np.minimum(1.0, scale)
    if target.dc is not None:
        what.flat[0] = target.dc.sign * target.dc.value
    return crop(dft_inverse(what).real, z.shape)


def project_background(z: np.ndarray, background: np.ndarray, mask: SupportMask) -> np.ndarray:
    """Nearest point of the affine set B: keep z on Ω, restore y elsewhere."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(background, dtype=float)
    if z.shape != mask.shape or y.shape != mask.shape:
        raise ValueError("shapes do not match the support mask")
    out = y.copy()
    out[mask.inside] = z[mask.inside]
    return out


def reflect(z: np.ndarray, projector: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Reflector 2*P(z) - z for any projector P."""
    z = np.asarray(z, dtype=float)
    return 2.0 * projector(z) - z
