"""Projectors onto the magnitude sets and the affine background set.

``project_magnitude`` projects onto the equality set |DFT z| = b^{1/2} and
``project_magnitude_ball`` onto the convex ball |DFT z| <= b^{1/2},
optionally with the DC coefficient pinned to dc_sign * b^{1/2} at DC. Both
take the half root ``b.half_root`` and work on the half spectrum of the real
iterate (README Conventions). Phase 1 is used where a computed magnitude is
exactly 0, so a vanishing coefficient keeps runs reproducible.

The magnitude projectors transform in the ``spectral.Workspace`` passed as
``out=`` (z on its grid, or a stack (L, *grid) of its L lanes), or else in
one built for the call, and return its grid buffer, valid until that
workspace's next use. Each lane of a stack is projected as it would be
alone, byte for byte, and the ball takes one DC sign per lane.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import SupportMask
from .spectral import Workspace


def _divide_nonzero(num, mag: np.ndarray, out: np.ndarray) -> Optional[np.ndarray]:
    # out = num / mag where mag > 0, and 1 where the magnitude vanishes (or is
    # NaN); returns the mask of those entries, or None when there are none:
    # the mask is only built when some magnitude is not positive
    if np.minimum.reduce(mag, axis=None) > 0.0:  # mag.min() without its wrapper
        np.divide(num, mag, out=out)
        return None
    vanishing = ~(mag > 0)
    np.divide(num, mag, out=out, where=~vanishing)
    out[vanishing] = 1.0
    return vanishing


def project_magnitude(z: np.ndarray, half_root: np.ndarray,
                      out: Optional[Workspace] = None) -> np.ndarray:
    """Replace spectral magnitudes with b^{1/2}, keeping the phases of z
    (of their Hermitian part on the self-mirrored lines); half_root is
    ``b.half_root`` on the grid of z."""
    if out is None:
        z = np.asarray(z, dtype=float)
        out = Workspace(z.shape)
    zhat = out.forward(z)
    out.hermitian_lines()
    # phase * root as X * (1/|X|) * root: the bytes of X / |X| (numpy divides
    # by the complex |X| + 0j as (re * s, im * s) with s = 1/|X|) without the
    # complex division; a vanishing |X| takes phase 1
    reciprocal = np.abs(zhat, out=out.half_magnitude)
    vanishing = _divide_nonzero(1.0, reciprocal, out=reciprocal)
    if vanishing is not None:
        zhat[vanishing] = 1.0
    np.multiply(zhat, reciprocal, out=zhat)
    np.multiply(zhat, half_root, out=zhat)
    return out.inverse()


def project_magnitude_ball(z: np.ndarray, half_root: np.ndarray,
                           dc_sign: int | tuple[int, ...] | None = None,
                           out: Optional[Workspace] = None) -> np.ndarray:
    """Radially clamp spectral magnitudes to at most b^{1/2}; coefficients
    already inside the ball are untouched. With dc_sign (+1 or -1, or for a
    stack a tuple of one sign per lane) the DC coefficient is set to exactly
    dc_sign * b^{1/2} at DC. half_root is as for ``project_magnitude``."""
    if dc_sign not in (None, 1, -1) and not (isinstance(dc_sign, tuple)
                                             and set(dc_sign) <= {1, -1}):
        raise ValueError("dc sign must be +1 or -1")
    if out is None:
        z = np.asarray(z, dtype=float)
        out = Workspace(z.shape)
    zhat = out.forward(z)
    scale = np.abs(zhat, out=out.half_magnitude)
    _divide_nonzero(half_root, scale, out=scale)
    np.multiply(zhat, np.minimum(1.0, scale, out=scale), out=zhat)
    if dc_sign is not None:
        dc = float(half_root.flat[0])
        zhat[(...,) + (0,) * len(out.shape)] = (
            [sign * dc for sign in dc_sign] if isinstance(dc_sign, tuple) else dc_sign * dc)
    return out.inverse()


def project_background(z: np.ndarray, background: np.ndarray,
                       mask: SupportMask) -> np.ndarray:
    """Nearest point of the affine set B, as a new array: keep z on Ω,
    restore y elsewhere."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(background, dtype=float)
    if z.shape != mask.shape or y.shape != mask.shape:
        raise ValueError("shapes do not match the support mask")
    out = y.copy()
    out[mask.slices] = z[mask.slices]
    return out
