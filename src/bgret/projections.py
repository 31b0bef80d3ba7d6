"""Projectors onto the magnitude sets and the affine background set.

The magnitude set is given by the root intensity b^{1/2} (``b.root``) on the
object grid: ``project_magnitude`` projects onto the equality set
|DFT z| = b^{1/2}, ``project_magnitude_ball`` onto the convex ball
|DFT z| <= b^{1/2}, optionally with the DC coefficient pinned to
dc_sign * b^{1/2} at DC. The root is validated where it is measured, in
``IntensityMeasurements``.

Both work on the half spectrum of the real iterate: the workspace's
``forward`` to the (..., m_last//2+1) half grid, the phase or clamp there in
place, and its ``inverse`` back to the real grid of z. They take the root as
the half root ``b.half_root`` (``hermitian_half(b.root)``, cached on b). The
inverse of a half spectrum is the real part of the inverse of its Hermitian
extension, so with that half root the equality projection is, up to
rounding, the one the full complex transform and ``.real`` give, for any
nonnegative root; so is the ball projection for the root of a real object,
which is symmetric.

The equality projection forms phase × root as X * (1/|X|) * root, with one
real division: the bytes of the complex division X / |X| times the root,
apart from the sign of an exact zero.

When a spectral coefficient vanishes the magnitude projection is not unique;
phase 1 is used where the computed magnitude is exactly 0, which keeps runs
reproducible. A coefficient that vanishes only up to rounding keeps the
phase of its rounding error; on the self-mirrored lines of the half grid
(2-D and above) the equality projection takes the phase of the line's
Hermitian part (``Workspace.hermitian_lines``), so it lands on the magnitude
set there too.

The magnitude projectors transform through a ``spectral.Workspace`` of the
grid of z, passed as ``out=`` (with an array z on its grid) or else built for
the call, and return its real grid buffer: with a caller's workspace the
projection is valid until that workspace's next use. ``project_background``
returns a new array: a copy of the background with the block of z written
over Ω by the mask's ``slices``.

The magnitude projectors also take a stack of lanes, z of shape (L, *grid),
with a workspace of L lanes passed as ``out=``, and project each lane as they
would that lane alone, byte for byte; the ball then takes one DC sign per
lane.
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
    """Nearest point of the affine set B: keep z on Ω, restore y elsewhere."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(background, dtype=float)
    if z.shape != mask.shape or y.shape != mask.shape:
        raise ValueError("shapes do not match the support mask")
    out = y.copy()
    out[mask.slices] = z[mask.slices]
    return out
