"""Projectors onto the magnitude sets and the affine background set.

The magnitude set is given by the root intensity b^{1/2} (``b.root``) as a
plain array on the measurement grid: ``project_magnitude`` projects onto the
equality set |DFT z| = b^{1/2}, ``project_magnitude_ball`` onto the convex
ball |DFT z| <= b^{1/2}, optionally with the DC coefficient pinned to
dc_sign * b^{1/2} at DC. The root is validated where it is measured, in
``IntensityMeasurements``.

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

from typing import Optional

import numpy as np

from .model import SupportMask
from .spectral import Workspace, crop, dft_forward, dft_inverse, spectrum_buffers


def _divide_nonzero(num: np.ndarray, mag: np.ndarray, out: np.ndarray) -> np.ndarray:
    # num / mag where mag > 0, and 1 where the magnitude vanishes (or is NaN);
    # the mask is only built when some magnitude is not positive
    if mag.min() > 0.0:
        return np.divide(num, mag, out=out)
    nonzero = mag > 0
    np.divide(num, mag, out=out, where=nonzero)
    out[~nonzero] = 1.0
    return out


def project_magnitude(z: np.ndarray, root: np.ndarray,
                      out: Optional[Workspace] = None) -> np.ndarray:
    """Replace spectral magnitudes with root = b^{1/2}, keeping the phases of z."""
    z = np.asarray(z, dtype=float)
    spectrum, mag = spectrum_buffers(out, root.shape)
    zhat = dft_forward(z, root.shape, out=spectrum)
    phase = _divide_nonzero(zhat, np.abs(zhat, out=mag), out=zhat)
    what = np.multiply(root, phase, out=zhat)
    return crop(dft_inverse(what, out=what).real, z.shape)


def project_magnitude_ball(z: np.ndarray, root: np.ndarray, dc_sign: Optional[int] = None,
                           out: Optional[Workspace] = None) -> np.ndarray:
    """Radially clamp spectral magnitudes to at most root = b^{1/2};
    coefficients already inside the ball are untouched. With dc_sign (+1 or
    -1) the DC coefficient is set to exactly dc_sign * root at DC."""
    if dc_sign not in (None, 1, -1):
        raise ValueError("dc sign must be +1 or -1")
    z = np.asarray(z, dtype=float)
    spectrum, mag = spectrum_buffers(out, root.shape)
    zhat = dft_forward(z, root.shape, out=spectrum)
    scale = _divide_nonzero(root, np.abs(zhat, out=mag), out=mag)
    what = np.multiply(zhat, np.minimum(1.0, scale, out=scale), out=zhat)
    if dc_sign is not None:
        what.flat[0] = dc_sign * float(root.flat[0])
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
