"""Recovery quality metrics: relative error, measurement error, PSNR, SSIM,
the success predicate and the fixed-point residual.

No trivial-ambiguity matching (sign/shift/phase) is performed anywhere: the
background model pins the solution exactly and the metrics must expose any
failure to do so.

The measurement error ||s - b||_2 / ||b||_2 and the fixed-point residual
max|s - h| / max(b), for the intensity s of [x_hat; y] and h the Hermitian
part of b, are two norms of one half-grid residual r = s - h, which
``evaluate`` computes once for both (README Conventions).
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .model import IntensityMeasurements, SupportMask, assemble, inner, l2_norm
from .spectral import Workspace

#: Relative errors strictly below this threshold count as successful recovery.
SUCCESS_THRESHOLD = 1e-5

#: SSIM's Gaussian window (side, standard deviation) and its stabilizing
#: constants c_i = (K_i * peak)^2.
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def relative_error(x_hat, x) -> float:
    """||x_hat - x||_2 / ||x||_2 over the support values."""
    x = np.asarray(x, dtype=float).reshape(-1)
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    if x_hat.shape != x.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x.shape}")
    denom = l2_norm(x)
    if denom == 0.0:
        raise ValueError("relative error undefined for zero ground truth")
    return l2_norm(x_hat - x) / denom


def _intensity_residual(x_hat, background, mask: SupportMask, b: IntensityMeasurements,
                        work: Workspace) -> np.ndarray:
    # r = |DFT([x_hat; y])|^2 - h on the half grid, in the workspace's
    # magnitude buffer
    if b.norm == 0.0:
        raise ValueError("measurement error undefined for zero measurements")
    return np.subtract(work.power(assemble(x_hat, background, mask)), b.half_values,
                       out=work.half_magnitude)


def _residual_norm(r: np.ndarray, b: IntensityMeasurements, work: Workspace) -> float:
    # ||s - b||_2 over the grid from r = s - h on the half grid
    return math.sqrt(inner(work.weights, np.square(r)) + b.asymmetry)


def measurement_error(x_hat, background, mask: SupportMask, b: IntensityMeasurements,
                      work: Optional[Workspace] = None) -> float:
    """|| |DFT([x_hat; y])|^2 - b ||_2 / ||b||_2, transformed in ``work`` (None
    builds one)."""
    work = Workspace(mask.shape) if work is None else work
    return _residual_norm(_intensity_residual(x_hat, background, mask, b, work), b,
                          work) / b.norm


def _default_peak(reference: np.ndarray) -> float:
    rng = float(np.max(reference) - np.min(reference))
    return rng if rng > 0 else 1.0


def psnr(img_hat, img, peak: Optional[float] = None) -> float:
    """10*log10(peak^2 / MSE); +inf sentinel for identical images.

    peak defaults to the reference image's dynamic range (255 for 8-bit
    sources, handled by the callers that load such data).
    """
    a = np.asarray(img_hat, dtype=float)
    b = np.asarray(img, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if peak is None:
        peak = _default_peak(b)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma * sigma))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


def ssim(img_hat, img, peak: Optional[float] = None) -> float:
    """Mean local SSIM with an 11x11 Gaussian window (sigma 1.5), as the
    README Conventions state it; images smaller than the window fall back to
    a single global window and a warning is emitted."""
    a = np.asarray(img_hat, dtype=float)
    b = np.asarray(img, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError("ssim expects 2-D images")
    if peak is None:
        # joint dynamic range keeps ssim symmetric in its arguments
        rng = float(max(a.max(), b.max()) - min(a.min(), b.min()))
        peak = rng if rng > 0 else 1.0
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2

    if min(a.shape) < SSIM_WINDOW:
        warnings.warn("image smaller than SSIM window; using global statistics",
                      RuntimeWarning, stacklevel=2)
        mu1, mu2 = a.mean(), b.mean()
        v1, v2 = a.var(), b.var()
        cov = float(np.mean((a - mu1) * (b - mu2)))
        return float(((2 * mu1 * mu2 + c1) * (2 * cov + c2))
                     / ((mu1 ** 2 + mu2 ** 2 + c1) * (v1 + v2 + c2)))

    kernel = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)

    def wmean(image):
        # the kernel-weighted mean of each window of an image: tensordot copies
        # the windows into one (windows, 121) matrix for one matrix-vector product
        windows = np.lib.stride_tricks.sliding_window_view(image, kernel.shape)
        return np.tensordot(windows, kernel, axes=([2, 3], [0, 1]))

    mu1, mu2 = wmean(a), wmean(b)
    s11 = wmean(a * a) - mu1 * mu1
    s22 = wmean(b * b) - mu2 * mu2
    s12 = wmean(a * b) - mu1 * mu2
    num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
    den = (mu1 ** 2 + mu2 ** 2 + c1) * (s11 + s22 + c2)
    return float(np.mean(num / den))


def success(e: float) -> bool:
    """Strictly below the 1e-5 recovery threshold."""
    return bool(e < SUCCESS_THRESHOLD)


def evaluate(x_hat, x, background, mask: SupportMask, b: IntensityMeasurements) -> dict:
    """The metric columns of a result row: relative_error, measurement_error,
    psnr and ssim (NaN unless the mask is 2-D), success, and fixedpoint_resid,
    the sup-norm intensity residual max|s - h| scaled by max(b), the
    fixed-point consistency quantity."""
    e = relative_error(x_hat, x)
    work = Workspace(mask.shape)
    r = _intensity_residual(x_hat, background, mask, b, work)
    if len(mask.shape) == 2:
        a, t = mask.to_block(x_hat), mask.to_block(x)
        p, s = psnr(a, t), ssim(a, t)
    else:
        p, s = math.nan, math.nan
    resid = float(np.max(np.abs(r))) / max(float(np.max(b.values)), np.finfo(float).tiny)
    return {"relative_error": e, "measurement_error": _residual_norm(r, b, work) / b.norm,
            "psnr": p,
            "ssim": s, "success": success(e), "fixedpoint_resid": resid}
