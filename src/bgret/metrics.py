"""Recovery quality metrics: relative error, measurement error, PSNR, SSIM and
the success predicate.

No trivial-ambiguity matching (sign/shift/phase) is performed anywhere: the
background model pins the solution exactly and the metrics must expose any
failure to do so.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import IntensityMeasurements, SupportMask
from .spectral import Workspace, dft_forward, spectrum_buffers

#: Relative errors strictly below this threshold count as successful recovery.
SUCCESS_THRESHOLD = 1e-5

#: SSIM's Gaussian window (side, standard deviation) and its stabilizing
#: constants c_i = (K_i * peak)^2.
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def l2_norm(v: np.ndarray) -> float:
    """sqrt(v . v) over the flattened float array: the arithmetic of
    np.linalg.norm for a vector (one BLAS dot), without its argument handling."""
    if v.ndim != 1:
        v = v.reshape(-1)
    return math.sqrt(v.dot(v))


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


def measurement_error(x_hat, background, mask: SupportMask,
                      b: IntensityMeasurements, out: Optional[Workspace] = None) -> float:
    """|| |DFT([x_hat; y])|^2 - b ||_2 / ||b||_2.

    ``out`` is an optional ``spectral.Workspace`` built for this background
    and mask: x_hat is written onto the support of its combined object, whose
    background was placed once, and the transform runs in its buffers.
    """
    denom = b.norm
    if denom == 0.0:
        raise ValueError("measurement error undefined for zero measurements")
    # called on every solver iteration, so x_hat goes onto the support of the
    # combined object directly rather than through the checks of assemble
    z = np.array(background, dtype=float) if out is None else out.combined
    z[mask.inside] = np.asarray(x_hat, dtype=float).reshape(-1)
    spectrum, i_hat = spectrum_buffers(out, b.shape)
    np.abs(dft_forward(z, b.shape, out=spectrum), out=i_hat)
    np.square(i_hat, out=i_hat)
    return l2_norm(np.subtract(i_hat, b.values, out=i_hat)) / denom


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
    """Mean local SSIM with an 11x11 Gaussian window (sigma 1.5).

    Images smaller than the window fall back to a single global window and a
    warning is emitted.
    """
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
    win_a = np.lib.stride_tricks.sliding_window_view(a, (SSIM_WINDOW, SSIM_WINDOW))
    win_b = np.lib.stride_tricks.sliding_window_view(b, (SSIM_WINDOW, SSIM_WINDOW))

    def wmean(w):
        return np.tensordot(w, kernel, axes=([2, 3], [0, 1]))

    mu1, mu2 = wmean(win_a), wmean(win_b)
    s11 = wmean(win_a * win_a) - mu1 * mu1
    s22 = wmean(win_b * win_b) - mu2 * mu2
    s12 = wmean(win_a * win_b) - mu1 * mu2
    num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
    den = (mu1 ** 2 + mu2 ** 2 + c1) * (s11 + s22 + c2)
    return float(np.mean(num / den))


def success(e: float) -> bool:
    """Strictly below the 1e-5 recovery threshold."""
    return bool(e < SUCCESS_THRESHOLD)


@dataclass(frozen=True)
class MetricReport:
    relative_error: float
    measurement_error: float
    psnr_db: float
    ssim: float
    success: bool

    def __post_init__(self):
        if self.relative_error < 0 or self.measurement_error < 0:
            raise ValueError("error metrics must be nonnegative")


def evaluate(x_hat, x, background, mask: SupportMask, b: IntensityMeasurements,
             image_shape: Optional[tuple[int, ...]] = None) -> MetricReport:
    """Bundle all metrics for one recovery; PSNR/SSIM are NaN for 1-D data."""
    e = relative_error(x_hat, x)
    me = measurement_error(x_hat, background, mask, b)
    if image_shape is not None and len(image_shape) == 2:
        a = np.asarray(x_hat, dtype=float).reshape(image_shape)
        t = np.asarray(x, dtype=float).reshape(image_shape)
        p = psnr(a, t)
        s = ssim(a, t)
    else:
        p, s = math.nan, math.nan
    return MetricReport(e, me, p, s, success(e))
