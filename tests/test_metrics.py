import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgret.metrics import (SSIM_K1, SSIM_K2, SSIM_SIGMA, SSIM_WINDOW, SUCCESS_THRESHOLD,
                           _gaussian_kernel, evaluate, measurement_error, psnr,
                           relative_error, ssim, success)
from bgret.model import SupportMask, assemble
from bgret.spectral import intensity


def test_relative_error_basics():
    x = np.array([1.0, 2.0, -1.0])
    assert relative_error(x, x) == 0.0
    assert relative_error(np.zeros(3), x) == pytest.approx(1.0)
    assert relative_error(2 * x, x) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(x, np.zeros(3))


def test_relative_error_homogeneous():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10)
    delta = rng.standard_normal(10)
    base = relative_error(x + delta, x)
    assert relative_error(x + 2 * delta, x) == pytest.approx(2 * base, rel=1e-12)


def test_measurement_error_zero_on_truth():
    rng = np.random.default_rng(1)
    mask = SupportMask.block((12,), (4,))
    y = rng.standard_normal(12)
    y[mask.inside] = 0.0
    x = rng.standard_normal(4)
    b = intensity(assemble(x, y, mask))
    assert measurement_error(x, y, mask, b) <= 1e-12


def test_measurement_error_zero_object_is_one():
    mask = SupportMask.block((4,), (2,))
    x = np.array([1.0, 2.0])
    b = intensity(assemble(x, np.zeros(4), mask))
    assert measurement_error(np.zeros(2), np.zeros(4), mask, b) == pytest.approx(1.0)


def test_measurement_error_matches_recomputation_oracle():
    rng = np.random.default_rng(2)
    mask = SupportMask.centered((6, 6), (2, 2))
    y = rng.standard_normal((6, 6))
    y[mask.inside] = 0.0
    x = rng.standard_normal(4)
    b = intensity(assemble(x, y, mask))
    x_hat = x + 0.1 * rng.standard_normal(4)
    got = measurement_error(x_hat, y, mask, b)
    i_hat = np.abs(np.fft.fftn(assemble(x_hat, y, mask))) ** 2
    expected = np.linalg.norm((i_hat - b.values).ravel()) / np.linalg.norm(b.values.ravel())
    assert got == pytest.approx(expected, rel=1e-14)


def test_psnr_sentinel_and_values():
    img = np.random.default_rng(3).random((8, 8))
    assert math.isinf(psnr(img, img))
    peak = 0.75
    flat = np.zeros((4, 4))
    assert psnr(flat + peak, flat, peak=peak) == pytest.approx(0.0, abs=1e-12)
    half = flat + peak / 2
    assert psnr(half, flat, peak=peak) == pytest.approx(10 * math.log10(4), rel=1e-12)


def test_psnr_monotone_in_mse():
    rng = np.random.default_rng(4)
    img = rng.random((8, 8))
    noise = rng.standard_normal((8, 8))
    values = [psnr(img + s * noise, img, peak=1.0) for s in (0.01, 0.02, 0.05)]
    assert values[0] > values[1] > values[2]


def test_ssim_identity_and_symmetry():
    rng = np.random.default_rng(5)
    a = rng.random((32, 32))
    b = rng.random((32, 32))
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)
    assert ssim(a, b) == pytest.approx(ssim(b, a), rel=1e-12)
    assert ssim(a, b) <= 1.0


def test_ssim_negative_for_anticorrelated():
    # checkerboard: Gaussian-weighted window means vanish, so the sign is
    # carried by the anticorrelated structure term
    i, j = np.mgrid[0:32, 0:32]
    a = ((-1.0) ** (i + j))
    assert ssim(-a, a) < 0.0


def test_ssim_constant_images_luminance_term():
    mu1, mu2, peak = 0.4, 0.6, 1.0
    a = np.full((16, 16), mu1)
    b = np.full((16, 16), mu2)
    c1 = (0.01 * peak) ** 2
    expected = (2 * mu1 * mu2 + c1) / (mu1 ** 2 + mu2 ** 2 + c1)
    assert ssim(a, b, peak=peak) == pytest.approx(expected, rel=1e-12)


def test_ssim_small_image_fallback_warns():
    rng = np.random.default_rng(7)
    a = rng.random((6, 6))
    with pytest.warns(RuntimeWarning):
        value = ssim(a, a)
    assert value == pytest.approx(1.0, abs=1e-12)


def _ssim_window_products(a, b, peak=None):
    # the windowed SSIM as first written: the products a*a, b*b and a*b taken
    # per window, three (H-10, W-10, 11, 11) arrays
    if peak is None:
        rng = float(max(a.max(), b.max()) - min(a.min(), b.min()))
        peak = rng if rng > 0 else 1.0
    c1, c2 = (SSIM_K1 * peak) ** 2, (SSIM_K2 * peak) ** 2
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


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(SSIM_WINDOW, 70), st.integers(SSIM_WINDOW, 70)),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
       noise=st.floats(0.0, 2.0), peak=st.none() | st.floats(1e-2, 1e3))
def test_ssim_matches_the_window_product_formula_bit_for_bit(shape, seed, scale, noise,
                                                             peak):
    # the products formed once on the image give the same (windows, 121)
    # matrix to the same matrix-vector product, so the same bits
    rng = np.random.default_rng(seed)
    a = scale * rng.standard_normal(shape) + rng.uniform(-scale, scale)
    b = a + noise * scale * rng.standard_normal(shape)
    assert repr(ssim(a, b, peak)) == repr(_ssim_window_products(a, b, peak))


def test_ssim_holds_at_most_one_window_matrix():
    # a 64x64 pair has 54x54 windows of 121 pixels; only tensordot's copy of
    # one image's windows may be live at a time
    rng = np.random.default_rng(9)
    a, b = rng.random((64, 64)), rng.random((64, 64))
    tracemalloc.start()
    try:
        ssim(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 54 * 54 * SSIM_WINDOW ** 2 * 8


def test_success_strict_threshold():
    assert success(0.0)
    assert not success(1e-5)
    assert success(9.9e-6)
    assert SUCCESS_THRESHOLD == 1e-5


def test_evaluate_bundles():
    rng = np.random.default_rng(8)
    mask = SupportMask.centered((8, 8), (4, 4))
    y = rng.standard_normal((8, 8))
    y[mask.inside] = 0.0
    x = rng.random(16)
    b = intensity(assemble(x, y, mask))
    with pytest.warns(RuntimeWarning, match="SSIM window"):
        report = evaluate(x, x, y, mask, b)
    assert report["success"] and report["relative_error"] == 0.0
    assert math.isinf(report["psnr"])
    mask1d = SupportMask.block((24,), (6,))
    y1d = rng.standard_normal(24)
    y1d[mask1d.inside] = 0.0
    x1d = rng.random(6)
    report1d = evaluate(x1d, x1d, y1d, mask1d, intensity(assemble(x1d, y1d, mask1d)))
    assert math.isnan(report1d["psnr"]) and math.isnan(report1d["ssim"])
