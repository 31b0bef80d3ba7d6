import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgret.model import IntensityMeasurements, SupportMask, assemble
from bgret.spectral import (Autocorrelation, autocorrelation_direct,
                            autocorrelation_from_intensity, dft_forward,
                            dft_inverse, intensity)


def test_only_spectral_calls_numpy_fft():
    # one FFT entry point: every other module transforms through spectral
    package = Path(__file__).resolve().parent.parent / "src" / "bgret"
    offenders = [p.name for p in sorted(package.glob("*.py")) if p.name != "spectral.py"
                 and re.search(r"np\.fft|numpy\.fft", p.read_text(encoding="utf-8"))]
    assert offenders == []


def test_dft_forward_two_point_values():
    assert np.allclose(dft_forward(np.array([1.0, 0.0])), [1, 1])
    assert np.allclose(dft_forward(np.array([1.0, 1.0])), [2, 0])
    assert np.allclose(dft_forward(np.array([3.0, 1.0])), [4, 2])


def test_dft_inverse_examples_and_round_trip():
    assert np.allclose(dft_inverse(np.array([1.0, 1.0])), [1, 0])
    assert np.allclose(dft_inverse(np.array([2.0, 0.0])), [1, 1])
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.standard_normal(rng.integers(1, 40))
        back = dft_inverse(dft_forward(z))
        assert np.max(np.abs(back - z)) <= 1e-12 * max(1.0, np.max(np.abs(z)))


def test_dft_zero_padding():
    z = np.array([1.0, 2.0])
    spec = dft_forward(z, measurement_sizes=(4,))
    assert np.allclose(spec, np.fft.fft([1.0, 2.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        dft_forward(np.zeros(5), measurement_sizes=(4,))


def test_intensity_examples():
    assert np.allclose(intensity(np.array([1.0, 0.0])).values, [1, 1])
    assert np.allclose(intensity(np.array([1.0, 1.0])).values, [4, 0])
    assert np.array_equal(intensity(np.zeros(6)).values, np.zeros(6))


def test_intensity_of_combined_object():
    mask = SupportMask.block((3,), (1,))
    obj = assemble([2.0], np.array([0.0, 1.0, -1.0]), mask)
    b = intensity(obj)
    assert b.conj_symmetric
    assert np.allclose(b.values, np.abs(np.fft.fft([2.0, 1.0, -1.0])) ** 2)


def test_autocorrelation_direct_examples():
    assert np.allclose(autocorrelation_direct(np.array([1.0, 2.0])).values, [5, 4])
    delta = np.zeros(5)
    delta[0] = 3.0
    r = autocorrelation_direct(delta).values
    assert np.allclose(r, [9, 0, 0, 0, 0])


def test_autocorrelation_symmetry_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = rng.standard_normal(rng.integers(2, 20))
        r = autocorrelation_direct(z).values
        m = z.size
        for lag in range(m):
            assert r[lag] == pytest.approx(r[(m - lag) % m], rel=1e-12, abs=1e-12)


def test_autocorrelation_from_intensity_two_point():
    r = autocorrelation_from_intensity(IntensityMeasurements(np.array([9.0, 1.0])))
    assert np.allclose(r.values, [5, 4])
    zero = autocorrelation_from_intensity(IntensityMeasurements(np.zeros(4)))
    assert np.array_equal(zero.values, np.zeros(4))


def test_autocorrelation_from_intensity_matches_direct_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        if rng.random() < 0.5:
            z = rng.standard_normal(int(rng.integers(1, 24)))
        else:
            z = rng.standard_normal((int(rng.integers(1, 10)), int(rng.integers(1, 10))))
        direct = autocorrelation_direct(z).values
        spectral = autocorrelation_from_intensity(intensity(z)).values
        assert np.max(np.abs(spectral - direct)) <= 1e-9 * max(1.0, np.sum(z * z))


def test_autocorrelation_from_intensity_rejects_complex_flag():
    b = IntensityMeasurements(np.array([1.0, 2.0, 3.0]), conj_symmetric=False)
    with pytest.raises(ValueError):
        autocorrelation_from_intensity(b)


def test_wiener_khinchin_residual_scale():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.standard_normal((int(rng.integers(2, 16)), int(rng.integers(2, 16))))
        lhs = dft_inverse(intensity(z).values).real
        rhs = autocorrelation_direct(z).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.sum(z * z)


def test_parseval():
    rng = np.random.default_rng(4)
    z = rng.standard_normal(37)
    assert np.sum(np.abs(dft_forward(z)) ** 2) == pytest.approx(
        37 * np.sum(z * z), rel=1e-10)
    z2 = rng.standard_normal((5, 7))
    assert np.sum(np.abs(dft_forward(z2)) ** 2) == pytest.approx(
        35 * np.sum(z2 * z2), rel=1e-10)


def test_inverse_realness_for_symmetric_spectra():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(24)
    spec = intensity(z).values  # conj-symmetric by construction
    back = dft_inverse(spec)
    assert np.max(np.abs(back.imag)) <= 1e-10 * np.max(np.abs(spec))


def test_autocorrelation_type_rejects_asymmetry():
    with pytest.raises(ValueError):
        Autocorrelation(np.array([1.0, 2.0, 5.0]))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
def test_wiener_khinchin_property(m, seed):
    z = np.random.default_rng(seed).standard_normal(m)
    lhs = dft_inverse(intensity(z).values).real
    rhs = autocorrelation_direct(z).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(np.sum(z * z), 1e-30)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_parseval_property(m, seed):
    z = np.random.default_rng(seed).standard_normal(m)
    lhs = float(np.sum(np.abs(dft_forward(z)) ** 2))
    assert lhs == pytest.approx(m * float(np.sum(z * z)), rel=1e-10, abs=1e-12)
