import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgret import analysis
from bgret.harness import TrialSpec, run_trial
from bgret.model import IntensityMeasurements, Method, SupportMask, assemble, mirror_index
from bgret.spectral import Autocorrelation, Workspace, autocorrelation_from_intensity, intensity


def autocorrelation_direct(z) -> Autocorrelation:
    """Circular autocorrelation by direct summation, R[l] = sum_p z_p z_{p+l}:
    the independent O(m^2) oracle against the spectral route, with no FFT."""
    a = np.asarray(z, dtype=float)
    out = np.empty(a.shape)
    axes = tuple(range(a.ndim))
    for lag in product(*(range(s) for s in a.shape)):
        out[lag] = float(np.sum(a * np.roll(a, tuple(-l for l in lag), axis=axes)))
    return Autocorrelation(out)


def test_only_spectral_calls_numpy_fft():
    # one FFT entry point: every other module transforms through spectral
    package = Path(__file__).resolve().parent.parent / "src" / "bgret"
    offenders = [p.name for p in sorted(package.glob("*.py")) if p.name != "spectral.py"
                 and re.search(r"np\.fft|numpy\.fft", p.read_text(encoding="utf-8"))]
    assert offenders == []


def test_real_pair_two_point_values():
    work = Workspace((2,))
    assert np.allclose(work.forward(np.array([1.0, 0.0])), [1, 1])
    assert np.allclose(work.forward(np.array([1.0, 1.0])), [2, 0])
    assert np.allclose(work.forward(np.array([3.0, 1.0])), [4, 2])


def test_real_pair_examples_and_round_trip():
    work = Workspace((2,))
    work.half[...] = [1.0, 1.0]
    assert np.allclose(work.inverse(), [1, 0])
    work.half[...] = [2.0, 0.0]
    assert np.allclose(work.inverse(), [1, 1])
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.standard_normal(rng.integers(1, 40))
        work = Workspace(z.shape)
        work.forward(z)
        back = work.inverse()
        assert np.max(np.abs(back - z)) <= 1e-12 * max(1.0, np.max(np.abs(z)))


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


def test_intensity_rejects_a_complex_object():
    with pytest.raises(ValueError, match="real object"):
        intensity(np.array([1.0, 1j, 0.0]))
    with pytest.raises(ValueError, match="real object"):
        intensity(np.zeros((3, 4), dtype=complex))


@settings(max_examples=100, deadline=None)
@given(shape=st.lists(st.integers(1, 13), min_size=1, max_size=3).map(tuple),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(1,), seed=0)
@example(shape=(2,), seed=0)
@example(shape=(6, 7), seed=1)
@example(shape=(5, 3, 8), seed=2)
def test_intensity_matches_full_complex_transform(shape, seed):
    # the half grid's power, mirrored onto the rest of the grid, against the
    # full complex transform; off the self-mirrored lines (last-axis index 0,
    # and m/2 when m is even) the mirror pairs are equal bit for bit
    z = np.random.default_rng(seed).standard_normal(shape)
    values = intensity(z).values
    expected = np.abs(np.fft.fftn(z)) ** 2
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(expected)
    m = shape[-1]
    off_lines = np.ones(shape, dtype=bool)
    off_lines[..., [0, m // 2] if m % 2 == 0 else [0]] = False
    assert np.array_equal(values[off_lines], mirror_index(values)[off_lines])


def run_trials_and_every_check(methods):
    """A 1-D trial of each of methods, a noisy 2-D BDR trial and every verify
    check, each on a small input."""
    specs = [TrialSpec(master_seed=1, cell_id=0, trial_index=0, method=method,
                       sample_shape=(6,), background_sizes=(12,), max_iter=20)
             for method in methods]
    specs.append(TrialSpec(master_seed=1, cell_id=0, trial_index=0, method=Method.BDR,
                           sample_shape=(12, 12), background_sizes=(4, 4), max_iter=5,
                           noise_sigma=1e-3))
    for spec in specs:
        assert not run_trial(spec)["aborted"]
    checks = {"verify_uniqueness": dict(n=3, k=6, d=1, draws=2),
              "verify_stability": dict(pairs=2),
              "verify_robustness": dict(instances=2),
              "verify_lmatrix": dict(n=4, k=8, draws=3),
              "verify_frip": dict(n=4, k=16, draws=10, num_h=1)}
    assert set(checks) == {name for name in dir(analysis) if name.startswith("verify_")}
    for name, kwargs in checks.items():
        assert getattr(analysis, name)(**kwargs)["check"]


def test_runs_make_no_numpy_fft_call(monkeypatch):
    # every transform is a workspace transform: with each numpy.fft function
    # raising, a trial of every method (1-D, and 2-D with noise) and every
    # verify check still run
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.fft called")

    for module in (np.fft, np.fft._pocketfft):
        for name in np.fft.__all__:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(AssertionError, match="numpy.fft called"):
        np.fft.rfftn(np.zeros(4))
    run_trials_and_every_check(Method)


def test_runs_mirror_only_through_model(monkeypatch):
    # model.mirror owns i -> -i mod m: with np.roll and np.flip raising, a
    # 1-D BDR and a CBDR trial, a noisy 2-D trial and every verify check
    # still run; no module calls them, and only model negates an index mod m
    def forbidden(*args, **kwargs):
        raise AssertionError("np.roll or np.flip called")

    monkeypatch.setattr(np, "roll", forbidden)
    monkeypatch.setattr(np, "flip", forbidden)
    run_trials_and_every_check([Method.BDR, Method.CBDR])
    package = Path(__file__).resolve().parent.parent / "src" / "bgret"
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert [name for name, text in texts.items() if re.search(r"\b(roll|flip)\(", text)] == []
    assert [name for name, text in texts.items()
            if re.search(r"-[\w.]+(\(\w*\))?\)? ?%", text)] == ["model.py"]


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
        lhs = np.fft.ifftn(intensity(z).values).real
        rhs = autocorrelation_direct(z).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.sum(z * z)


def test_parseval():
    rng = np.random.default_rng(4)
    z = rng.standard_normal(37)
    assert np.sum(intensity(z).values) == pytest.approx(37 * np.sum(z * z), rel=1e-10)
    z2 = rng.standard_normal((5, 7))
    assert np.sum(intensity(z2).values) == pytest.approx(35 * np.sum(z2 * z2), rel=1e-10)


def test_inverse_realness_for_symmetric_spectra():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(24)
    spec = intensity(z).values  # conj-symmetric by construction
    back = np.fft.ifftn(spec)
    assert np.max(np.abs(back.imag)) <= 1e-10 * np.max(np.abs(spec))


def test_autocorrelation_type_rejects_asymmetry():
    with pytest.raises(ValueError):
        Autocorrelation(np.array([1.0, 2.0, 5.0]))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
def test_wiener_khinchin_property(m, seed):
    z = np.random.default_rng(seed).standard_normal(m)
    lhs = np.fft.ifftn(intensity(z).values).real
    rhs = autocorrelation_direct(z).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(np.sum(z * z), 1e-30)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_parseval_property(m, seed):
    z = np.random.default_rng(seed).standard_normal(m)
    lhs = float(np.sum(intensity(z).values))
    assert lhs == pytest.approx(m * float(np.sum(z * z)), rel=1e-10, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(1,), seed=0)
@example(shape=(2,), seed=0)
@example(shape=(1, 2), seed=1)
@example(shape=(2, 1, 3), seed=2)
def test_real_pair_matches_numpy_rfftn_irfftn_bit_for_bit(shape, seed):
    # the workspace calls numpy's pocketfft gufuncs axis by axis; it must give
    # the bytes of the public wrappers it replaces (a renamed gufunc fails here)
    rng = np.random.default_rng(seed)
    work = Workspace(shape)
    z = rng.standard_normal(shape)
    z_before = z.tobytes()
    forward = work.forward(z)
    assert z.tobytes() == z_before
    assert forward is work.half and forward.dtype == complex
    assert forward.tobytes() == np.fft.rfftn(z).tobytes()

    # any half spectrum, Hermitian on its self-mirrored entries or not
    half_shape = work.half.shape
    half = rng.standard_normal(half_shape) + 1j * rng.standard_normal(half_shape)
    expected = np.fft.irfftn(half, s=shape, axes=tuple(range(len(shape))))
    work.half[...] = half
    inverse = work.inverse()
    assert inverse is work.grid and inverse.dtype == float and inverse.shape == shape
    assert inverse.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
       seed=st.integers(0, 2**32 - 1))
def test_half_grid_weights_sum_over_the_grid(shape, seed):
    # a Hermitian real array, |DFT z|^2, summed over the grid and as the
    # weighted sum of its half grid
    work = Workspace(shape)
    z = np.random.default_rng(seed).standard_normal(shape)
    power = np.abs(work.forward(z)) ** 2
    full = float(np.sum(np.abs(np.fft.fftn(z)) ** 2))
    assert float(np.sum(work.weights * power)) == pytest.approx(full, rel=1e-12)
    assert work.weights is work.weights  # built once


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
       seed=st.integers(0, 2**32 - 1))
def test_hermitian_lines(shape, seed):
    # each self-mirrored line becomes exactly Hermitian over the leading axes,
    # the rest of the half spectrum is untouched, and 1-D is left as it is
    rng = np.random.default_rng(seed)
    work = Workspace(shape)
    half = rng.standard_normal(work.half.shape) + 1j * rng.standard_normal(work.half.shape)
    work.half[...] = half
    work.hermitian_lines()
    m = shape[-1]
    lines = [0, m // 2] if m % 2 == 0 else [0]
    if len(shape) == 1:
        assert work.half.tobytes() == half.tobytes()
        return
    got = work.half[..., lines]
    leading = tuple(range(len(shape) - 1))
    mirrored = np.roll(np.flip(got, axis=leading), 1, axis=leading)
    assert np.array_equal(got, np.conj(mirrored))
    before = half[..., lines]
    before_mirrored = np.roll(np.flip(before, axis=leading), 1, axis=leading)
    assert np.array_equal(got, 0.5 * (before + np.conj(before_mirrored)))
    rest = np.ones(work.half.shape, dtype=bool)
    rest[..., lines] = False
    assert np.array_equal(work.half[rest], half[rest])


@pytest.mark.parametrize("shape", [(256, 256), (15, 13), (7, 8, 6), (701,), (400,), (1, 2)])
def test_lane_stack_gives_each_lane_the_bytes_of_one_array(shape):
    # a workspace of two lanes transforms both in one gufunc call each way;
    # each lane's forward, Hermitian lines and inverse are those of a
    # workspace of its array alone
    rng = np.random.default_rng(len(shape))
    z = rng.standard_normal((2,) + shape)
    stack = Workspace(shape, 2)
    forward = stack.forward(z).copy()
    stack.hermitian_lines()
    lines = stack.half.copy()
    inverse = stack.inverse()
    assert forward.shape == (2,) + Workspace(shape).half.shape and inverse.shape == z.shape
    for lane in range(2):
        one = Workspace(shape)
        assert one.forward(z[lane]).tobytes() == forward[lane].tobytes()
        one.hermitian_lines()
        assert one.half.tobytes() == lines[lane].tobytes()
        assert one.inverse().tobytes() == inverse[lane].tobytes()
    assert stack.weights.tobytes() == Workspace(shape).weights.tobytes()
    with pytest.raises(ValueError, match="not on the grid"):
        stack.forward(z[0])
    with pytest.raises(ValueError, match="lane"):
        Workspace(shape, 0)


def test_real_pair_rejects_arrays_off_the_grid():
    # the gufuncs would zero-fill or cut a last axis of the wrong length
    work = Workspace((4, 6))
    for z in (np.zeros((4, 5)), np.zeros((4, 7)), np.zeros((3, 6)), np.zeros(6),
              np.zeros((1, 4, 6))):
        with pytest.raises(ValueError, match="not on the grid"):
            work.forward(z)
    for shape in ((), (0,), (4, 0)):
        with pytest.raises(ValueError, match="not a transform grid"):
            Workspace(shape)
