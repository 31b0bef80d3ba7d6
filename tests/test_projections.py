import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgret.model import IntensityMeasurements, SupportMask
from bgret.projections import (project_background, project_magnitude,
                               project_magnitude_ball)
from bgret.spectral import Workspace, hermitian_half, intensity


def reflect(z, projector):
    """Reflector 2*P(z) - z for any projector P."""
    z = np.asarray(z, dtype=float)
    return 2.0 * projector(z) - z


def achievable(rng, shape):
    """A conj-symmetric, achievable intensity plus a random start point."""
    truth = rng.standard_normal(shape)
    return intensity(truth), rng.standard_normal(shape)


def test_project_magnitude_worked_example():
    out = project_magnitude(np.array([3.0, 1.0]), hermitian_half(np.array([1.0, 1.0])))
    assert np.allclose(out, [1.0, 0.0], atol=1e-14)


def test_project_magnitude_fixed_point():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(16)
    assert np.max(np.abs(project_magnitude(z, hermitian_half(intensity(z).root)) - z)) <= 1e-12


def test_project_magnitude_zero_tie_break():
    out = project_magnitude(np.array([0.0, 0.0]), hermitian_half(np.array([2.0, 0.0])))
    assert np.allclose(out, [1.0, 1.0], atol=1e-14)


def test_equality_magnitude_residual():
    rng = np.random.default_rng(1)
    for _ in range(50):
        b, z = achievable(rng, int(rng.integers(2, 40)))
        root = b.root
        out = project_magnitude(z, hermitian_half(root))
        resid = np.abs(np.abs(np.fft.fftn(out)) - root)
        assert np.max(resid) <= 1e-10 * max(np.max(root), 1e-300)


def test_ball_interior_is_untouched():
    rng = np.random.default_rng(2)
    z = 0.01 * rng.standard_normal(12)
    root = 10.0 + np.zeros(12)
    out = project_magnitude_ball(z, hermitian_half(root))
    assert np.max(np.abs(out - z)) <= 1e-14


def test_ball_reduces_to_equality_when_outside():
    out = project_magnitude_ball(np.array([3.0, 1.0]), hermitian_half(np.array([1.0, 1.0])))
    assert np.allclose(out, [1.0, 0.0], atol=1e-14)


def test_ball_idempotent_and_feasible():
    rng = np.random.default_rng(3)
    for _ in range(50):
        b, z = achievable(rng, int(rng.integers(2, 40)))
        root = b.root
        once = project_magnitude_ball(z, hermitian_half(root))
        twice = project_magnitude_ball(once, hermitian_half(root))
        assert np.max(np.abs(twice - once)) <= 1e-12
        mags = np.abs(np.fft.fftn(once))
        assert np.all(mags <= root + 1e-10)


def test_ball_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(50):
        b, u = achievable(rng, 20)
        v = rng.standard_normal(20)
        half_root = hermitian_half(b.root)
        du = project_magnitude_ball(u, half_root) - project_magnitude_ball(v, half_root)
        assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-10


def test_ball_dc_pin():
    rng = np.random.default_rng(5)
    b, z = achievable(rng, 9)
    for sign in (1, -1):
        out = project_magnitude_ball(z, hermitian_half(b.root), dc_sign=sign)
        assert np.sum(out) == pytest.approx(sign * np.sqrt(b.values[0]), rel=1e-10)


def test_dc_constraint_validation():
    b = IntensityMeasurements(np.array([4.0, 1.0, 1.0]))
    for bad in (0, 2, -2):
        with pytest.raises(ValueError):
            project_magnitude_ball(np.zeros(3), hermitian_half(b.root), dc_sign=bad)


def test_project_background_examples():
    mask = SupportMask.block((2,), (1,))
    y = np.array([0.0, 5.0])
    assert project_background(np.array([2.0, 3.0]), y, mask).tolist() == [2.0, 5.0]
    inb = np.array([7.0, 5.0])
    assert np.array_equal(project_background(inb, y, mask), inb)


def test_project_background_minimality_brute_force():
    # no feasible point of B is closer than the projection
    rng = np.random.default_rng(6)
    mask = SupportMask.block((5,), (2,))
    y = rng.standard_normal(5)
    y[mask.slices] = 0.0
    for _ in range(20):
        z = rng.standard_normal(5)
        p = project_background(z, y, mask)
        base = np.linalg.norm(p - z)
        for _ in range(50):
            other = y.copy()
            other[mask.slices] = rng.standard_normal(2)
            assert np.linalg.norm(other - z) >= base - 1e-12


def test_project_background_idempotent_and_affine_exact():
    rng = np.random.default_rng(7)
    mask = SupportMask.centered((6, 6), (2, 2))
    y = rng.standard_normal((6, 6))
    y[mask.slices] = 0.0
    u = rng.standard_normal((6, 6))
    v = rng.standard_normal((6, 6))
    pu = project_background(u, y, mask)
    assert np.array_equal(project_background(pu, y, mask), pu)
    for alpha in (0.0, 0.5, 1.0):
        left = project_background(alpha * u + (1 - alpha) * v, y, mask)
        right = alpha * pu + (1 - alpha) * project_background(v, y, mask)
        assert np.array_equal(left, right)


def test_reflect_examples():
    mask = SupportMask.block((2,), (1,))
    y = np.array([0.0, 5.0])
    proj = lambda z: project_background(z, y, mask)
    assert reflect(np.array([2.0, 3.0]), proj).tolist() == [2.0, 7.0]
    fixed = np.array([4.0, 5.0])
    assert np.array_equal(reflect(fixed, proj), fixed)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reflect_through_affine_set_is_involution(seed):
    rng = np.random.default_rng(seed)
    mask = SupportMask.block((7,), (3,))
    y = rng.standard_normal(7)
    y[mask.slices] = 0.0
    z = rng.standard_normal(7)
    proj = lambda w: project_background(w, y, mask)
    assert np.max(np.abs(reflect(reflect(z, proj), proj) - z)) <= 1e-12


def complex_division_oracle(z, half_root, work):
    """The equality projection by the complex division X / |X| where |X| > 0
    and phase 1 elsewhere, then root * phase."""
    zhat = work.forward(z)
    work.hermitian_lines()
    mag = np.abs(zhat)
    phase = np.ones_like(zhat)
    np.divide(zhat, mag, out=phase, where=mag > 0)
    np.multiply(half_root, phase, out=zhat)
    return work.inverse().copy()


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.integers(1, 3), lanes=st.integers(1, 3),
       zeros_in_root=st.booleans(), start=st.sampled_from(("random", "alternating", "zero")),
       data=st.data())
def test_equality_projection_has_the_complex_divisions_bytes(seed, dims, lanes, zeros_in_root,
                                                             start, data):
    # the grid: 1-3 axes, the last odd or even; one lane as the grid array,
    # more as a stack
    shape = tuple(data.draw(st.lists(st.integers(1, 7), min_size=dims - 1, max_size=dims - 1),
                            label="leading")) + (data.draw(st.integers(1, 9), label="last"),)
    rng = np.random.default_rng(seed)
    stack = () if lanes == 1 else (lanes,)
    if start == "random":
        z = rng.standard_normal(stack + shape)
    else:  # exact zeros in the spectrum: the alternating signal, or none at all
        sign = np.indices(shape).sum(axis=0) % 2
        z = np.broadcast_to(np.where(sign, -1.0, 1.0) if start == "alternating" else
                            np.zeros(shape), stack + shape).copy()
    work = Workspace(shape, lanes if stack else None)
    half_root = np.abs(rng.standard_normal(work.half.shape[len(stack):]))
    if zeros_in_root:  # as a clipped noisy root has
        half_root[rng.random(half_root.shape) < 0.3] = 0.0
    got = project_magnitude(z, half_root, work).copy()
    want = complex_division_oracle(z, half_root, Workspace(shape, lanes if stack else None))
    differ = _bits(got) != _bits(want)
    # the only difference allowed is the sign of an exact zero
    assert np.all(got[differ] == 0.0) and np.all(want[differ] == 0.0)
    if start == "random" and not zeros_in_root:
        assert not differ.any()


#: Prints whether numpy dispatches above SSE4.2, then whether the equality
#: projection of a 256x256 case has the complex division's bytes.
PROJECT_256 = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
sys.path.insert(0, %r)
from test_projections import complex_division_oracle
from bgret.projections import project_magnitude
from bgret.spectral import Workspace
print(*[name for name in %r if __cpu_features__.get(name)])
rng = np.random.default_rng(7)
z = rng.standard_normal((256, 256))
half_root = np.maximum(0.0, rng.standard_normal((256, 129)))
got = project_magnitude(z, half_root)
want = complex_division_oracle(z, half_root, Workspace((256, 256)))
print(got.tobytes() == want.tobytes())
"""


def test_equality_projection_bytes_at_every_simd_level():
    # the same 256x256 comparison under the default dispatch and with every
    # level above SSE4.2 switched off
    from test_harness import ABOVE_SSE
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    runs = []
    for disabled in (None, " ".join(ABOVE_SSE)):
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        runs.append(subprocess.run([sys.executable, "-c", PROJECT_256 % (str(tests), ABOVE_SSE)],
                                   env=env, check=True, capture_output=True,
                                   text=True).stdout.splitlines())
    (levels, default), (sse_levels, sse) = runs
    if not levels:
        pytest.skip(f"this CPU has none of {', '.join(ABOVE_SSE)}: nothing to switch off")
    assert sse_levels == ""
    assert default == sse == "True"
