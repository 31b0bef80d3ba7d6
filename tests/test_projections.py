import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgret.model import IntensityMeasurements, SupportMask
from bgret.projections import (project_background, project_magnitude,
                               project_magnitude_ball)
from bgret.spectral import dft_forward, intensity


def reflect(z, projector):
    """Reflector 2*P(z) - z for any projector P."""
    z = np.asarray(z, dtype=float)
    return 2.0 * projector(z) - z


def achievable(rng, shape):
    """A conj-symmetric, achievable intensity plus a random start point."""
    truth = rng.standard_normal(shape)
    return intensity(truth), rng.standard_normal(shape)


def test_project_magnitude_worked_example():
    out = project_magnitude(np.array([3.0, 1.0]), np.array([1.0, 1.0]))
    assert np.allclose(out, [1.0, 0.0], atol=1e-14)


def test_project_magnitude_fixed_point():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(16)
    assert np.max(np.abs(project_magnitude(z, intensity(z).root) - z)) <= 1e-12


def test_project_magnitude_zero_tie_break():
    out = project_magnitude(np.array([0.0, 0.0]), np.array([2.0, 0.0]))
    assert np.allclose(out, [1.0, 1.0], atol=1e-14)


def test_equality_magnitude_residual():
    rng = np.random.default_rng(1)
    for _ in range(50):
        b, z = achievable(rng, int(rng.integers(2, 40)))
        root = b.root
        out = project_magnitude(z, root)
        resid = np.abs(np.abs(dft_forward(out)) - root)
        assert np.max(resid) <= 1e-10 * max(np.max(root), 1e-300)


def test_ball_interior_is_untouched():
    rng = np.random.default_rng(2)
    z = 0.01 * rng.standard_normal(12)
    root = 10.0 + np.zeros(12)
    out = project_magnitude_ball(z, root)
    assert np.max(np.abs(out - z)) <= 1e-14


def test_ball_reduces_to_equality_when_outside():
    out = project_magnitude_ball(np.array([3.0, 1.0]), np.array([1.0, 1.0]))
    assert np.allclose(out, [1.0, 0.0], atol=1e-14)


def test_ball_idempotent_and_feasible():
    rng = np.random.default_rng(3)
    for _ in range(50):
        b, z = achievable(rng, int(rng.integers(2, 40)))
        root = b.root
        once = project_magnitude_ball(z, root)
        twice = project_magnitude_ball(once, root)
        assert np.max(np.abs(twice - once)) <= 1e-12
        mags = np.abs(dft_forward(once))
        assert np.all(mags <= root + 1e-10)


def test_ball_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(50):
        b, u = achievable(rng, 20)
        v = rng.standard_normal(20)
        root = b.root
        du = project_magnitude_ball(u, root) - project_magnitude_ball(v, root)
        assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-10


def test_ball_dc_pin():
    rng = np.random.default_rng(5)
    b, z = achievable(rng, 9)
    for sign in (1, -1):
        out = project_magnitude_ball(z, b.root, dc_sign=sign)
        assert np.sum(out) == pytest.approx(sign * np.sqrt(b.values[0]), rel=1e-10)


def test_dc_constraint_validation():
    b = IntensityMeasurements(np.array([4.0, 1.0, 1.0]))
    for bad in (0, 2, -2):
        with pytest.raises(ValueError):
            project_magnitude_ball(np.zeros(3), b.root, dc_sign=bad)


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
    y[mask.inside] = 0.0
    for _ in range(20):
        z = rng.standard_normal(5)
        p = project_background(z, y, mask)
        base = np.linalg.norm(p - z)
        for _ in range(50):
            other = y.copy()
            other[mask.inside] = rng.standard_normal(2)
            assert np.linalg.norm(other - z) >= base - 1e-12


def test_project_background_idempotent_and_affine_exact():
    rng = np.random.default_rng(7)
    mask = SupportMask.centered((6, 6), (2, 2))
    y = rng.standard_normal((6, 6))
    y[mask.inside] = 0.0
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
    y[mask.inside] = 0.0
    z = rng.standard_normal(7)
    proj = lambda w: project_background(w, y, mask)
    assert np.max(np.abs(reflect(reflect(z, proj), proj) - z)) <= 1e-12
