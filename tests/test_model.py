import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgret.model import (IntensityMeasurements, Method, SolverConfig, SolverRun,
                         SupportMask, assemble, mirror_index)


def test_assemble_1d_example():
    mask = SupportMask.block((4,), (1,))
    z = assemble([7.0], np.array([0.0, 1.0, 2.0, 3.0]), mask)
    assert z.tolist() == [7.0, 1.0, 2.0, 3.0]
    assert z[mask.inside].tolist() == [7.0]


def test_assemble_2d_centered_ones():
    mask = SupportMask.centered((4, 4), (2, 2))
    z = assemble(np.ones(4), np.zeros((4, 4)), mask)
    expected = np.zeros((4, 4))
    expected[1:3, 1:3] = 1.0
    assert np.array_equal(z, expected)


def test_assemble_extract_round_trip_random():
    rng = np.random.default_rng(3)
    mask = SupportMask.block((6, 9), (2, 3), offset=(1, 4))
    for _ in range(20):
        y = rng.standard_normal((6, 9))
        y[mask.inside] = 0.0
        x = rng.standard_normal(6)
        z = assemble(x, y, mask)
        assert np.array_equal(z[mask.inside], x)
        assert np.array_equal(assemble(z[mask.inside], y, mask), z)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(0, 56), seed=st.integers(0, 2**32 - 1))
def test_round_trip_bitwise_1d(n, k, seed):
    rng = np.random.default_rng(seed)
    mask = SupportMask.block((n + k,), (n,))
    y = rng.standard_normal(n + k)
    y[mask.inside] = 0.0
    x = rng.standard_normal(n)
    z = assemble(x, y, mask)
    assert np.array_equal(z[mask.inside], x)
    assert np.array_equal(assemble(z[mask.inside], y, mask), z)


def test_background_purity():
    rng = np.random.default_rng(0)
    mask = SupportMask.centered((8, 8), (3, 3))
    y = rng.standard_normal((8, 8))
    y[mask.inside] = 0.0
    y_before = y.copy()
    z = assemble(rng.standard_normal(9), y, mask)
    assert np.array_equal(z[~mask.inside], y[~mask.inside])
    assert np.array_equal(y, y_before)  # a new array; the background is only read


def test_extract_2d_row_major():
    mask = SupportMask.block((4, 4), (2, 2))
    z = np.arange(16.0).reshape(4, 4)
    y = z.copy()
    y[mask.inside] = 0.0
    combined = assemble(z[:2, :2].reshape(-1), y, mask)
    assert np.array_equal(combined, z)
    assert combined[mask.inside].tolist() == [0.0, 1.0, 4.0, 5.0]
    assert np.array_equal(mask.to_block(combined[mask.inside]), z[:2, :2])


def test_assemble_rejects_bad_inputs():
    mask = SupportMask.block((4,), (1,))
    with pytest.raises(ValueError):
        assemble([1.0, 2.0], np.zeros(4), mask)  # wrong sample size
    with pytest.raises(ValueError):
        assemble([1.0], np.zeros(3), mask)  # wrong background shape
    bad_y = np.array([5.0, 0.0, 0.0, 0.0])  # nonzero on the support
    with pytest.raises(ValueError):
        assemble([1.0], bad_y, mask)


def test_mask_validation():
    with pytest.raises(ValueError):
        SupportMask.block((4,), (2,), offset=(3,))  # does not fit
    with pytest.raises(ValueError):
        SupportMask(np.zeros(4, dtype=bool))  # empty support
    m = SupportMask.centered((10,), (4,))
    assert m.offset == (3,)
    assert m.sample_count == 4


def test_placement_rule():
    # no offset: corner in 1-D, centered in 2-D; an explicit offset wins in both
    assert SupportMask.place((10,), (4,)).offset == (0,)
    assert SupportMask.place((10, 9), (4, 4)).offset == (3, 2)
    assert SupportMask.place((10,), (4,), (5,)).offset == (5,)
    assert SupportMask.place((10, 9), (4, 4), (0, 1)).offset == (0, 1)
    with pytest.raises(ValueError):
        SupportMask.place((10,), (4,), (7,))


def test_intensity_measurements_validation():
    with pytest.raises(ValueError):
        IntensityMeasurements(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        IntensityMeasurements(np.array([1.0, 2.0, 3.0]))  # asymmetric
    b = IntensityMeasurements(np.array([4.0, 1.0, 1.0]))
    assert np.array_equal(b.root, [2.0, 1.0, 1.0])
    # asymmetric data is fine when flagged complex
    IntensityMeasurements(np.array([1.0, 2.0, 3.0]), conj_symmetric=False)


def test_intensity_measurements_reject_non_finite():
    # NaN passes both the sign and the symmetry comparison, so it needs its own check
    with pytest.raises(ValueError):
        IntensityMeasurements(np.array([np.nan, 1.0, 1.0]))
    with pytest.raises(ValueError):
        IntensityMeasurements(np.array([np.inf, 1.0, 1.0]))
    with pytest.raises(ValueError):
        IntensityMeasurements(np.array([1.0, np.nan, 2.0]), conj_symmetric=False)


def test_mirror_index():
    a = np.array([10.0, 11.0, 12.0, 13.0])
    assert mirror_index(a).tolist() == [10.0, 13.0, 12.0, 11.0]
    b = np.arange(6.0).reshape(2, 3)
    mb = mirror_index(b)
    for i in range(2):
        for j in range(3):
            assert mb[i, j] == b[(-i) % 2, (-j) % 3]


def test_solver_config_validation():
    cfg = SolverConfig(method="bdr")
    assert cfg.method is Method.BDR and cfg.eps == 1e-12 and cfg.max_iter == 300
    with pytest.raises(ValueError):
        SolverConfig(method=Method.BDR, eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.BDR, beta=1.5)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.BDR, max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.BDR, lam=0.0)
    with pytest.raises(ValueError):
        Method.parse("nope")


def test_solver_run_trace_length():
    with pytest.raises(ValueError):
        SolverRun(np.zeros(3), 2, np.zeros((3, 2)), True)
    run = SolverRun(np.zeros(3), 2, np.zeros((2, 2)), False)
    assert run.trace[:, 0].shape == (2,)


def test_types_are_read_only():
    mask = SupportMask.block((4,), (2,))
    b = IntensityMeasurements(np.array([4.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        b.values[0] = 9.0
    with pytest.raises(ValueError):
        mask.inside[0] = False
