import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgret import analysis, harness, model
from bgret.io_formats import DataFormatError, ExperimentConfig
from bgret.model import (IntensityMeasurements, Method, SolverConfig, SolverRun,
                         SupportMask, assemble, background_sizes_for, mirror, mirror_index)
from bgret.rng import Xoshiro256StarStar
from bgret.spectral import Workspace, autocorrelation_from_intensity, intensity
from test_reference_path import ref_omega
from test_spectral import run_trials_and_every_check


def test_assemble_1d_example():
    mask = SupportMask.block((4,), (1,))
    z = assemble([7.0], np.array([0.0, 1.0, 2.0, 3.0]), mask)
    assert z.tolist() == [7.0, 1.0, 2.0, 3.0]
    assert z[mask.slices].reshape(-1).tolist() == [7.0]


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
        y[mask.slices] = 0.0
        x = rng.standard_normal(6)
        z = assemble(x, y, mask)
        assert np.array_equal(z[mask.slices].reshape(-1), x)
        assert np.array_equal(assemble(z[mask.slices].reshape(-1), y, mask), z)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(0, 56), seed=st.integers(0, 2**32 - 1))
def test_round_trip_bitwise_1d(n, k, seed):
    rng = np.random.default_rng(seed)
    mask = SupportMask.block((n + k,), (n,))
    y = rng.standard_normal(n + k)
    y[mask.slices] = 0.0
    x = rng.standard_normal(n)
    z = assemble(x, y, mask)
    assert np.array_equal(z[mask.slices].reshape(-1), x)
    assert np.array_equal(assemble(z[mask.slices].reshape(-1), y, mask), z)


def test_background_purity():
    rng = np.random.default_rng(0)
    mask = SupportMask.centered((8, 8), (3, 3))
    y = rng.standard_normal((8, 8))
    y[mask.slices] = 0.0
    y_before = y.copy()
    z = assemble(rng.standard_normal(9), y, mask)
    off = ~ref_omega(mask)
    assert np.array_equal(z[off], y[off])
    assert np.array_equal(y, y_before)  # a new array; the background is only read


def test_extract_2d_row_major():
    mask = SupportMask.block((4, 4), (2, 2))
    z = np.arange(16.0).reshape(4, 4)
    y = z.copy()
    y[mask.slices] = 0.0
    combined = assemble(z[:2, :2].reshape(-1), y, mask)
    assert np.array_equal(combined, z)
    assert combined[mask.slices].reshape(-1).tolist() == [0.0, 1.0, 4.0, 5.0]
    assert np.array_equal(mask.to_block(combined[mask.slices].reshape(-1)), z[:2, :2])


def test_assemble_rejects_bad_inputs():
    mask = SupportMask.block((4,), (1,))
    with pytest.raises(ValueError):
        assemble([1.0, 2.0], np.zeros(4), mask)  # wrong sample size
    with pytest.raises(ValueError):
        assemble([1.0], np.zeros(3), mask)  # wrong background shape
    bad_y = np.array([5.0, 0.0, 0.0, 0.0])  # nonzero on the support
    with pytest.raises(ValueError):
        assemble([1.0], bad_y, mask)


def test_background_sizes_rule():
    # k_i = max(1, round(ratio * n_i)), half to even: the one k/n rule
    assert background_sizes_for(3, (100,)) == (300,)
    assert background_sizes_for(2.0, (100,)) == (200,)
    assert background_sizes_for(0.04, (10,)) == (1,)  # a small ratio rounds up to one cell
    assert background_sizes_for(0.25, (10,)) == (2,)
    assert background_sizes_for(0.5, (8, 10)) == (4, 5)
    for ratio in (0, 0.0, -3, -0.04, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            background_sizes_for(ratio, (10,))


def test_mask_validation():
    with pytest.raises(ValueError):
        SupportMask.block((4,), (2,), offset=(3,))  # does not fit
    with pytest.raises(ValueError):
        SupportMask.block((4,), (0,))  # empty support
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


def test_intensity_measurements_half_grid_arrays():
    # the Hermitian part of b and of its root cut to the half grid, and the
    # squared norm of the rest, each computed once and read-only
    values = np.array([[4.0, 1.0, 9.0], [2.0, 0.0, 1.0]])
    b = IntensityMeasurements(values, conj_symmetric=False)
    h = 0.5 * (values + mirror_index(values))
    assert np.array_equal(b.half_values, h[:, :2])
    assert np.array_equal(b.half_root, (0.5 * (np.sqrt(values)
                                               + mirror_index(np.sqrt(values))))[:, :2])
    assert b.asymmetry == pytest.approx(float(np.sum((values - h) ** 2)), rel=1e-15)
    for name in ("half_values", "half_root"):
        assert getattr(b, name) is getattr(b, name)
        assert not getattr(b, name).flags.writeable
    assert IntensityMeasurements(np.array([4.0, 1.0, 1.0])).asymmetry == 0.0


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


def ref_mirror_index(values, axes=None):
    """The flip-and-roll oracle of the mirror map: values at -i mod m along
    each of axes, every axis by default."""
    out = np.asarray(values)
    for axis in range(out.ndim) if axes is None else axes:
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out


@settings(max_examples=100, deadline=None)
@given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
       lanes=st.sampled_from([None, 1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_mirror_map_matches_flip_and_roll(shape, lanes, seed):
    # model's mirror map against the flip-and-roll oracle, bit for bit: the
    # gather of mirror_index, the mirror of one index tuple, and the
    # self-mirrored lines of a Workspace and their mirrors
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    got, expected = mirror_index(values), ref_mirror_index(values)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    numbered = np.arange(values.size).reshape(shape)
    index = tuple(int(rng.integers(m)) for m in shape)
    assert numbered[mirror(shape, index)] == ref_mirror_index(numbered)[index]

    work = Workspace(shape, lanes)
    m = shape[-1]
    lines = [j for j in range(m // 2 + 1) if ref_mirror_index(np.arange(m))[j] == j]
    assert work._lines.tolist() == lines
    if len(shape) == 1:
        assert work._line_mirrors is None
        return
    # the flat index of each entry of ``half`` on the lines, a lane axis in front
    flat = np.arange(work.half.size).reshape(work.half.shape)[..., lines]
    leading = range(flat.ndim - len(shape), flat.ndim - 1)
    assert work._line_entries.tolist() == flat.reshape(-1).tolist()
    assert work._line_mirrors.tolist() == ref_mirror_index(flat, leading).reshape(-1).tolist()


def test_intensity_measurements_mirror_values_once(monkeypatch):
    # the symmetry test, half_values and asymmetry share one mirror of b;
    # half_root mirrors the root
    values = intensity(np.random.default_rng(3).standard_normal((5, 6))).values
    mirrored = []
    gather = model.mirror_index

    def counting(v):
        mirrored.append(v)
        return gather(v)

    monkeypatch.setattr(model, "mirror_index", counting)
    b = IntensityMeasurements(values)
    assert b.half_values.shape == (5, 4) and b.asymmetry >= 0.0
    assert len(mirrored) == 1 and np.array_equal(mirrored[0], values)
    b.half_root
    assert len(mirrored) == 2


def test_solver_config_validation():
    cfg = SolverConfig(method="bdr")
    assert cfg.method is Method.BDR and cfg.eps == 1e-12 and cfg.max_iter == 300
    assert cfg.trace_every == 0
    with pytest.raises(ValueError):
        SolverConfig(method=Method.BDR, eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.BDR, beta=1.5)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.BDR, max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.BDR, lam=0.0)
    for name in ("eps", "lam"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SolverConfig(method=Method.PGD, **{name: value})
    for stride in (-1, 1.5):
        with pytest.raises(ValueError):
            SolverConfig(method=Method.BDR, trace_every=stride)
    with pytest.raises(ValueError):
        Method.parse("nope")


@pytest.mark.parametrize("field", ["max_iter", "trace_every"])
@pytest.mark.parametrize("value", [2.5, True, "3"])
def test_solver_config_rejects_a_non_integer_count(field, value):
    # a float or a str would fail later in range(); a bool would count as 1
    with pytest.raises(ValueError, match=field):
        SolverConfig(method=Method.BDR, **{field: value})


def test_solver_config_takes_numpy_integer_counts():
    cfg = SolverConfig(method=Method.BDR, max_iter=np.int64(5), trace_every=np.int32(2))
    assert cfg.max_iter == 5 and cfg.trace_every == 2


def test_solver_run_trace_length():
    # between no row (an untraced run) and one row per iteration
    with pytest.raises(ValueError):
        SolverRun(np.zeros(3), 2, np.zeros((3, 2)), True)
    assert SolverRun(np.zeros(3), 2, np.zeros((0, 2)), True).trace.shape == (0, 2)
    run = SolverRun(np.zeros(3), 2, np.zeros((2, 2)), False)
    assert run.trace[:, 0].shape == (2,)
    assert SolverRun(np.zeros(3), 5, np.zeros((1, 2)), False).trace.shape == (1, 2)


def test_types_are_read_only():
    b = IntensityMeasurements(np.array([4.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        b.values[0] = 9.0


def _small_system():
    # a linear system of a 2-sample on a grid of 8, for robustness_bound
    rng = np.random.default_rng(0)
    mask = SupportMask.block((8,), (2,))
    y = rng.standard_normal(8)
    y[mask.slices] = 0.0
    return analysis.build_linear_system(y, mask, autocorrelation_from_intensity(
        intensity(assemble(rng.standard_normal(2), y, mask))))


def _meaningless_numbers():
    """(call, the field its error names, error type): each entry point of a
    user-supplied count or level, given a value without meaning."""
    def config(**fields):
        return lambda: ExperimentConfig(Method.BDR, (8,), **{"trials": 1, "seed": 0, **fields})

    b = IntensityMeasurements(np.array([4.0, 1.0, 1.0]))
    cases = [(config(noise_sigma=value), "noise_sigma") for value in (math.nan, -1.0, math.inf)]
    cases += [(config(trials=value), "trials") for value in (2.5, True, 0)]
    cases += [(config(eps=math.nan), "eps"), (config(max_iter=0), "max_iter"),
              (config(lam=0.0), "lambda"), (config(beta=2.0), "beta"),
              (config(beta=True), "beta")]
    cases = [(call, field, DataFormatError) for call, field in cases]
    cases += [(call, field, ValueError) for call, field in [
        (lambda: background_sizes_for(True, (10,)), "background ratio"),
        (lambda: SolverConfig(Method.BDR, eps=True), "eps"),
        (lambda: SolverConfig(Method.PGD, lam="1"), "lam"),
        (lambda: SolverConfig(Method.BDR1, beta=True), "beta"),
        (lambda: SolverConfig(Method.BDR1, beta="0.5"), "beta"),
        (lambda: SolverConfig(Method.BDR1, beta=math.nan), "beta"),
        (lambda: harness.gen_signal(2, 2.5), "signal length"),
        (lambda: harness.gen_signal(2, True), "signal length"),
        (lambda: harness.add_noise(b, math.nan, Xoshiro256StarStar(0)), "noise level"),
        (lambda: harness.add_noise(b, True, Xoshiro256StarStar(0)), "noise level"),
        (lambda: harness.resolve_workers(2.5), "worker count"),
        (lambda: harness.resolve_workers(True), "worker count"),
        (lambda: harness.synthetic_test_image(8.0), "test image size"),
        (lambda: harness.noise_benchmark(np.ones((8, 8)), 0.0, 1.0, 2.5), "trials"),
        (lambda: analysis.verify_uniqueness(3, 3, True, 1), "d"),
        (lambda: analysis.verify_uniqueness(3, -1, 1, 1), "k"),
        (lambda: analysis.verify_uniqueness(3.0, 3, 1, 1), "n"),
        (lambda: analysis.verify_robustness(1, c1=math.inf), "c1"),
        (lambda: analysis.verify_robustness(1, c2=-1e-3), "c2"),
        (lambda: analysis.robustness_bound(_small_system(), math.nan, 0.0, b.values,
                                           np.zeros(3)), "c1"),
        (lambda: analysis.dimension_bound((True,), (3,)), "sample size"),
        (lambda: analysis.sample_c2(2.5, 0), "size"),
        (lambda: analysis.frip_expectation_check(np.ones(2), np.zeros(8), True, 0),
         "num_draws"),
        (lambda: Xoshiro256StarStar(0).normal(2.5), "count"),
        (lambda: Workspace((4,), True), "lanes"),
    ]]
    return cases


MEANINGLESS = _meaningless_numbers()


@pytest.mark.parametrize("call, field, error", MEANINGLESS,
                         ids=[field for _, field, _ in MEANINGLESS])
def test_a_meaningless_count_or_level_names_its_field(call, field, error):
    # a bool, a fraction, NaN, an infinity or a value out of range is refused
    # by model's count and level rules wherever it enters
    with pytest.raises(error, match=f"^{field} must"):
        call()


def test_every_norm_goes_through_model_inner(monkeypatch):
    # model.inner owns the BLAS inner product of every norm and sum of
    # squares that reaches a row, a stop test or a verify JSON: with
    # numpy.linalg.norm raising, a trial of every method (1-D, and 2-D with
    # noise) and every verify check still run; outside inner's body no module
    # calls a dot or linalg.norm, and none reads Ω but through its slices
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", forbidden)
    run_trials_and_every_check(Method)
    package = Path(__file__).resolve().parent.parent / "src" / "bgret"
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    owner = inspect.getsource(model.inner)
    assert ".dot(" in owner
    texts["model.py"] = texts["model.py"].replace(owner, "")
    assert [name for name, text in texts.items()
            if re.search(r"\.dot\(|linalg\.norm\(", text)] == []
    assert [name for name, text in texts.items() if re.search(r"\.inside\b", text)] == []
    assert not hasattr(SupportMask.block((4,), (2,)), "inside")
