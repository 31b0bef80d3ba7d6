import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgret import harness, solvers
from bgret.metrics import measurement_error, relative_error
from bgret.model import (IntensityMeasurements, Method, SolverConfig,
                         SupportMask, assemble)
from bgret.projections import (project_background, project_magnitude,
                               project_magnitude_ball)
from bgret.solvers import DivergenceError, bdr_step, cbdr_step, cbdr_parallel_real, pgd_step, run
from bgret.spectral import Workspace, hermitian_half, intensity
from test_reference_path import init_spectral, ref_omega


def reflect(z, projector):
    """Reflector 2*P(z) - z for any projector P."""
    z = np.asarray(z, dtype=float)
    return 2.0 * projector(z) - z


def magnitude_objective(z, root):
    """(1/(2m)) * sum_i (|DFT(z)_i| - b_i^{1/2})^2, the PGD objective."""
    diff = np.abs(np.fft.fftn(np.asarray(z, dtype=float))) - root
    return 0.5 * float(np.sum(diff * diff)) / root.size


def make_instance(rng, n, k, two_d=False):
    if two_d:
        mask = SupportMask.centered((n[0] + k[0], n[1] + k[1]), n)
        x = rng.standard_normal(mask.sample_count)
    else:
        mask = SupportMask.block((n + k,), (n,))
        x = rng.standard_normal(n)
    y = rng.standard_normal(mask.shape)
    y[mask.slices] = 0.0
    b = intensity(assemble(x, y, mask))
    return x, y, mask, b


def test_init_spectral_two_point_example():
    # b=[4,0]: the pre-projection array is (1/2)*DFT([2,0]) = [1,1]
    mask = SupportMask.block((2,), (1,))
    y = np.array([0.0, 3.0])
    z = init_spectral(IntensityMeasurements(np.array([4.0, 0.0])), y, mask)
    assert z[0] == pytest.approx(1.0)
    assert z[1] == 3.0  # background restored exactly


def test_init_spectral_zero_data():
    mask = SupportMask.block((3,), (1,))
    z = init_spectral(IntensityMeasurements(np.zeros(3)), np.zeros(3), mask)
    assert np.array_equal(z, np.zeros(3))


def test_pgd_lambda_one_equals_alternating_projection():
    rng = np.random.default_rng(0)
    x, y, mask, b = make_instance(rng, 6, 18)
    root = b.root
    z = rng.standard_normal(24)
    stepped = pgd_step(z, hermitian_half(root), y, mask, lam=1.0)
    direct = project_background(project_magnitude(z, hermitian_half(root)), y, mask)
    assert np.max(np.abs(stepped - direct)) == 0.0


def test_pgd_fixed_point_on_truth():
    rng = np.random.default_rng(1)
    x, y, mask, b = make_instance(rng, 5, 15)
    truth = assemble(x, y, mask)
    root = b.root
    stepped = pgd_step(truth, hermitian_half(root), y, mask, lam=1.0)
    assert np.max(np.abs(stepped - truth)) <= 1e-12


def test_pgd_objective_monotone_at_lambda_one():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(2, 20))
        x, y, mask, b = make_instance(rng, n, k)
        root = b.root
        z = init_spectral(b, y, mask)
        prev = magnitude_objective(z, root)
        for _ in range(5):
            z = pgd_step(z, hermitian_half(root), y, mask, lam=1.0)
            now = magnitude_objective(z, root)
            assert now <= prev + 1e-12 * max(1.0, prev)
            prev = now


def test_bdr_step_worked_example():
    # z=(2,3), support {0}, y=5, b from (2,3): new iterate is (2,5)
    mask = SupportMask.block((2,), (1,))
    y = np.array([0.0, 5.0])
    b = intensity(np.array([2.0, 3.0]))
    root = b.root
    stepped = bdr_step(np.array([2.0, 3.0]), hermitian_half(root), y, mask, beta=1.0)
    assert np.allclose(stepped, [2.0, 5.0], atol=1e-12)


def test_bdr_step_equals_reflection_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y, mask, b = make_instance(rng, 4, 12)
        root = b.root
        z = rng.standard_normal(16)
        stepped = bdr_step(z, hermitian_half(root), y, mask, beta=1.0)
        ra = reflect(z, lambda w: project_magnitude(w, hermitian_half(root)))
        rbra = reflect(ra, lambda w: project_background(w, y, mask))
        assert np.max(np.abs(stepped - 0.5 * (rbra + z))) <= 1e-12


def test_bdr_step_on_magnitude_feasible_point():
    # if P_A(z) = z the update reduces to P_B(z)
    rng = np.random.default_rng(4)
    x, y, mask, b = make_instance(rng, 4, 12)
    truth = assemble(x, y, mask)
    z = project_magnitude(rng.standard_normal(16), hermitian_half(b.root))
    root = intensity(z).root
    stepped = bdr_step(z, hermitian_half(root), y, mask)
    assert np.max(np.abs(stepped - project_background(z, y, mask))) <= 1e-9


def test_bdr1_touches_only_background_coordinates():
    rng = np.random.default_rng(5)
    x, y, mask, b = make_instance(rng, 4, 12)
    root = b.root
    z = rng.standard_normal(16)
    ztilde = project_magnitude(z, hermitian_half(root))
    for beta in (1.0, 0.9, 0.5):
        stepped = bdr_step(z, hermitian_half(root), y, mask, beta=beta)
        assert np.array_equal(stepped[mask.slices].reshape(-1), ztilde[mask.slices].reshape(-1))
        off = ~ref_omega(mask)
        assert np.allclose(stepped[off], z[off] - beta * (ztilde[off] - y[off]))
        if beta == 1.0:
            assert np.allclose(stepped[off], z[off] - ztilde[off] + y[off])


def test_cbdr_step_fixed_on_feasible_point():
    rng = np.random.default_rng(6)
    x, y, mask, b = make_instance(rng, 4, 12)
    truth = assemble(x, y, mask)
    root = b.root
    stepped = cbdr_step(truth, hermitian_half(root), y, mask)
    assert np.max(np.abs(stepped - truth)) <= 1e-12


def test_cbdr_interior_reduces_to_background_style_update():
    rng = np.random.default_rng(7)
    x, y, mask, b = make_instance(rng, 4, 12)
    z = 1e-3 * rng.standard_normal(16)  # spectrum well inside the ball
    root = b.root
    stepped = cbdr_step(z, hermitian_half(root), y, mask)
    assert np.max(np.abs(stepped - project_background(z, y, mask))) <= 1e-12


def test_cbdr_fejer_monotone_to_fixed_point():
    rng = np.random.default_rng(8)
    x, y, mask, b = make_instance(rng, 4, 40)
    cfg = SolverConfig(method=Method.CBDR, max_iter=2000, eps=1e-13)
    root = b.root
    z = init_spectral(b, y, mask)
    for _ in range(cfg.max_iter):
        z_new = cbdr_step(z, hermitian_half(root), y, mask)
        step_norm = np.linalg.norm(z_new - z)
        z = z_new
        if step_norm <= cfg.eps:
            break
    fixed = z
    z = init_spectral(b, y, mask)
    dist = np.linalg.norm(z - fixed)
    for _ in range(200):
        z = cbdr_step(z, hermitian_half(root), y, mask)
        new_dist = np.linalg.norm(z - fixed)
        assert new_dist <= dist + 1e-9
        dist = new_dist


def test_run_from_truth_converges_immediately():
    rng = np.random.default_rng(9)
    for method in (Method.PGD, Method.BDR, Method.CBDR):
        x, y, mask, b = make_instance(rng, 5, 15)
        truth = assemble(x, y, mask)
        cfg = SolverConfig(method=method, trace_every=1)
        result = run(b, y, mask, cfg, x_true=x, z0=truth)
        assert result.converged
        assert result.iterations_used == 1
        assert result.trace[-1, 0] <= 1e-10


def test_run_trace_shape_and_final_feasibility():
    rng = np.random.default_rng(10)
    x, y, mask, b = make_instance(rng, 8, 40)
    cfg = SolverConfig(method=Method.BDR, max_iter=200, trace_every=1)
    result = run(b, y, mask, cfg, x_true=x)
    assert result.trace.shape == (result.iterations_used, 2)
    if result.converged:
        resid = measurement_error(result.final_estimate, y, mask, b)
        assert resid <= 1e-6


def test_run_recovers_small_instance():
    rng = np.random.default_rng(11)
    x, y, mask, b = make_instance(rng, 10, 60)
    result = run(b, y, mask, SolverConfig(method=Method.BDR, max_iter=500), x_true=x)
    assert relative_error(result.final_estimate, x) < 1e-6


def test_run_2d_recovers():
    rng = np.random.default_rng(12)
    x, y, mask, b = make_instance(rng, (6, 6), (12, 12), two_d=True)
    result = run(b, y, mask, SolverConfig(method=Method.BDR, max_iter=500), x_true=x)
    assert relative_error(result.final_estimate, x) < 1e-6


def test_run_is_deterministic_bitwise():
    rng = np.random.default_rng(13)
    x, y, mask, b = make_instance(rng, 10, 40)
    cfg = SolverConfig(method=Method.BDR, max_iter=120, trace_every=1)
    first = run(b, y, mask, cfg, x_true=x)
    second = run(b, y, mask, cfg, x_true=x)
    assert np.array_equal(first.trace, second.trace)
    assert np.array_equal(first.final_estimate, second.final_estimate)


def test_fixed_point_gives_measurement_consistency():
    rng = np.random.default_rng(14)
    x, y, mask, b = make_instance(rng, 6, 30)
    cfg = SolverConfig(method=Method.BDR, max_iter=3000, eps=1e-12)
    result = run(b, y, mask, cfg, x_true=x)
    if result.converged:
        z_bar = assemble(result.final_estimate, y, mask)
        resid = np.max(np.abs(intensity(z_bar).values - b.values))
        assert resid <= 1e-8 * np.max(b.values)


def test_bdr_local_linear_convergence_statistical():
    rng = np.random.default_rng(15)
    negative_slopes = 0
    total = 20
    for _ in range(total):
        x, y, mask, b = make_instance(rng, 8, 24)
        truth = assemble(x, y, mask)
        root = b.root
        delta = rng.standard_normal(truth.shape)
        z0 = truth + 1e-3 * delta / np.linalg.norm(delta)
        z = z0
        errs = []
        for _ in range(80):
            z = bdr_step(z, hermitian_half(root), y, mask)
            err = np.linalg.norm(z - truth)
            if err < 1e-13:
                break
            errs.append(err)
        if len(errs) >= 5:
            slope = np.polyfit(np.arange(len(errs)), np.log(errs), 1)[0]
            negative_slopes += slope < 0
        else:
            negative_slopes += 1  # reached machine precision immediately
    assert negative_slopes >= 0.9 * total


def test_cbdr_parallel_real_picks_dc_sign():
    rng = np.random.default_rng(16)
    x, y, mask, b = make_instance(rng, 4, 40)
    truth = assemble(x, y, mask)
    dc = float(np.sum(truth))
    cfg = SolverConfig(method=Method.CBDR, max_iter=400)
    result = cbdr_parallel_real(b, y, mask, cfg, x_true=x)
    # winner satisfies the DC of the truth (correct sign branch)
    recovered = assemble(result.final_estimate, y, mask)
    assert np.sign(np.sum(recovered)) == np.sign(dc)


def test_cbdr_parallel_real_recovers():
    rng = np.random.default_rng(17)
    x, y, mask, b = make_instance(rng, 20, 120)
    cfg = SolverConfig(method=Method.CBDR, max_iter=600)
    result = cbdr_parallel_real(b, y, mask, cfg, x_true=x)
    assert relative_error(result.final_estimate, x) < 1e-5


def test_cbdr_parallel_real_monte_carlo_rate():
    # the k/n = 6 operating point: most draws recover below the 1e-5 rule
    rng = np.random.default_rng(30)
    cfg = SolverConfig(method=Method.CBDR, max_iter=800)
    hits = 0
    for _ in range(10):
        x, y, mask, b = make_instance(rng, 20, 120)
        result = cbdr_parallel_real(b, y, mask, cfg, x_true=x)
        hits += relative_error(result.final_estimate, x) < 1e-5
    assert hits >= 8


def test_run_cbdr_is_the_two_branch_driver():
    rng = np.random.default_rng(18)
    x, y, mask, b = make_instance(rng, 10, 60)
    cfg = SolverConfig(method=Method.CBDR, max_iter=150, trace_every=1)
    via_run = run(b, y, mask, cfg, x_true=x)
    direct = cbdr_parallel_real(b, y, mask, cfg, x_true=x)
    assert via_run.iterations_used == direct.iterations_used
    assert via_run.converged == direct.converged
    assert np.array_equal(via_run.final_estimate, direct.final_estimate)
    assert np.array_equal(via_run.trace, direct.trace)


def test_cbdr_parallel_real_tie_break_is_plus_branch():
    # integer-valued truth with exactly zero sum: b_1 = 0 exactly, both
    # branches coincide and the + branch wins by documented order
    rng = np.random.default_rng(31)
    n, k = 4, 12
    mask = SupportMask.block((n + k,), (n,))
    x = np.array([1.0, -1.0, 2.0, -2.0])
    y = np.zeros(n + k)
    y[n:] = rng.integers(-4, 5, size=k).astype(float)
    y[-1] -= y.sum()  # exact integer cancellation
    truth = assemble(x, y, mask)
    assert np.sum(truth) == 0.0
    b = intensity(truth)
    assert b.values[0] == 0.0
    cfg = SolverConfig(method=Method.CBDR, max_iter=50)
    winner = cbdr_parallel_real(b, y, mask, cfg, x_true=x)
    plus_run, = cbdr_lanes(b, y, mask, cfg, (1,), x)
    assert np.array_equal(winner.final_estimate, plus_run.final_estimate)
    again = cbdr_parallel_real(b, y, mask, cfg, x_true=x)
    assert np.array_equal(winner.final_estimate, again.final_estimate)


def cbdr_lanes(b, y, mask, cfg, signs, x_true=None, step=cbdr_step, part=False):
    # the DC signs as the lanes of one lockstep _iterate call
    half_root = b.half_root
    return solvers._iterate(
        b, y, mask, cfg,
        lambda z, work, lanes: step(z, half_root, y, mask, lanes, work),
        lambda z, work, lanes: project_magnitude_ball(z, half_root, lanes, work),
        x_true=x_true, lanes=signs, part=part)


def cbdr_oracle(b, y, mask, cfg, x_true=None):
    # both DC-sign lanes run to their own end, neither stopped for the other,
    # then the branch choice: the smaller measurement error, ties to the + lane
    plus, minus = cbdr_lanes(b, y, mask, cfg, (1, -1), x_true)
    errors = [measurement_error(lane.final_estimate, y, mask, b) for lane in (plus, minus)]
    return plus if errors[0] <= errors[1] else minus


def assert_same_run(got, want):
    assert got.final_estimate.tobytes() == want.final_estimate.tobytes()
    assert got.iterations_used == want.iterations_used
    assert got.converged == want.converged
    assert got.trace.tobytes() == want.trace.tobytes()


def test_cbdr_choice_equals_the_full_run_on_criterion_9():
    # criterion 9's 50 trials (the acceptance seed, n = 100 inside k = 600,
    # 1000 iterations), each instance as run_trial draws it: stopping the
    # losing lane when the other converges keeps the full run's choice
    runs = []
    parallel, iterate = solvers.cbdr_parallel_real, solvers._iterate

    def recorded(b, y, mask, cfg, **kwargs):
        runs.append((b, y, mask, cfg, parallel(b, y, mask, cfg, **kwargs)))
        return runs[-1][-1]

    lane_runs = []

    def counted(*args, **kwargs):
        lane_runs.append(iterate(*args, **kwargs))
        return lane_runs[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "cbdr_parallel_real", recorded)
        patch.setattr(solvers, "_iterate", counted)
        for t in range(50):
            harness.run_trial(harness.TrialSpec(
                master_seed=20260808, cell_id=0, trial_index=t, method=Method.CBDR,
                sample_shape=(100,), background_sizes=(600,), max_iter=1000))
    assert len(runs) == 50
    for b, y, mask, cfg, got in runs:
        assert_same_run(got, cbdr_oracle(b, y, mask, cfg))
    parted = [lanes for lanes in lane_runs
              if any(lane.converged for lane in lanes) and not lanes.converged]
    assert parted and all(lanes[0].iterations_used == lanes[1].iterations_used < 1000
                          for lanes in parted)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), two_d=st.booleans(), n=st.integers(4, 12),
       ratio=st.sampled_from((3.0, 3.5, 4.0, 5.0, 6.0)), grid=st.sampled_from(
           ((3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5), (4, 6))),
       stride=st.sampled_from((0, 1, 7)))
@example(seed=47, two_d=False, n=6, ratio=3.0, grid=(3, 3), stride=1)
@example(seed=2, two_d=True, n=4, ratio=3.0, grid=(3, 3), stride=7)
def test_cbdr_choice_equals_the_full_run(seed, two_d, n, ratio, grid, stride):
    # k/n from 3 to 6: 1-D n inside k = ratio * n, or a 3x3 sample inside a
    # 6x6 to 7x9 grid. The two examples are draws where the first lane to
    # converge is the worse fixed point (the cases of the test below)
    rng = np.random.default_rng(seed)
    if two_d:
        x, y, mask, b = make_instance(rng, (3, 3), grid, two_d=True)
    else:
        x, y, mask, b = make_instance(rng, n, round(ratio * n))
    cfg = SolverConfig(method=Method.CBDR, max_iter=300, trace_every=stride)
    assert_same_run(cbdr_parallel_real(b, y, mask, cfg, x_true=x),
                    cbdr_oracle(b, y, mask, cfg, x_true=x))


@pytest.mark.parametrize("seed, n, k, two_d", ((47, 6, 18, False), (2, (3, 3), (3, 3), True)))
def test_cbdr_keeps_the_later_lane_when_the_first_converged_is_worse(seed, n, k, two_d):
    # the first lane to converge has the larger measurement error, so the other
    # is not stopped: it runs on, and the choice keeps it
    x, y, mask, b = make_instance(np.random.default_rng(seed), n, k, two_d)
    cfg = SolverConfig(method=Method.CBDR, max_iter=300)
    lanes = cbdr_lanes(b, y, mask, cfg, (1, -1), part=True)
    first = min((lane for lane in lanes if lane.converged), key=lambda r: r.iterations_used)
    later, = (lane for lane in lanes if lane is not first)
    assert later.iterations_used > first.iterations_used
    errors = [measurement_error(lane.final_estimate, y, mask, b) for lane in (first, later)]
    assert errors[1] < errors[0]
    assert_same_run(cbdr_parallel_real(b, y, mask, cfg), later)
    assert_same_run(cbdr_oracle(b, y, mask, cfg), later)


@pytest.mark.parametrize("seed", (43, 52))
def test_cbdr_lanes_part_where_the_first_converges(seed):
    # seed 43: the - lane converges at 85 and the + lane stops there; 52: the +
    # lane at 70, a multiple of the stride 7. The stopped lane reports the
    # parting iteration, not converged, and the same iterates at every stride;
    # its trace ends with a row at that iteration, recorded once
    x, y, mask, b = make_instance(np.random.default_rng(seed), 8, 48)
    full = cbdr_lanes(b, y, mask, SolverConfig(method=Method.CBDR, max_iter=300,
                                               trace_every=1), (1, -1), x, part=True)
    parting = full[0].iterations_used
    assert parting == full[1].iterations_used == {43: 85, 52: 70}[seed]
    assert [lane.converged for lane in full] == [seed == 52, seed == 43]
    for lane in full:
        assert lane.trace.shape == (parting, 2)
    for stride in (0, 1, 7):
        cfg = SolverConfig(method=Method.CBDR, max_iter=300, trace_every=stride)
        for lane, whole in zip(cbdr_lanes(b, y, mask, cfg, (1, -1), x, part=True), full):
            assert lane.iterations_used == parting
            assert lane.converged == whole.converged
            assert lane.final_estimate.tobytes() == whole.final_estimate.tobytes()
            expected = whole.trace[_stride_rows(parting, stride)]
            assert lane.trace.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", (43, 52))
def test_cbdr_lanes_stop_on_their_own(seed):
    # one DC sign converges and the other runs to the cap (seed 43: the - lane
    # stops first, 52: the + lane); each lane of the stack is the one-lane run
    # of its sign, trace rows included, and the stack sums the lanes' counts
    rng = np.random.default_rng(seed)
    x, y, mask, b = make_instance(rng, 8, 48)
    cfg = SolverConfig(method=Method.CBDR, max_iter=300, trace_every=7)
    both = cbdr_lanes(b, y, mask, cfg, (1, -1), x)
    assert sorted(lane.converged for lane in both) == [False, True]
    assert sorted(lane.iterations_used for lane in both)[1] == 300
    assert both[0].converged is (seed == 52)
    for sign, lane in zip((1, -1), both):
        alone, = cbdr_lanes(b, y, mask, cfg, (sign,), x)
        assert lane.iterations_used == alone.iterations_used
        assert lane.converged == alone.converged
        assert lane.final_estimate.tobytes() == alone.final_estimate.tobytes()
        assert lane.trace.tobytes() == alone.trace.tobytes()
    assert both.iterations_used == sum(lane.iterations_used for lane in both)
    assert not both.converged


def test_a_stack_keeps_stepping_the_lanes_left():
    # three lanes, the middle one (+) stopping first (seed 52): the other two
    # go on as a stack of two, each still the one-lane run of its sign
    rng = np.random.default_rng(52)
    x, y, mask, b = make_instance(rng, 8, 48)
    cfg = SolverConfig(method=Method.CBDR, max_iter=300)
    lanes = cbdr_lanes(b, y, mask, cfg, (-1, 1, -1))
    assert [lane.converged for lane in lanes] == [False, True, False]
    for sign, lane in zip((-1, 1, -1), lanes):
        alone, = cbdr_lanes(b, y, mask, cfg, (sign,))
        assert lane.iterations_used == alone.iterations_used
        assert lane.final_estimate.tobytes() == alone.final_estimate.tobytes()


def beta_lanes(b, y, mask, cfg, betas, x_true):
    # the BDR1 update with one beta per lane: a number for one lane, a column
    # of the lanes' betas for a stack. The update is elementwise, so a lane of
    # the stack computes the bytes of its beta alone
    half_root, block = b.half_root, (...,) + mask.slices

    def step(z, work, beta):
        if isinstance(beta, tuple):
            beta = np.reshape(beta, (-1,) + (1,) * len(mask.shape))
        ztilde = project_magnitude(z, half_root, work)
        update = z - beta * (ztilde - y)
        update[block] = ztilde[block]
        return update

    return solvers._iterate(b, y, mask, cfg, step,
                            lambda z, work, _: project_magnitude(z, half_root, work),
                            x_true=x_true, lanes=tuple(betas))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 10), ratio=st.integers(1, 4),
       betas=st.lists(st.sampled_from((0.5, 0.8, 1.0)), min_size=1, max_size=3),
       eps=st.sampled_from((1e-12, 1e-3, 1e-1)), max_iter=st.integers(1, 40),
       stride=st.sampled_from((0, 1, 7)))
def test_each_lane_ends_as_its_run_alone(seed, n, ratio, betas, eps, max_iter, stride):
    # lanes that stop at their stop test or at the cap, at different
    # iterations: each lane's run is the one-lane run of its beta, byte for byte
    x, y, mask, b = make_instance(np.random.default_rng(seed), n, ratio * n)
    cfg = SolverConfig(method=Method.BDR1, eps=eps, max_iter=max_iter, trace_every=stride)
    stack = beta_lanes(b, y, mask, cfg, betas, x)
    assert len(stack) == len(betas)
    for beta, lane in zip(betas, stack):
        alone, = beta_lanes(b, y, mask, cfg, (beta,), x)
        assert_same_run(lane, alone)
    assert stack.iterations_used == sum(lane.iterations_used for lane in stack)


@pytest.mark.parametrize("stride", (0, 1, 7))
@pytest.mark.parametrize("seed", (43, 52))
def test_a_parted_lane_is_its_run_capped_where_it_parted(seed, stride):
    # CBDR's lanes part at 85 (seed 43) or 70 (52): the lane stopped there is
    # the one-lane run of its sign capped at that iteration, and the lane that
    # converged there the one-lane run of its own sign
    x, y, mask, b = make_instance(np.random.default_rng(seed), 8, 48)
    cfg = SolverConfig(method=Method.CBDR, max_iter=300, trace_every=stride)
    lanes = cbdr_lanes(b, y, mask, cfg, (1, -1), x, part=True)
    parted, = (lane for lane in lanes if not lane.converged)
    assert parted.iterations_used == {43: 85, 52: 70}[seed]
    for sign, lane in zip((1, -1), lanes):
        capped = SolverConfig(method=Method.CBDR, max_iter=parted.iterations_used,
                              trace_every=stride)
        alone, = cbdr_lanes(b, y, mask, capped if lane is parted else cfg, (sign,), x)
        assert_same_run(lane, alone)


@pytest.mark.parametrize("bad_sign", (1, -1))
def test_a_non_finite_lane_raises(bad_sign):
    # one lane of the stack turns non-finite at step 3 while the other stays
    # finite: the run raises, as that branch would alone
    rng = np.random.default_rng(43)
    x, y, mask, b = make_instance(rng, 8, 48)
    steps = [0]

    def step(z, half_root, y, mask, signs, work):
        z_new = cbdr_step(z, half_root, y, mask, signs, work)
        steps[0] += 1
        if steps[0] == 3:
            z_new[signs.index(bad_sign)] = np.inf
        return z_new

    with pytest.raises(DivergenceError, match="step 3"):
        cbdr_lanes(b, y, mask, SolverConfig(method=Method.CBDR, max_iter=20), (1, -1),
                   step=step)


def test_hio_delta_full_support():
    mask = SupportMask.block((6,), (6,))
    delta = np.zeros(6)
    delta[0] = 2.0
    b = intensity(delta)
    result = run(b, np.zeros(mask.shape), mask, SolverConfig(method=Method.HIO))
    assert result.converged
    assert np.max(np.abs(result.final_estimate - delta)) <= 1e-10


def test_hio_from_truth_is_fixed():
    rng = np.random.default_rng(18)
    x = rng.standard_normal(8)
    mask = SupportMask.block((16,), (8,))
    z = np.zeros(16)
    z[:8] = x
    b = intensity(z)
    result = run(b, np.zeros(mask.shape), mask, SolverConfig(method=Method.HIO), x_true=x,
                 z0=z)
    assert result.converged and result.iterations_used == 1


def test_hio_measurement_error_trend():
    rng = np.random.default_rng(19)
    x = np.abs(rng.standard_normal((8, 8))) + 0.5
    mask = SupportMask.block((12, 12), (8, 8))
    z = np.zeros((12, 12))
    z[:8, :8] = x
    b = intensity(z)
    result = run(b, np.zeros(mask.shape), mask,
                 SolverConfig(method=Method.HIO, max_iter=200, trace_every=1),
                 x_true=x.reshape(-1))
    me = result.trace[:, 1]
    assert me[-1] < me[0]


def test_oversampled_theory_mode_runs():
    # m >= 2(n+k)-1 measures [x; y; 0] on the grid m: the zero padding is known
    # background, so the oversampled instance runs on the object grid m, and
    # PGD still recovers the sample
    rng = np.random.default_rng(21)
    n, k = 6, 18
    m = 2 * (n + k) - 1
    mask = SupportMask.block((m,), (n,))
    x = rng.standard_normal(n)
    y = np.zeros(m)
    y[n:n + k] = rng.standard_normal(k)
    b = intensity(assemble(x, y, mask))
    result = run(b, y, mask, SolverConfig(method=Method.PGD, max_iter=800), x_true=x)
    assert relative_error(result.final_estimate, x) < 1e-8
    bdr_result = run(b, y, mask, SolverConfig(method=Method.BDR, max_iter=200, trace_every=1),
                     x_true=x)
    assert bdr_result.trace[-1, 0] < bdr_result.trace[0, 0]


def test_oversampled_measurements_are_rejected():
    # b on the oversampled grid 2(n+k)-1 is refused, not cropped
    rng = np.random.default_rng(21)
    x, y, mask, _ = make_instance(rng, 6, 18)
    b = intensity(np.pad(assemble(x, y, mask), (0, mask.shape[0] - 1)))
    for method in Method:
        with pytest.raises(ValueError, match="object grid"):
            run(b, y, mask, SolverConfig(method=method))
    with pytest.raises(ValueError, match="object grid"):
        run(b, np.zeros(mask.shape), mask, SolverConfig(method=Method.HIO))


def test_divergence_guard(monkeypatch):
    rng = np.random.default_rng(22)
    x, y, mask, b = make_instance(rng, 4, 12)
    z0 = np.zeros(16)
    z0[5] = np.nan
    for method in (Method.PGD, Method.BDR, Method.CBDR):
        with pytest.raises(DivergenceError):
            run(b, y, mask, SolverConfig(method=method), z0=z0)
    with pytest.raises(DivergenceError):
        run(b, np.zeros(mask.shape), mask, SolverConfig(method=Method.HIO), z0=z0)

    # a step that turns the iterate non-finite is caught by the step norm,
    # and run_trial reports it as an aborted row instead of raising
    from bgret import harness
    monkeypatch.setattr(solvers, "bdr_step", lambda z, *args: np.full_like(z, np.inf))
    spec = harness.TrialSpec(master_seed=1, cell_id=0, trial_index=0, method=Method.BDR,
                             sample_shape=(4,), background_sizes=(12,), max_iter=10)
    row = harness.run_trial(spec)
    assert row["aborted"] is True and row["iterations"] == 0
    assert row["relative_error"] == math.inf


@pytest.mark.parametrize("field, value", [("beta", 0.0), ("beta", True), ("lam", 0.0),
                                          ("lam", math.nan)])
@pytest.mark.parametrize("method", [m.value for m in Method])
def test_solver_config_refuses_the_levels_the_steps_trust(method, field, value):
    # pgd_step and bdr_step take lam and beta unchecked: the SolverConfig that
    # every run is given refuses these, for every method
    with pytest.raises(ValueError, match=f"^{field} must"):
        SolverConfig(method, **{field: value})


def test_run_never_writes_inputs_or_aliases_results():
    rng = np.random.default_rng(23)
    x, y, mask, b = make_instance(rng, 6, 18)
    z0 = rng.standard_normal(mask.shape)
    kept = (z0.copy(), y.copy(), b.values.copy())
    for method in Method:
        cfg = SolverConfig(method=method, max_iter=40, trace_every=1)
        first = run(b, y, mask, cfg, x_true=x, z0=z0)
        estimate, trace = first.final_estimate.copy(), first.trace.copy()
        run(b, y, mask, cfg, x_true=x)  # a second run, from the spectral start
        assert np.array_equal(first.final_estimate, estimate)
        assert np.array_equal(first.trace, trace)
        for before, after in zip(kept, (z0, y, b.values)):
            assert np.array_equal(before, after)


def test_steps_without_out_return_new_arrays():
    rng = np.random.default_rng(24)
    x, y, mask, b = make_instance(rng, 5, 15)
    z = rng.standard_normal(mask.shape)
    half_root = hermitian_half(b.root)
    for result in (project_magnitude(z, half_root),
                   project_magnitude_ball(z, half_root, dc_sign=1),
                   bdr_step(z, half_root, y, mask)):
        assert not np.shares_memory(result, z)

    # with one workspace shared by a chain z -> z1 -> z2 -> z3, every step
    # still returns a new array: z1 survives the computation of z3
    work = Workspace(mask.shape)
    buffers = (work.half, work.half_magnitude, work.grid)
    steps = {
        "pgd": lambda v, w: pgd_step(v, half_root, y, mask, 1.0, w),
        "pgd-lam-0.5": lambda v, w: pgd_step(v, half_root, y, mask, 0.5, w),
        "bdr": lambda v, w: bdr_step(v, half_root, y, mask, 1.0, w),
        "cbdr": lambda v, w: cbdr_step(v, half_root, y, mask, 1, w),
        "hio": lambda v, w: bdr_step(v, half_root, np.zeros(mask.shape), mask, 0.9, w),
    }
    for name, step in steps.items():
        z1 = step(z, work)
        kept = z1.copy()
        z2 = step(z1, work)
        z3 = step(z2, work)
        assert np.array_equal(z1, kept), name
        for result in (z1, z2, z3):
            assert not np.shares_memory(result, z), name
            assert not any(np.shares_memory(result, buf) for buf in buffers), name


def _stride_rows(iterations, stride):
    # 0-based trace indices of the rows recorded at this stride: none at 0
    if not stride:
        return []
    rows = [p - 1 for p in range(1, iterations + 1) if p % stride == 0]
    if not rows or rows[-1] != iterations - 1:
        rows.append(iterations - 1)
    return rows


@pytest.mark.parametrize("max_iter", (20, 21))
@pytest.mark.parametrize("method", list(Method))
def test_trace_stride_selects_rows_of_the_full_trace(method, max_iter):
    # 21 is a multiple of 3 and 7, so the final row must not be recorded twice;
    # eps=0.1 stops PGD, BDR and BDR1 mid-run, and the truth start at once
    rng = np.random.default_rng(25)
    x, y, mask, b = make_instance(rng, 6, 18)
    for eps, z0 in ((1e-12, None), (0.1, None), (1e-12, assemble(x, y, mask))):
        full = run(b, y, mask, SolverConfig(method=method, eps=eps, max_iter=max_iter,
                                            trace_every=1), x_true=x, z0=z0)
        assert full.trace.shape == (full.iterations_used, 2)
        for stride in (0, 1, 3, 7):
            cfg = SolverConfig(method=method, eps=eps, max_iter=max_iter, trace_every=stride)
            result = run(b, y, mask, cfg, x_true=x, z0=z0)
            assert result.iterations_used == full.iterations_used
            assert result.converged == full.converged
            assert result.final_estimate.tobytes() == full.final_estimate.tobytes()
            expected = full.trace[_stride_rows(full.iterations_used, stride)]
            assert result.trace.tobytes() == expected.tobytes()


def test_untraced_iteration_makes_two_ffts(monkeypatch):
    # the magnitude projection's real forward and inverse transforms; a traced
    # iteration adds the measurement error's real forward transform. Counted
    # at the workspace's pair, patched on its class, and at numpy.fft's
    # complex functions (test_runs_make_no_numpy_fft_call patches them all)
    complex_transforms = {(np.fft, name) for name in ("fft", "ifft", "fftn", "ifftn",
                                                      "fft2", "ifft2")}
    calls = {"forward": 0, "inverse": 0, "complex": 0}

    def counted(name, fft):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fft(*args, **kwargs)
        return wrapper

    for name in ("forward", "inverse"):
        monkeypatch.setattr(Workspace, name, counted(name, getattr(Workspace, name)))
    for owner, name in complex_transforms:
        monkeypatch.setattr(owner, name, counted("complex", getattr(owner, name)))
    rng = np.random.default_rng(26)
    x, y, mask, b = make_instance(rng, 12, 12)

    def fft_calls(max_iter, stride):
        calls.update(dict.fromkeys(calls, 0))
        cfg = SolverConfig(method=Method.BDR, max_iter=max_iter, eps=1e-300, trace_every=stride)
        result = run(b, y, mask, cfg, x_true=x)
        assert not result.converged and result.iterations_used == max_iter
        return dict(calls)

    def added(stride, delta):
        short, long = fft_calls(10, stride), fft_calls(10 + delta, stride)
        return {name: long[name] - short[name] for name in calls}

    delta = 17
    untraced = added(0, delta)
    assert sum(untraced.values()) == 2 * delta
    assert untraced == {"forward": delta, "inverse": delta, "complex": 0}
    traced = added(1, delta)
    assert sum(traced.values()) == 3 * delta
    assert traced == {"forward": 2 * delta, "inverse": delta, "complex": 0}

    # while both CBDR lanes run, a lockstep iteration makes one forward and
    # one inverse for the two lanes together
    def cbdr_calls(max_iter):
        calls.update(dict.fromkeys(calls, 0))
        cfg = SolverConfig(method=Method.CBDR, max_iter=max_iter, eps=1e-300)
        both = cbdr_lanes(b, y, mask, cfg, (1, -1))
        assert both.iterations_used == 2 * max_iter
        return dict(calls)

    short, long = cbdr_calls(10), cbdr_calls(10 + delta)
    assert {name: long[name] - short[name] for name in calls} == {
        "forward": delta, "inverse": delta, "complex": 0}

    # a run whose lane converges at p below the cap against the same run capped
    # at p, where the loop ends at p anyway: CBDR's comparison adds one forward
    # per lane compared (its two lanes part at p, seed 43), once per run; the
    # one-lane methods compare nothing
    def counted_run(args, method, max_iter):
        calls.update(dict.fromkeys(calls, 0))
        return run(*args, SolverConfig(method=method, max_iter=max_iter)), dict(calls)

    _, y43, mask43, b43 = make_instance(np.random.default_rng(43), 8, 48)
    spike = np.zeros(6)
    spike[0] = 2.0  # HIO converges on a spike in a full support
    for method in Method:
        args = ((intensity(spike), np.zeros(6), SupportMask.block((6,), (6,)))
                if method is Method.HIO else (b43, y43, mask43))
        stopped, at_p = counted_run(args, method, 300)
        capped, at_cap = counted_run(args, method, stopped.iterations_used)
        assert stopped.converged and stopped.iterations_used < 300, method
        assert stopped.final_estimate.tobytes() == capped.final_estimate.tobytes(), method
        extra = 2 if method is Method.CBDR else 0
        assert at_p == {**at_cap, "forward": at_cap["forward"] + extra}, method

    # no run of any method makes a complex transform, traced or not: the
    # spectral start is a workspace inverse, and CBDR's branch choice and
    # the trace rows are workspace forwards
    for method in Method:
        for stride in (0, 1):
            calls.update(dict.fromkeys(calls, 0))
            run(b, y, mask, SolverConfig(method=method, max_iter=10, trace_every=stride),
                x_true=x)
            assert calls["complex"] == 0, method


#: Prints the minor page faults per iteration of one 200-iteration solve of a
#: 64x64 sample on a 256x256 grid, in a fresh process.
FAULTS_PER_ITERATION = """
import resource
import numpy as np
from bgret import harness, solvers
from bgret.model import Method, SolverConfig, SupportMask
x = np.random.default_rng(0).random((64, 64))
mask = SupportMask.place((256, 256), (64, 64))
y, b = harness.draw_instance(x, mask, 7, %r)
config = SolverConfig(method=%r, eps=1e-300, max_iter=200, lam=%r)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
result = solvers.run(b, y, mask, config)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / result.iterations_used)
"""


@pytest.mark.parametrize("method, sigma, lam", [("bdr", 0.0, 1.0), ("bdr", 1e-3, 1.0),
                                                ("pgd", 0.0, 0.5)])
def test_a_large_solve_reuses_its_iterate_buffers(method, sigma, lam):
    # the loop writes each step's difference into the previous iterate's
    # buffer, so an iteration allocates one grid array, not two. In a fresh
    # process a second half-megabyte array per iteration costs about 113
    # minor faults each time (glibc maps and unmaps it); with the reuse an
    # iteration takes 1-3
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_ITERATION % (sigma, method, lam)],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert float(out) < 16.0
