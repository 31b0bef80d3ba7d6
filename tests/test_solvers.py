import math

import numpy as np
import pytest

from bgret.metrics import measurement_error, relative_error
from bgret.model import (IntensityMeasurements, Method, SolverConfig,
                         SupportMask, assemble)
from bgret.projections import (project_background, project_magnitude,
                               project_magnitude_ball)
from bgret.solvers import (DivergenceError, bdr_step, cbdr_step,
                           cbdr_parallel_real, hio_run, init_spectral,
                           pgd_step, run)
from bgret.spectral import dft_forward, intensity


def reflect(z, projector):
    """Reflector 2*P(z) - z for any projector P."""
    z = np.asarray(z, dtype=float)
    return 2.0 * projector(z) - z


def magnitude_objective(z, root):
    """(1/(2m)) * sum_i (|DFT(z)_i| - b_i^{1/2})^2, the PGD objective."""
    diff = np.abs(dft_forward(np.asarray(z, dtype=float), root.shape)) - root
    return 0.5 * float(np.sum(diff * diff)) / root.size


def make_instance(rng, n, k, two_d=False):
    if two_d:
        mask = SupportMask.centered((n[0] + k[0], n[1] + k[1]), n)
        x = rng.standard_normal(mask.sample_count)
    else:
        mask = SupportMask.block((n + k,), (n,))
        x = rng.standard_normal(n)
    y = rng.standard_normal(mask.shape)
    y[mask.inside] = 0.0
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
    stepped = pgd_step(z, root, y, mask, lam=1.0)
    direct = project_background(project_magnitude(z, root), y, mask)
    assert np.max(np.abs(stepped - direct)) == 0.0


def test_pgd_fixed_point_on_truth():
    rng = np.random.default_rng(1)
    x, y, mask, b = make_instance(rng, 5, 15)
    truth = assemble(x, y, mask)
    root = b.root
    stepped = pgd_step(truth, root, y, mask, lam=1.0)
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
            z = pgd_step(z, root, y, mask, lam=1.0)
            now = magnitude_objective(z, root)
            assert now <= prev + 1e-12 * max(1.0, prev)
            prev = now


def test_bdr_step_worked_example():
    # z=(2,3), support {0}, y=5, b from (2,3): new iterate is (2,5)
    mask = SupportMask.block((2,), (1,))
    y = np.array([0.0, 5.0])
    b = intensity(np.array([2.0, 3.0]))
    root = b.root
    stepped = bdr_step(np.array([2.0, 3.0]), root, y, mask, beta=1.0)
    assert np.allclose(stepped, [2.0, 5.0], atol=1e-12)


def test_bdr_step_equals_reflection_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y, mask, b = make_instance(rng, 4, 12)
        root = b.root
        z = rng.standard_normal(16)
        stepped = bdr_step(z, root, y, mask, beta=1.0)
        ra = reflect(z, lambda w: project_magnitude(w, root))
        rbra = reflect(ra, lambda w: project_background(w, y, mask))
        assert np.max(np.abs(stepped - 0.5 * (rbra + z))) <= 1e-12


def test_bdr_step_on_magnitude_feasible_point():
    # if P_A(z) = z the update reduces to P_B(z)
    rng = np.random.default_rng(4)
    x, y, mask, b = make_instance(rng, 4, 12)
    truth = assemble(x, y, mask)
    z = project_magnitude(rng.standard_normal(16), b.root)
    root = intensity(z).root
    stepped = bdr_step(z, root, y, mask)
    assert np.max(np.abs(stepped - project_background(z, y, mask))) <= 1e-9


def test_bdr1_touches_only_background_coordinates():
    rng = np.random.default_rng(5)
    x, y, mask, b = make_instance(rng, 4, 12)
    root = b.root
    z = rng.standard_normal(16)
    ztilde = project_magnitude(z, root)
    for beta in (1.0, 0.9, 0.5):
        stepped = bdr_step(z, root, y, mask, beta=beta)
        assert np.array_equal(stepped[mask.inside], ztilde[mask.inside])
        off = ~mask.inside
        assert np.allclose(stepped[off], z[off] - beta * (ztilde[off] - y[off]))
        if beta == 1.0:
            assert np.allclose(stepped[off], z[off] - ztilde[off] + y[off])


def test_cbdr_step_fixed_on_feasible_point():
    rng = np.random.default_rng(6)
    x, y, mask, b = make_instance(rng, 4, 12)
    truth = assemble(x, y, mask)
    root = b.root
    stepped = cbdr_step(truth, root, y, mask)
    assert np.max(np.abs(stepped - truth)) <= 1e-12


def test_cbdr_interior_reduces_to_background_style_update():
    rng = np.random.default_rng(7)
    x, y, mask, b = make_instance(rng, 4, 12)
    z = 1e-3 * rng.standard_normal(16)  # spectrum well inside the ball
    root = b.root
    stepped = cbdr_step(z, root, y, mask)
    assert np.max(np.abs(stepped - project_background(z, y, mask))) <= 1e-12


def test_cbdr_fejer_monotone_to_fixed_point():
    rng = np.random.default_rng(8)
    x, y, mask, b = make_instance(rng, 4, 40)
    cfg = SolverConfig(method=Method.CBDR, max_iter=2000, eps=1e-13)
    root = b.root
    z = init_spectral(b, y, mask)
    for _ in range(cfg.max_iter):
        z_new = cbdr_step(z, root, y, mask)
        step_norm = np.linalg.norm(z_new - z)
        z = z_new
        if step_norm <= cfg.eps:
            break
    fixed = z
    z = init_spectral(b, y, mask)
    dist = np.linalg.norm(z - fixed)
    for _ in range(200):
        z = cbdr_step(z, root, y, mask)
        new_dist = np.linalg.norm(z - fixed)
        assert new_dist <= dist + 1e-9
        dist = new_dist


def test_run_from_truth_converges_immediately():
    rng = np.random.default_rng(9)
    for method in (Method.PGD, Method.BDR, Method.CBDR):
        x, y, mask, b = make_instance(rng, 5, 15)
        truth = assemble(x, y, mask)
        cfg = SolverConfig(method=method)
        result = run(b, y, mask, cfg, x_true=x, z0=truth)
        assert result.converged
        assert result.iterations_used == 1
        assert result.trace[-1, 0] <= 1e-10


def test_run_trace_shape_and_final_feasibility():
    rng = np.random.default_rng(10)
    x, y, mask, b = make_instance(rng, 8, 40)
    cfg = SolverConfig(method=Method.BDR, max_iter=200)
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
    cfg = SolverConfig(method=Method.BDR, max_iter=120)
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
            z = bdr_step(z, root, y, mask)
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
    cfg = SolverConfig(method=Method.CBDR, max_iter=150)
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
    from bgret.solvers import _iterate
    root = b.root
    plus_run = _iterate(b, y, mask, cfg,
                        lambda s, work: cbdr_step(s, root, y, mask, 1, work),
                        lambda z: project_magnitude_ball(z, root, 1), x_true=x)
    assert np.array_equal(winner.final_estimate, plus_run.final_estimate)
    again = cbdr_parallel_real(b, y, mask, cfg, x_true=x)
    assert np.array_equal(winner.final_estimate, again.final_estimate)


def test_hio_delta_full_support():
    mask = SupportMask.block((6,), (6,))
    delta = np.zeros(6)
    delta[0] = 2.0
    b = intensity(delta)
    result = hio_run(b, mask, SolverConfig(method=Method.HIO))
    assert result.converged
    assert np.max(np.abs(result.final_estimate - delta)) <= 1e-10


def test_hio_from_truth_is_fixed():
    rng = np.random.default_rng(18)
    x = rng.standard_normal(8)
    mask = SupportMask.block((16,), (8,))
    z = np.zeros(16)
    z[:8] = x
    b = intensity(z)
    result = hio_run(b, mask, SolverConfig(method=Method.HIO), x_true=x, z0=z)
    assert result.converged and result.iterations_used == 1


def test_hio_measurement_error_trend():
    rng = np.random.default_rng(19)
    x = np.abs(rng.standard_normal((8, 8))) + 0.5
    mask = SupportMask.block((12, 12), (8, 8))
    z = np.zeros((12, 12))
    z[:8, :8] = x
    b = intensity(z)
    result = hio_run(b, mask, SolverConfig(method=Method.HIO, max_iter=200),
                     x_true=x.reshape(-1))
    me = result.measurement_errors
    assert me[-1] < me[0]


def test_oversampled_theory_mode_runs():
    # m >= 2(n+k)-1: magnitude replacement is only approximate there, but the
    # pipeline must run end to end and PGD still recovers the sample
    rng = np.random.default_rng(21)
    n, k = 6, 18
    mask = SupportMask.block((n + k,), (n,))
    x = rng.standard_normal(n)
    y = rng.standard_normal(n + k)
    y[mask.inside] = 0.0
    b = intensity(assemble(x, y, mask), measurement_sizes=(2 * (n + k) - 1,))
    result = run(b, y, mask, SolverConfig(method=Method.PGD, max_iter=800), x_true=x)
    assert relative_error(result.final_estimate, x) < 1e-8
    bdr_result = run(b, y, mask, SolverConfig(method=Method.BDR, max_iter=200), x_true=x)
    assert bdr_result.trace[-1, 0] < bdr_result.trace[0, 0]


def test_divergence_guard(monkeypatch):
    rng = np.random.default_rng(22)
    x, y, mask, b = make_instance(rng, 4, 12)
    z0 = np.zeros(16)
    z0[5] = np.nan
    for method in (Method.PGD, Method.BDR, Method.CBDR):
        with pytest.raises(DivergenceError):
            run(b, y, mask, SolverConfig(method=method), z0=z0)
    with pytest.raises(DivergenceError):
        hio_run(b, mask, SolverConfig(method=Method.HIO), z0=z0)

    # a step that turns the iterate non-finite is caught by the step norm,
    # and run_trial reports it as an aborted row instead of raising
    from bgret import harness, solvers
    monkeypatch.setattr(solvers, "bdr_step", lambda z, *args: np.full_like(z, np.inf))
    spec = harness.TrialSpec(master_seed=1, cell_id=0, trial_index=0, method=Method.BDR,
                             sample_shape=(4,), background_sizes=(12,), max_iter=10)
    row = harness.run_trial(spec)
    assert row["aborted"] is True and row["iterations"] == 0
    assert row["relative_error"] == math.inf


def test_run_rejects_unknown_beta_lambda():
    rng = np.random.default_rng(20)
    x, y, mask, b = make_instance(rng, 4, 8)
    with pytest.raises(ValueError):
        bdr_step(np.zeros(12), b.root, y, mask, beta=0.0)
    with pytest.raises(ValueError):
        pgd_step(np.zeros(12), b.root, y, mask, lam=0.0)


def test_run_never_writes_inputs_or_aliases_results():
    rng = np.random.default_rng(23)
    x, y, mask, b = make_instance(rng, 6, 18)
    z0 = rng.standard_normal(mask.shape)
    kept = (z0.copy(), y.copy(), b.values.copy())
    for method in Method:
        cfg = SolverConfig(method=method, max_iter=40)
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
    for result in (project_magnitude(z, b.root),
                   project_magnitude_ball(z, b.root, dc_sign=1),
                   bdr_step(z, b.root, y, mask)):
        assert not np.shares_memory(result, z)
