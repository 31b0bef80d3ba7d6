"""Frozen digests of tiny solver runs, one per method and grid.

A digest covers the bytes of the final estimate and of the stride-1 trace,
the iteration count and the converged flag. The instances are trials of the
harness's own generators (``gen_signal`` and ``draw_instance``), so a move in
any solver output byte fails here, in the fast suite, rather than only in the
acceptance run. A change that moves them on purpose must say so and show the
acceptance lines before and after.
"""

import hashlib

import numpy as np
import pytest

from bgret import harness, solvers
from bgret.model import Method, SolverConfig, SupportMask
from bgret.rng import Xoshiro256StarStar, mix_seed

GRIDS = {
    # name: (object grid, sample shape, iteration cap)
    "1d": ((48,), (12,), 300),
    "2d": ((12, 12), (6, 6), 150),
}

METHODS = {"bdr": Method.BDR, "bdr1": Method.BDR1, "cbdr": Method.CBDR,
           "pgd": Method.PGD, "hio": Method.HIO}

DIGESTS = {
    ("1d", "bdr"):
        "ed518a773920a7d97ab0ef97c7ba68086cc2af132de91ab9dedc6593386381ac",
    ("1d", "bdr1"):
        "b23cdd47f46a3b2a038a2b0523858e7a0524286e2674cd2ae6565485b5dc1787",
    ("1d", "cbdr"):
        "c70a7ce2dff3a6545d28062613d1e110c04cbdeb3c150d419956c2f424f24117",
    ("1d", "pgd"):
        "b827f14e417e3fc422bd3b0b52245be498caf25bc1fe59cc3bd7ef89cb530371",
    ("1d", "hio"):
        "e5dedb2e0e9fe0f944f15a8757e4967215fd94971970b40546bce0540c5a9951",
    ("2d", "bdr"):
        "3289c7959531ad478d62d7f04fa35bc61a3093291b7de5f534925d4b83db5750",
    ("2d", "bdr1"):
        "da2f12215162ac1c2503b4fd670106ee9583cc85feaf61174f645f0feb93f223",
    ("2d", "cbdr"):
        "3b355ecb33a7cd309603c8466f7a4be1bac3811b744cb5a085d77c3c013e28df",
    ("2d", "pgd"):
        "19401c6b8374b22b12b3f1512b31b997985f04534e6faf8e2935322291555e60",
    ("2d", "hio"):
        "6fbf2ffe10a43f0f74019c8d4a09223281bea45c8e8fbe67ef73f62633db9903",
}


def run_digest(grid: str, method: str) -> str:
    shape, sample, max_iter = GRIDS[grid]
    mask = SupportMask.place(shape, sample)
    seed = mix_seed(11, len(shape))
    x = harness.gen_signal(harness.SIGNAL_GAUSSIAN, mask.sample_count,
                           rng=Xoshiro256StarStar(mix_seed(seed, harness.STREAM_SIGNAL)))
    y, b = harness.draw_instance(x, mask, seed, 0.0)
    config = SolverConfig(METHODS[method], eps=1e-9, max_iter=max_iter, trace_every=1)
    result = solvers.run(b, y, mask, config, x_true=x)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.final_estimate, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(result.trace, dtype="<f8").tobytes())
    h.update(f"{result.iterations_used},{result.converged}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("grid, method", sorted(DIGESTS))
def test_solver_run_digest(grid, method):
    assert run_digest(grid, method) == DIGESTS[grid, method]
