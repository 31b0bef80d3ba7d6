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
        "df534619764a98090ca1113065ed1149a503053b46d921360ed5bc43383a575e",
    ("1d", "bdr1"):
        "f3df76f6aaad46fff238de475906d050243378053c0bb90f1420d20dd2551cbd",
    ("1d", "cbdr"):
        "db024f5fb4794c998d318510c545771b99bf73b42fd332e15a6d5850ac768f2d",
    ("1d", "pgd"):
        "c9ee787d994e3e7f6ac4f7a4295389ec8c25634b50780652eb289446e5292f80",
    ("1d", "hio"):
        "b13806ded1b5c2d2f453185b8eccd0b35959957555c70750db16685c26d48439",
    ("2d", "bdr"):
        "d067608004ee465495002b3c15ae81d37451974a7115bef6243cb526de536ee9",
    ("2d", "bdr1"):
        "4b75278e665bdb24140c995e3388c59190740e879c045255cda510c500b6ca91",
    ("2d", "cbdr"):
        "c14672db69f966f392545f05d1d96cff6c8e19cdb222b2aa6103e99465553366",
    ("2d", "pgd"):
        "93972e9d95fb7befa2d3e192b3db11cb785e8da42a6eafceb1a282965019f59f",
    ("2d", "hio"):
        "8b3f81a456f179c3d1843bb824b316063c27585b2cfd9d8dd70ca50ea71e6797",
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
