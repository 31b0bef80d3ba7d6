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
        "a3ff2cb209d5c863ad0bde9659d2b36d13d22a913133228ea8d61f60a6f0b62d",
    ("1d", "bdr1"):
        "23114f301607bc884d4a6e8ee12214058f6f557ec0f0b43e0cf1648dac3d8628",
    ("1d", "cbdr"):
        "142e398af6ccc329dcad01772b3ade31bde092d1f4ccf47cbf9495c181c6f7b4",
    ("1d", "pgd"):
        "ec4bb03a3217425587f1b0e45192023ad46d8e1190002e25bcffb4a554150b47",
    ("1d", "hio"):
        "49fdf40dab2c62a84951a6cd4fa8ec1ae60a6111eaf8131c103225e2af0bd679",
    ("2d", "bdr"):
        "32278cfde1f1d108681cd236313a14abf7d7239be1a8e001f548cad1058a96df",
    ("2d", "bdr1"):
        "82b180fcdf0f9b837161b77f70c4582483217e2522418dae18ee4e44e51eb9eb",
    ("2d", "cbdr"):
        "9d062ac9ada77a9436f2a30fcaca0e1773a29614c44b78cd6d7995f8866c2a1c",
    ("2d", "pgd"):
        "9760d195ef6df89c8ecb98d13465dc94cba8202b878584485dae455e52bf8d04",
    ("2d", "hio"):
        "e0442cf4acd0b76aae49ed8debbe801849f69c368bec095b6d539939a624d440",
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
