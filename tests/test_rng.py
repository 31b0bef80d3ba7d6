import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgret.rng import (GOLDEN, MASK64, Xoshiro256StarStar, mix_seed, scramble64,
                       splitmix64_stream)

# Frozen vectors for cross-implementation checks (also quoted in the README).
SPLITMIX_SEED0 = [16294208416658607535, 7960286522194355700,
                  487617019471545679, 17909611376780542444]
SPLITMIX_SEED42 = [13679457532755275413, 2949826092126892291,
                   5139283748462763858, 6349198060258255764]
XOSHIRO_SEED42_U64 = [1546998764402558742, 6990951692964543102,
                      12544586762248559009, 17057574109182124193,
                      18295552978065317476]
MIX_VECTORS = {
    (0,): 16294208416658607535,
    (7, 0, 0): 10275061527185154367,
    (7, 0, 1): 248402473198719689,
    (7, 1, 0): 13065162139278688457,
}

_TWO53_INV = 2.0 ** -53


# The per-output definitions of the module docstring, one next_u64 at a time:
# the reference the lane evaluation inside uniform/normal must reproduce.

def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & MASK64


def next_u64(g: Xoshiro256StarStar) -> int:
    """One scalar xoshiro256** step of g's state: the module docstring's next()."""
    s0, s1, s2, s3 = g._s
    result = (_rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
    t = (s1 << 17) & MASK64
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3 = _rotl(s3, 45)
    g._s = [s0, s1, s2, s3]
    return result


def ref_uniform(g: Xoshiro256StarStar, count: int) -> np.ndarray:
    return np.array([(next_u64(g) >> 11) * _TWO53_INV for _ in range(count)])


def ref_normal(g: Xoshiro256StarStar, count: int, mu: float = 0.0,
               sigma: float = 1.0) -> np.ndarray:
    out = np.empty(count)
    i = 0
    while i < count:
        u1 = ((next_u64(g) >> 11) + 1) * _TWO53_INV
        u2 = (next_u64(g) >> 11) * _TWO53_INV
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        out[i] = r * math.cos(theta)
        if i + 1 < count:
            out[i + 1] = r * math.sin(theta)
        i += 2
    return mu + sigma * out


def draw(g: Xoshiro256StarStar, call: tuple, reference: bool) -> np.ndarray:
    kind, count, mu, sigma = call
    if kind == "uniform":
        return ref_uniform(g, count) if reference else g.uniform(count)
    return ref_normal(g, count, mu, sigma) if reference else g.normal(count, mu, sigma)


def assert_same_stream(seed: int, calls: list) -> None:
    lanes, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    for call in calls:
        got, want = draw(lanes, call, False), draw(scalar, call, True)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), call
    assert lanes._s == scalar._s
    assert next_u64(lanes) == next_u64(scalar)


def test_splitmix64_stream_vectors():
    assert splitmix64_stream(0, 4) == SPLITMIX_SEED0
    assert splitmix64_stream(42, 4) == SPLITMIX_SEED42


def test_xoshiro_u64_vectors():
    g = Xoshiro256StarStar(42)
    assert [next_u64(g) for _ in range(5)] == XOSHIRO_SEED42_U64


def test_mix_seed_vectors_and_distinctness():
    for parts, expected in MIX_VECTORS.items():
        assert mix_seed(*parts) == expected
    seen = {mix_seed(7, c, t) for c in range(20) for t in range(50)}
    assert len(seen) == 1000  # no collisions across a small grid
    with pytest.raises(ValueError):
        mix_seed()


def test_outputs_fit_in_64_bits():
    g = Xoshiro256StarStar(123)
    for _ in range(100):
        v = next_u64(g)
        assert 0 <= v <= MASK64
    assert 0 <= scramble64(GOLDEN) <= MASK64


def test_uniform_range_and_determinism():
    a = Xoshiro256StarStar(9).uniform(500)
    b = Xoshiro256StarStar(9).uniform(500)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 1.0))


def test_normal_pairs_and_odd_request():
    g = Xoshiro256StarStar(5)
    four = g.normal(4)
    g = Xoshiro256StarStar(5)
    three = g.normal(3)
    assert np.array_equal(four[:3], three)


def test_normal_moments():
    draws = Xoshiro256StarStar(2024).normal(60_000)
    assert abs(float(np.mean(draws))) < 4.0 / math.sqrt(60_000)
    assert abs(float(np.std(draws)) - 1.0) < 0.02
    shifted = Xoshiro256StarStar(2024).normal(10_000, mu=3.0, sigma=0.5)
    assert abs(float(np.mean(shifted)) - 3.0) < 0.03
    assert abs(float(np.std(shifted)) - 0.5) < 0.02


def test_streams_decorrelated():
    a = Xoshiro256StarStar(mix_seed(1, 0)).normal(2000)
    b = Xoshiro256StarStar(mix_seed(1, 1)).normal(2000)
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.08


CALLS = st.tuples(st.sampled_from(["uniform", "normal"]),
                  st.integers(0, 5000),
                  st.floats(-10.0, 10.0),
                  st.floats(1e-3, 10.0))


@settings(max_examples=40, deadline=None)
@given(seed=st.one_of(st.just(0), st.just(MASK64), st.integers(0, MASK64)),
       calls=st.lists(CALLS, min_size=1, max_size=4))
def test_lanes_match_scalar_reference(seed, calls):
    assert_same_stream(seed, calls)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 63, 64, 65, 255, 256, 257])
def test_lanes_match_scalar_reference_at_lane_boundaries(count):
    # counts around a lane run S = 2^a and around a full lane set
    assert_same_stream(11, [("uniform", count, 0.0, 1.0), ("normal", count, 0.0, 1.0),
                            ("normal", count + 1, -1.5, 3.0)])


@pytest.mark.parametrize("count", [65_536, 131_071])
def test_lanes_match_scalar_reference_at_2d_sizes(count):
    # one 256x256 background or noise draw, and an odd count one short of two
    assert_same_stream(mix_seed(7, 0, 0), [("normal", count, 0.0, 1.0),
                                           ("uniform", 3, 0.0, 1.0)])


def test_negative_count_rejected():
    g = Xoshiro256StarStar(1)
    with pytest.raises(ValueError):
        g.normal(-1)
    with pytest.raises(ValueError):
        g.uniform(-1)
