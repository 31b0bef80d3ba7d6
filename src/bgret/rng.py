"""Reproducible randomness for experiment trials.

Trial streams must be portable across implementations, so the harness does not
rely on a library generator. Three documented pieces:

splitmix64 scramble
    scramble(z): z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
                 z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
                 return z ^ (z >> 31)           (all mod 2^64)

seed mixing
    mix_seed(p_0, ..., p_r): h = 0; for each part:
        h = scramble(((h + 0x9E3779B97F4A7C15) mod 2^64) XOR part)
    Per-trial seeds are mix_seed(master_seed, cell_index, trial_index) and
    substreams hang off the trial seed as mix_seed(trial_seed, stream_index).

xoshiro256** + Box-Muller
    State seeded with four successive splitmix64 outputs of the seed.
    next(): r = rotl64(s1 * 5, 7) * 9; t = s1 << 17; s2 ^= s0; s3 ^= s1;
            s1 ^= s2; s0 ^= s3; s2 ^= t; s3 = rotl64(s3, 45); return r.
    uniform: u = (next() >> 11) * 2^-53 in [0, 1).
    normals come in Box-Muller pairs from consecutive outputs x1, x2:
        u1 = ((x1 >> 11) + 1) * 2^-53 in (0, 1], u2 = (x2 >> 11) * 2^-53,
        z0 = sqrt(-2 ln u1) cos(2 pi u2), z1 = sqrt(-2 ln u1) sin(2 pi u2);
    emitted in order z0, z1; an odd request drops the trailing z1.

Test vectors live in tests/test_rng.py and the README, and the one-step
scalar update is the tests' reference.

Evaluation in jump-ahead lanes
    `uniform` and `normal` return the same doubles, and leave the same
    state, as stepping next() one output at a time, but a request for N
    outputs splits the stream into L = ceil(N / S) runs of S =
    2^round(log2(N) / 2) outputs, seeds lane i with the state i*S steps
    ahead, steps all lanes together in numpy uint64 arithmetic and reads
    their outputs back in stream order. The state step is linear over
    GF(2), a 256x256 bit matrix T: lanes [2^p, 2^(p+1)) are lanes [0, 2^p)
    moved on by T^(S 2^p), the XOR of the matrix columns a state's set bits
    pick. The jump tables T^(2^j) are built by squaring on first use and
    kept for the life of the process, 8 KB a level.

    Box-Muller keeps math.log, math.cos and math.sin, mapped over chunks of
    4096 pairs: numpy's log and cos round a small fraction of values
    differently.
"""

from __future__ import annotations

import math

import numpy as np

from .model import require_count

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def check_seed(seed: int) -> int:
    """A master seed lies in 0..2^64-1: mixing would run 2^64 as seed 0."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must lie in 0..2^64-1, got {seed}")
    return seed


_TWO53_INV = 2.0 ** -53
_TWO_PI = 2.0 * math.pi
#: Box-Muller pairs converted through Python floats at a time.
_CHUNK = 4096
#: Lane states moved per jump product (a 64 KB selection).
_JUMP_ROWS = 8


def scramble64(z: int) -> int:
    """splitmix64 output scrambler."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First `count` outputs of splitmix64 seeded at `seed`."""
    state = int(seed) & MASK64
    out = []
    for _ in range(count):
        state = (state + GOLDEN) & MASK64
        out.append(scramble64(state))
    return out


def mix_seed(*parts: int) -> int:
    """Collapse any number of 64-bit parts into one seed (see module docs)."""
    if not parts:
        raise ValueError("mix_seed needs at least one part")
    h = 0
    for p in parts:
        h = scramble64(((h + GOLDEN) & MASK64) ^ (int(p) & MASK64))
    return h


# -- jump-ahead lanes ----------------------------------------------------------

def _step_lanes(s: np.ndarray, t: np.ndarray) -> None:
    """One xoshiro256** state step, in place, of every column of the (4, L)
    uint64 state array s; t is an (L,) scratch row."""
    np.left_shift(s[1], 17, out=t)
    s[2:] ^= s[:2]        # s2 ^= s0; s3 ^= s1
    s[:2] ^= s[3:1:-1]    # s0 ^= s3; s1 ^= s2
    s[2] ^= t
    np.right_shift(s[3], 19, out=t)
    s[3] <<= 45
    s[3] |= t


def _jump(states: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Apply the GF(2) matrix `table` to each row of the (R, 4) uint64
    states: the XOR of the table columns picked by the state's bits. Rows go
    _JUMP_ROWS at a time, so the (rows, 4, 256) selection stays small."""
    out = np.empty((len(states), 4), dtype=np.uint64)
    for lo in range(0, len(states), _JUMP_ROWS):
        rows = np.ascontiguousarray(states[lo:lo + _JUMP_ROWS], dtype="<u8")
        bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little").view(bool)
        picked = np.where(bits[:, None, :], table, np.uint64(0))
        np.bitwise_xor.reduce(picked, axis=2, out=out[lo:lo + _JUMP_ROWS])
    return out


#: _JUMPS[j] is T^(2^j) as a (4, 256) uint64 array: column 64*w + b is the
#: state that bit b of word w steps to.
_JUMPS: list[np.ndarray] = []


def _jump_table(level: int) -> np.ndarray:
    if not _JUMPS:
        basis = np.zeros((4, 256), dtype=np.uint64)
        for i in range(256):
            basis[i // 64, i] = 1 << (i % 64)
        _step_lanes(basis, np.empty(256, dtype=np.uint64))
        _JUMPS.append(basis)
    while len(_JUMPS) <= level:
        _JUMPS.append(np.ascontiguousarray(_jump(_JUMPS[-1].T, _JUMPS[-1]).T))
    return _JUMPS[level]


def _scramble_lanes(s1: np.ndarray) -> np.ndarray:
    """The ** output function rotl(s1 * 5, 7) * 9, in place."""
    s1 *= 5
    high = s1 >> 57
    s1 <<= 7
    s1 |= high
    s1 *= 9
    return s1


class Xoshiro256StarStar:
    """xoshiro256** generator with Box-Muller normal variates; uniform and
    normal evaluate the stream in jump-ahead lanes (see module docs)."""

    def __init__(self, seed: int):
        # never all zero: the states seed + i * GOLDEN are distinct (GOLDEN is
        # odd) and scramble64 is a bijection, so at most one output is 0
        self._s = splitmix64_stream(seed, 4)

    def _block(self, count: int) -> np.ndarray:
        """The next `count` outputs of next() as uint64, in stream order,
        computed in jump-ahead lanes (see module docs)."""
        require_count("count", count, 0)
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        level = round(math.log2(count) / 2)
        run = 1 << level
        lanes = -(-count // run)
        start = np.empty((lanes, 4), dtype=np.uint64)
        start[0] = self._s
        seeded = 1
        while seeded < lanes:
            grow = min(seeded, lanes - seeded)
            start[seeded:seeded + grow] = _jump(start[:grow], _jump_table(level))
            seeded += grow
            level += 1
        s = np.ascontiguousarray(start.T)
        t = np.empty(lanes, dtype=np.uint64)
        hist = np.empty((lanes, run), dtype=np.uint64)  # row-major = stream order
        last = count - (lanes - 1) * run  # steps the last lane owes the stream
        for i in range(run):
            hist[:, i] = s[1]
            _step_lanes(s, t)
            if i + 1 == last:
                self._s = [int(v) for v in s[:, -1]]
        return _scramble_lanes(hist).reshape(-1)[:count]

    def uniform(self, count: int) -> np.ndarray:
        """count doubles in [0, 1) with 53-bit resolution."""
        x = self._block(count)
        x >>= 11
        u = x.astype(np.float64)
        u *= _TWO53_INV
        return u

    def normal(self, count: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        require_count("count", count, 0)
        pairs = -(-count // 2)
        x = self._block(2 * pairs)
        x >>= 11
        out = np.empty(2 * pairs)
        for lo in range(0, 2 * pairs, 2 * _CHUNK):
            hi = min(lo + 2 * _CHUNK, 2 * pairs)
            u1 = x[lo:hi:2].astype(np.float64)
            u1 += 1.0
            u1 *= _TWO53_INV
            theta = x[lo + 1:hi:2].astype(np.float64)
            theta *= _TWO53_INV
            theta *= _TWO_PI
            r = np.fromiter(map(math.log, u1.tolist()), np.float64, len(u1))
            r *= -2.0
            np.sqrt(r, out=r)
            angles = theta.tolist()
            out[lo:hi:2] = r * np.fromiter(map(math.cos, angles), np.float64, len(angles))
            out[lo + 1:hi:2] = r * np.fromiter(map(math.sin, angles), np.float64, len(angles))
        out *= sigma
        out += mu
        return out[:count]
