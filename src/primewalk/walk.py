"""Lattice walk engine: prime-digit driven rules and the random baseline.

A walk starts at the origin and takes one unit step per event.  The three
digit rules map the four terminal digits {1, 3, 7, 9} onto the four lattice
directions; the random baseline steps as rule A1 on digits drawn uniformly
from a seeded deterministic generator.  Both kinds run through one
`WalkSession`, and observers are notified in batches (numpy arrays) so
large runs stay vectorized.

Positions travel as packed 64-bit cell keys, ((x + 2^31) << 32) | (y + 2^31),
so both coordinates must stay in [-2^31, 2^31); the engine refuses a batch
that would leave that range.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .primes import WALK_DIGITS, iter_walk_prime_arrays


class Direction(Enum):
    UP = (0, 1)
    DOWN = (0, -1)
    RIGHT = (1, 0)
    LEFT = (-1, 0)


@dataclass(frozen=True)
class WalkRule:
    """Bijection from terminal digits onto lattice directions."""

    name: str
    mapping: tuple[tuple[int, Direction], ...]

    def __post_init__(self):
        digits = [d for d, _ in self.mapping]
        dirs = [v for _, v in self.mapping]
        if sorted(digits) != list(WALK_DIGITS) or len(set(dirs)) != 4:
            raise ValueError(f"rule {self.name!r} is not a digit->direction bijection")

    def delta_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """dx/dy lookup tables indexed by digit (0..9)."""
        dx = np.zeros(10, dtype=np.int64)
        dy = np.zeros(10, dtype=np.int64)
        for d, v in self.mapping:
            dx[d], dy[d] = v.value
        return dx, dy


A1 = WalkRule(
    "A1",
    ((1, Direction.DOWN), (3, Direction.UP), (7, Direction.RIGHT), (9, Direction.LEFT)),
)
A2 = WalkRule(
    "A2",
    ((1, Direction.RIGHT), (3, Direction.UP), (7, Direction.DOWN), (9, Direction.LEFT)),
)
A3 = WalkRule(
    "A3",
    ((1, Direction.LEFT), (3, Direction.UP), (7, Direction.RIGHT), (9, Direction.DOWN)),
)

RULES = {"a1": A1, "a2": A2, "a3": A3}


# --- packed cell keys --------------------------------------------------------

_OFFSET = 1 << 31
_SHIFT = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)


def _check_range(name: str, lo: int, hi: int) -> None:
    if lo < -_OFFSET or hi >= _OFFSET:
        bad = lo if lo < -_OFFSET else hi
        raise ValueError(f"{name} coordinate {bad} outside packable [-2^31, 2^31)")


def pack_xy(x: int, y: int) -> int:
    _check_range("x", x, x)
    _check_range("y", y, y)
    return ((x + _OFFSET) << 32) | (y + _OFFSET)


def unpack_key(key: int) -> tuple[int, int]:
    return (int(key) >> 32) - _OFFSET, (int(key) & 0xFFFFFFFF) - _OFFSET


def unpack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 (xs, ys) of an array of packed keys."""
    xs = (keys >> _SHIFT).astype(np.int64) - _OFFSET
    ys = (keys & _LOW).astype(np.int64) - _OFFSET
    return xs, ys


@dataclass(frozen=True)
class WalkState:
    """Position after `steps_taken` steps, having scanned every N <= last_n."""

    x: int = 0
    y: int = 0
    steps_taken: int = 0
    last_n: int = 0


class WalkObserver:
    """Batch observer; subclass and override `observe`.

    `primes` (int64) and `digits` (uint8) are None for the random baseline
    (there is no driving integer); `keys` (uint64) holds the packed position
    after each step of the batch and the int `key0` the packed position
    before it.  `unpack_key`/`unpack_keys` turn them back into coordinates.
    The arrays are valid only during `observe`: the engine may reuse their
    memory for the next batch, so an observer copies what it keeps.
    """

    def observe(
        self,
        primes: np.ndarray | None,
        digits: np.ndarray | None,
        keys: np.ndarray,
        key0: int,
    ) -> None:
        raise NotImplementedError

    def finish(self, last_n: int, steps_taken: int) -> None:
        pass


class WalkSession:
    """Executes a rule-driven walk batch by batch: the prime walk `feed`s its
    primes, the random baseline `step`s on digits of its own."""

    def __init__(
        self,
        rule: WalkRule,
        observers: Sequence[WalkObserver] = (),
        state: WalkState | None = None,
    ):
        self.rule = rule
        self.observers = list(observers)
        self.state = state or WalkState()
        self._dx, self._dy = rule.delta_tables()
        # unsigned wrap makes each partial sum of packed steps the packed position
        self._dk = (self._dx.astype(np.uint64) << _SHIFT) + self._dy.astype(np.uint64)
        self._digits = self._keys = None  # per-batch buffers, grown to the largest batch

    def _grow(self, n: int) -> None:
        if self._keys is None or n > len(self._keys):
            self._digits, self._keys = np.empty(n, np.uint8), np.empty(n, np.uint64)

    def feed(self, primes: np.ndarray) -> None:
        """Take one step per prime, on its last digit."""
        n = len(primes)
        self._grow(n)
        # p - 10 * (p // 10): numpy divides by a constant faster than it takes remainders
        tens = np.floor_divide(primes, 10, out=self._keys[:n].view(np.int64))
        tens *= 10
        self.step(np.subtract(primes, tens, out=self._digits[:n], casting="unsafe"), primes)

    def step(self, digits: np.ndarray, primes: np.ndarray | None = None) -> None:
        """Take one batch of steps; step i moves as the rule moves on digits[i].

        The scanned N is primes[-1], or without primes the step count.  A
        batch that would leave the packable range raises ValueError before
        any observer sees it.
        """
        st, n = self.state, len(digits)
        if n == 0:
            return
        if max(abs(st.x), abs(st.y)) + n >= _OFFSET:
            # near the edge a borrow out of y would silently move x: scan exactly
            for name, d, c0 in (("x", self._dx, st.x), ("y", self._dy, st.y)):
                c = c0 + np.cumsum(d[digits])
                _check_range(name, int(c.min()), int(c.max()))
        self._grow(n)
        key0 = pack_xy(st.x, st.y)
        # digits < len(dk) by construction; mode="raise" would copy `out` first
        keys = np.take(self._dk, digits, out=self._keys[:n], mode="wrap")
        np.cumsum(keys, out=keys)
        keys += np.uint64(key0)
        for obs in self.observers:
            obs.observe(primes, None if primes is None else digits, keys, key0)
        steps = st.steps_taken + n
        last_n = steps if primes is None else int(primes[-1])
        self.state = WalkState(*unpack_key(keys[-1]), steps, last_n)

    def finish(self, last_n: int) -> WalkState:
        self._digits = self._keys = None
        self.state = replace(self.state, last_n=max(self.state.last_n, last_n))
        for obs in self.observers:
            obs.finish(self.state.last_n, self.state.steps_taken)
        return self.state


def run_walk(
    limit: int,
    rule: WalkRule,
    observers: Sequence[WalkObserver] = (),
    *,
    state: WalkState | None = None,
) -> WalkState:
    """Walk every prime in (state.last_n, limit]; returns the final state."""
    session = WalkSession(rule, observers, state=state)
    start = session.state.last_n + 1
    for batch in iter_walk_prime_arrays(limit, start=start):
        session.feed(batch)
    return session.finish(max(limit, 0))


# --- random baseline ---------------------------------------------------------

_GAMMA = 0x9E3779B97F4A7C15
# Every operand of the generator is an np.uint64, and the per-batch offset is
# reduced mod 2^64 in Python first: numpy 1.24's value-based promotion and
# NEP 50 (numpy 2) then compute the same words, and no Python int >= 2^64
# ever reaches numpy.
_ROUNDS = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
)
_TOP_TWO = np.uint64(62)


class RandomSource:
    """SplitMix64 stream of step indices in 0..3.

    The i-th output z_i (i >= 1) mixes seed + i * GAMMA, so any block of the
    sequence can be regenerated from (seed, index) alone.  Step i's index is
    the top two bits of z_i, which equals floor(r_i / 0.25) for the uniform
    r_i = (z_i >> 11) * 2^-53; no float is formed.  The mix's last round,
    z ^ (z >> 31), leaves the top 31 bits as they are, so it is skipped.
    Identical on every platform.
    """

    @staticmethod
    def workspace(size: int) -> np.ndarray:
        """uint64 work rows for blocks of up to `size`: arange(size) * GAMMA, two scratch."""
        work = np.empty((3, size), np.uint64)
        np.multiply(np.arange(size, dtype=np.uint64), np.uint64(_GAMMA), out=work[0])
        return work

    @staticmethod
    def block_at(seed: int, start_index: int, n: int, *, out: np.ndarray) -> np.ndarray:
        """int64 step indices of outputs start_index, ..., start_index + n - 1.

        `out` is a `workspace(m)` with m >= n, reused across blocks; the
        indices are a view into it, valid until its next block.
        """
        if out.shape[1] < n:
            raise ValueError(f"workspace of {out.shape[1]} too small for a block of {n}")
        base, z, t = out[:, :n]
        np.add(base, np.uint64((seed + start_index * _GAMMA) % (1 << 64)), out=z)
        for shift, mult in _ROUNDS:
            z ^= np.right_shift(z, shift, out=t)
            z *= mult
        z >>= _TOP_TWO
        return z.view(np.int64)


# index i moves as rule A1 moves on the digit WALK_DIGITS[i]
_RW_DIGITS = np.array(WALK_DIGITS, dtype=np.uint8)
_RW_BATCH = 1 << 16


def run_random_walk(
    steps: int,
    seed: int,
    observers: Sequence[WalkObserver] = (),
    *,
    state: WalkState | None = None,
) -> WalkState:
    """Execute `steps` uniform four-direction moves from the seeded source.

    Step i moves as rule A1 moves on digit WALK_DIGITS[k_i] for the i-th
    step index k_i of `RandomSource` (floor(r_i / 0.25) of its uniform), so
    resuming from `state` continues the generator at index
    state.steps_taken + 1 and replays the exact tail of the uninterrupted
    sequence.  `seed` must lie in [0, 2^64); a batch holding an index
    outside 0..3 raises ValueError.  The generator's buffers are sized to
    the first batch, the largest, and reused for every batch.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    session = WalkSession(A1, observers, state=state)
    size = min(_RW_BATCH, max(steps - session.state.steps_taken, 0))
    work, digits = RandomSource.workspace(size), np.empty(size, np.uint8)
    while (taken := session.state.steps_taken) < steps:
        n = min(_RW_BATCH, steps - taken)
        index = RandomSource.block_at(seed, taken + 1, n, out=work)
        # one reduction guards a replaced source (negatives view above 3);
        # mode="raise" would copy `out` first
        if index.view(np.uint64).max() > 3:
            raise ValueError("random source produced a step index outside 0..3")
        session.step(np.take(_RW_DIGITS, index, out=digits[:n], mode="wrap"))
    del work, digits  # the observers finish without them
    return session.finish(steps)
