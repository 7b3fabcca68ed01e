"""Shared oracles: scalar, one-step-at-a-time versions of the vectorized code."""

import math
from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np

from primewalk import primes, walk
from primewalk.benford import BENFORD_EXPECTED, BenfordTable
from primewalk.grid import RecurrenceReport
from primewalk.primes import WALK_DIGITS, iter_walk_prime_arrays
from primewalk.runs import RunLengthObserver
from primewalk.walk import (
    A1,
    Direction,
    WalkObserver,
    WalkRule,
    WalkState,
    pack_xy,
    run_walk,
    unpack_key,
    unpack_keys,
)


def trial_division_primes(limit):
    """Independent oracle: all primes <= limit by trial division."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def walk_primes_oracle(limit):
    return [p for p in trial_division_primes(limit) if p not in (2, 5)]


class PrimeDigitEvent(NamedTuple):
    prime: int
    digit: int


@contextmanager
def sieve_segments(flags: int):
    """Within the `with` block the sieve's segments hold `flags` odd numbers;
    yields a spy whose `call_count` is the number of segments sieved.

    `_pooled` is a generator that reads the size on its first `next()`,
    so a stream must be consumed inside the block.  Plain patches, not the
    function-scoped `monkeypatch` fixture, so hypothesis tests can use it.
    """
    with mock.patch.object(primes, "SEGMENT_FLAGS", flags), \
            mock.patch.object(primes, "_walk_flags", wraps=primes._walk_flags) as spy:
        yield spy


@contextmanager
def sieve_pool(workers: int):
    """Within the `with` block a walk's stream and a count over a range of
    any span are sieved by `workers` forked workers, or with 0 (one usable
    CPU) at width 0, in the calling process.

    Like `sieve_segments`, a stream must be consumed inside the block.
    """
    with mock.patch.object(primes, "_usable_cpus", return_value=2 if workers else 1), \
            mock.patch.object(primes, "WALK_WORKERS", workers), \
            mock.patch.object(primes, "COUNT_WORKERS", workers), \
            mock.patch.object(primes, "POOL_MIN_SPAN", 0):
        yield


@contextmanager
def rw_pool(workers: int):
    """Within the `with` block `run_random_walk` draws its batches in one
    forked worker (`workers` = 1) however few steps are left, or with 0 (one
    usable CPU) at width 0, in the calling process."""
    with mock.patch.object(primes, "_usable_cpus", return_value=2 if workers else 1), \
            mock.patch.object(walk, "POOL_MIN_STEPS", 0):
        yield


@contextmanager
def rw_batches(n: int):
    """Within the `with` block `run_random_walk` takes batches of `n` steps;
    yields a spy on `RandomSource.block_at`, called once per batch."""
    source = walk.RandomSource
    with mock.patch.object(walk, "_RW_BATCH", n), \
            mock.patch.object(source, "block_at", wraps=source.block_at) as spy:
        yield spy


def iter_events(limit):
    """The engine's prime stream, one (prime, digit) event at a time."""
    for arr in iter_walk_prime_arrays(limit):
        for p in arr.tolist():
            yield PrimeDigitEvent(prime=p, digit=p % 10)


def step(state: WalkState, digit: int, rule: WalkRule) -> WalkState:
    """Scalar walk oracle: advance one event; returns the new state."""
    dx, dy = dict(rule.mapping)[digit].value
    return replace(state, x=state.x + dx, y=state.y + dy, steps_taken=state.steps_taken + 1)


class StepObserver(WalkObserver):
    """Adapter delivering one (prime, digit, old_pos, new_pos) call per step."""

    def on_step(self, prime, digit, old_pos, new_pos) -> None:
        raise NotImplementedError

    def observe(self, primes, digits, keys, key0):
        ps = primes.tolist() if primes is not None else [None] * len(keys)
        ds = digits.tolist() if digits is not None else [None] * len(keys)
        old = unpack_key(key0)
        for p, d, key in zip(ps, ds, keys.tolist()):
            new = unpack_key(key)
            self.on_step(p, d, old, new)
            old = new


class ScalarRandomSource:
    """Scalar SplitMix64 oracle in Python integers: the i-th uniform mixes seed + i * GAMMA."""

    def __init__(self, seed: int, index: int = 0):
        self.seed = seed
        self.index = index

    def next_float(self) -> float:
        self.index += 1
        z = (self.seed + self.index * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def uniform_block(seed: int, start: int, n: int) -> np.ndarray:
    """The README's uniforms r_i = (z_i >> 11) * 2^-53 for i = start, ..., start + n - 1,
    through the whole SplitMix64 mix; floor(r / 0.25) is each step's index."""
    i = np.arange(n, dtype=np.uint64) + np.uint64(start % (1 << 64))
    z = np.uint64(seed) + i * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0**-53


def pearson_direction(r: float) -> Direction:
    """Uniform r in [0, 1) -> one of the four directions via floor(r / 0.25)."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    return (Direction.DOWN, Direction.UP, Direction.RIGHT, Direction.LEFT)[int(r / 0.25)]


def leading_digit(n: int) -> int:
    """First decimal digit of a positive integer."""
    if n < 1:
        raise ValueError(f"leading digit needs a positive integer, got {n}")
    while n >= 10:
        n //= 10
    return n


def digit_counts(values) -> list:
    """How many of `values` have leading digit 1, ..., 9."""
    counts = [0] * 9
    for v in values:
        counts[leading_digit(int(v)) - 1] += 1
    return counts


def value_benford_table(values) -> BenfordTable:
    """Benford table of a population of positive integers, digit by digit."""
    counts = np.array(digit_counts(values), dtype=np.float64)
    n = int(counts.sum())
    if n == 0:
        raise ValueError("benford table needs a non-empty population")
    observed = counts / n
    expected_counts = n * BENFORD_EXPECTED
    return BenfordTable(
        observed=observed,
        expected=BENFORD_EXPECTED.copy(),
        sample_size=n,
        max_abs_dev=float(np.abs(observed - BENFORD_EXPECTED).max()),
        chi_square=float(((counts - expected_counts) ** 2 / expected_counts).sum()),
    )


def cells(vmap) -> tuple[np.ndarray, np.ndarray]:
    """(keys, counts) of every occupied cell of a visit map (or its oracle), in
    packed-key order: its streamed `_cell_chunks()` joined into two arrays."""
    keys, counts = [np.empty(0, np.uint64)], [np.empty(0, np.int64)]
    for k, c in vmap._cell_chunks():
        keys.append(k)
        counts.append(c)
    return np.concatenate(keys), np.concatenate(counts)


def items(vmap) -> list:
    """(x, y, count) of every occupied cell of a visit map (or its oracle), in
    packed-key order, read through `cells()`."""
    keys, counts = cells(vmap)
    return [(*unpack_key(k), c) for k, c in zip(keys.tolist(), counts.tolist())]


def z_values(vmap) -> np.ndarray:
    """Every positive visit count of a visit map (or its oracle), in packed-key order."""
    return cells(vmap)[1]


def recurrence_oracle(vmap) -> RecurrenceReport:
    """recurrence_report from the whole (keys, counts) of a map's cells."""
    keys, counts = cells(vmap)
    zmax = int(counts.max())
    top = [unpack_key(k) for k in keys[counts == zmax].tolist()]
    bx, by = min(top, key=lambda c: (c[0] * c[0] + c[1] * c[1], c[0], c[1]))
    xs, ys = unpack_keys(keys)
    sx, sy = np.sign(xs), np.sign(ys)

    def tally(x_sign, y_sign):
        return int(np.count_nonzero((sx == x_sign) & (sy == y_sign)))

    return RecurrenceReport(
        argmax_x=bx,
        argmax_y=by,
        z_max=zmax,
        dist_argmax=float(np.hypot(bx, by)),
        quadrant_counts=(tally(1, 1), tally(-1, 1), tally(-1, -1), tally(1, -1)),
        axis_counts=(tally(1, 0) + tally(-1, 0), tally(0, 1) + tally(0, -1)),
    )


def record_step(vmap, x: int, y: int) -> None:
    """Record one arrival at (x, y) in a VisitMap."""
    vmap.record_keys(np.array([pack_xy(x, y)], dtype=np.uint64))


class SortedVisitMap:
    """Visit-map oracle: parallel sorted key/count arrays, merged per batch."""

    def __init__(self):
        self._keys = np.empty(0, dtype=np.uint64)
        self._counts = np.empty(0, dtype=np.int64)
        self._total = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def total_visits(self) -> int:
        return self._total

    @property
    def area(self) -> int:
        return len(self._keys) + (0 if self._index(pack_xy(0, 0)) is not None else 1)

    def _index(self, key: int):
        i = int(np.searchsorted(self._keys, np.uint64(key)))
        if i < len(self._keys) and self._keys[i] == np.uint64(key):
            return i
        return None

    def count_at(self, x: int, y: int) -> int:
        i = self._index(pack_xy(x, y))
        return 0 if i is None else int(self._counts[i])

    def record_keys(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        uniq, cnt = np.unique(keys, return_counts=True)
        pos = np.searchsorted(self._keys, uniq)
        hit = np.zeros(len(uniq), dtype=bool)
        inside = pos < len(self._keys)
        hit[inside] = self._keys[pos[inside]] == uniq[inside]
        self._counts[pos[hit]] += cnt[hit]
        new = ~hit
        self._keys = np.insert(self._keys, pos[new], uniq[new])
        self._counts = np.insert(self._counts, pos[new], cnt[new])
        self._total += int(cnt.sum())

    def items(self):
        for key, c in zip(self._keys.tolist(), self._counts.tolist()):
            yield (*unpack_key(key), c)

    def _cell_chunks(self):
        yield self._keys.copy(), self._counts.copy()


class ScalarRuns:
    """Run-length oracle fed one digit at a time; finalize commits the open run."""

    def __init__(self):
        self.counts = {}
        self.digit = None
        self.length = 0

    def _commit(self):
        key = (self.digit, self.length)
        self.counts[key] = self.counts.get(key, 0) + 1

    def feed(self, digit: int) -> None:
        if digit not in WALK_DIGITS:
            raise ValueError(f"digit must be one of {WALK_DIGITS}, got {digit}")
        if digit == self.digit:
            self.length += 1
            return
        if self.digit is not None:
            self._commit()
        self.digit, self.length = digit, 1

    def finalize(self) -> dict:
        if self.digit is not None:
            self._commit()
            self.digit, self.length = None, 0
        return self.counts


def walk_run_counts(limit: int) -> dict:
    """Run-length counts of the walk primes up to `limit`, as the CLI builds them."""
    obs = RunLengthObserver()
    run_walk(limit, A1, [obs])
    return obs.finalized_counts()


class PathRecorder(WalkObserver):
    """Keeps the whole trajectory, origin first, as a list of (x, y)."""

    def __init__(self):
        self.path = [(0, 0)]

    def observe(self, primes, digits, keys, key0):
        self.path.extend(unpack_key(key) for key in keys.tolist())


def to_polar(x: int, y: int) -> tuple[float, float]:
    """(radius, angle) of a lattice position; angle in (-pi, pi]."""
    if x == 0 and y == 0:
        raise ValueError("angle undefined at the origin")
    phi = math.atan2(y, x)
    if phi <= -math.pi:
        phi = math.pi
    return math.hypot(x, y), phi


class DeltaCloud(NamedTuple):
    steps: np.ndarray
    d_r: np.ndarray
    d_phi: np.ndarray
    skipped: int

    def __len__(self):
        return len(self.steps)


def wrap(d: float) -> float:
    """One raw angle difference of two (-pi, pi] angles, wrapped into (-pi, pi]."""
    if d > math.pi:
        return d - 2.0 * math.pi
    if d <= -math.pi:
        return d + 2.0 * math.pi
    return d


def delta_series(positions) -> DeltaCloud:
    """Post-hoc polar increments of a whole trajectory (iterable of (x, y)).

    Step i pairs positions i-1 and i; pairs touching the origin are skipped.
    """
    pts = np.asarray(list(positions), dtype=np.int64).reshape(-1, 2)
    xs, ys = pts[:, 0], pts[:, 1]
    r = np.hypot(xs, ys)
    phi = np.arctan2(ys, xs)
    keep = (r[:-1] > 0) & (r[1:] > 0)
    return DeltaCloud(
        steps=np.flatnonzero(keep) + 1,
        d_r=np.diff(r)[keep],
        d_phi=np.array([wrap(d) for d in np.diff(phi)[keep].tolist()], dtype=np.float64),
        skipped=int(len(keep) - keep.sum()),
    )
