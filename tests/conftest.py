"""Shared oracles: scalar, one-step-at-a-time versions of the vectorized code."""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from primewalk.grid import pack_xy
from primewalk.primes import DEFAULT_SEGMENT_FLAGS, WALK_DIGITS, iter_walk_prime_arrays
from primewalk.walk import PEARSON_DIRECTIONS, Direction, WalkObserver, WalkRule, WalkState


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


def iter_events(limit, *, segment_flags=DEFAULT_SEGMENT_FLAGS):
    """The engine's prime stream, one (prime, digit) event at a time."""
    for arr in iter_walk_prime_arrays(limit, segment_flags=segment_flags):
        for p in arr.tolist():
            yield PrimeDigitEvent(prime=p, digit=p % 10)


def step(state: WalkState, digit: int, rule: WalkRule) -> WalkState:
    """Scalar walk oracle: advance one event; returns the new state."""
    dx, dy = rule.direction(digit).delta
    return replace(state, x=state.x + dx, y=state.y + dy, steps_taken=state.steps_taken + 1)


class StepObserver(WalkObserver):
    """Adapter delivering one (prime, digit, old_pos, new_pos) call per step."""

    def on_step(self, prime, digit, old_pos, new_pos) -> None:
        raise NotImplementedError

    def observe(self, primes, digits, xs, ys, x0, y0):
        ps = primes.tolist() if primes is not None else [None] * len(xs)
        ds = digits.tolist() if digits is not None else [None] * len(xs)
        old = (x0, y0)
        for p, d, x, y in zip(ps, ds, xs.tolist(), ys.tolist()):
            self.on_step(p, d, old, (x, y))
            old = (x, y)


class ScalarRandomSource:
    """Scalar SplitMix64 oracle in Python integers: the i-th uniform mixes seed + i * GAMMA."""

    def __init__(self, seed: int, index: int = 0):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.index = index

    def next_float(self) -> float:
        self.index += 1
        z = (self.seed + self.index * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def pearson_direction(r: float) -> Direction:
    """Uniform r in [0, 1) -> one of the four directions via floor(r / 0.25)."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    return PEARSON_DIRECTIONS[int(r / 0.25)]


def record_step(vmap, x: int, y: int) -> None:
    """Record one arrival at (x, y) in a VisitMap."""
    vmap.record_keys(np.array([pack_xy(x, y)], dtype=np.uint64))


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
