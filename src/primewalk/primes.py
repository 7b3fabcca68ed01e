"""Segmented prime sieve producing the walk's prime stream.

Primes are produced in strictly increasing order with bounded memory.  The
walk consumes only primes whose last decimal digit is 1, 3, 7 or 9, i.e.
every prime except 2 and 5; those two are filtered out here so that every
downstream consumer sees the same stream.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

# Odd-number flags per segment; one segment then spans twice as many integers.
SEGMENT_FLAGS = 1 << 20

WALK_DIGITS = (1, 3, 7, 9)

def base_primes(limit_sqrt: int) -> np.ndarray:
    """All primes <= limit_sqrt, ascending.  Empty below 2."""
    if limit_sqrt < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit_sqrt + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit_sqrt) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _walk_flags(lo: int, hi: int, base: np.ndarray, buf: np.ndarray) -> tuple[int, np.ndarray]:
    """Walk-prime flags for the odd numbers >= 3 in [lo, hi).

    Returns (first_odd, flags) where flags[i] corresponds to first_odd + 2*i;
    5 is cleared.  `base` includes every odd prime <= floor(sqrt(hi - 1)),
    and the flags are a view of `buf`, valid until its next use.
    """
    first_odd = max(lo, 3) | 1
    count = (hi - first_odd + 1) // 2
    if count <= 0:
        return first_odd, buf[:0]
    flags = buf[:count]
    flags.fill(True)
    # base[0] is 2; strike each odd base prime p with p * p < hi from its
    # first odd multiple that is >= max(p * p, lo)
    ps = base[1 : np.searchsorted(base, math.isqrt(hi - 1), side="right")]
    start = np.maximum(ps * ps, -(-lo // ps) * ps)
    start += ps * (start % 2 == 0)
    live = start < hi
    offsets = ((start[live] - first_odd) // 2).tolist()
    false = np.zeros((), dtype=bool)  # a Python False is converted on every strike
    for s, p in zip(offsets, ps[live].tolist()):
        flags[s::p] = false
    if lo <= 5 < hi:
        flags[(5 - first_odd) // 2] = False
    return first_odd, flags


def _segments(limit: int, start: int) -> Iterator[tuple[int, np.ndarray]]:
    """_walk_flags of each segment [lo, hi) of [start, limit], in order;
    every segment is sieved into one flag buffer, so its flags are valid
    until the next segment is taken."""
    if limit < 2 or limit < start:
        return
    base = base_primes(math.isqrt(limit))
    buf = np.empty(min(SEGMENT_FLAGS, limit // 2 + 1), dtype=bool)
    span = 2 * SEGMENT_FLAGS
    for lo in range(max(start, 2), limit + 1, span):
        yield _walk_flags(lo, min(lo + span, limit + 1), base, buf)


def iter_walk_prime_arrays(limit: int, *, start: int = 2) -> Iterator[np.ndarray]:
    """Yield ascending arrays of walk primes in [start, limit], one per segment holding any."""
    for first_odd, flags in _segments(limit, start):
        primes = np.flatnonzero(flags)  # int64 indices, mapped to odd N in place
        if len(primes):
            yield np.add(np.multiply(primes, 2, out=primes), first_odd, out=primes)


def count_walk_primes(limit: int, *, start: int = 2) -> int:
    """Number of primes in [start, limit] with terminal digit in {1, 3, 7, 9}."""
    return sum(int(np.count_nonzero(flags)) for _, flags in _segments(limit, start))
