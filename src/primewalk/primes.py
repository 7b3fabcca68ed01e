"""Segmented prime sieve producing the walk's prime stream.

Primes are produced in strictly increasing order with bounded memory.  The
walk consumes only primes whose last decimal digit is 1, 3, 7 or 9, i.e.
every prime except 2 and 5; those two are filtered out here so that every
downstream consumer sees the same stream.

A segment keeps one flag for each number 6k + 1 and 6k + 5 in its range:
every prime but 2 and 3 is one, and 3 is added apart.  About 3 / ln N of
these flags are set, against 2 / ln N of one flag per odd number.  That
keeps them above a tenth up to N of about 1e13; below a tenth numpy
2.4's `flatnonzero` runs about 2.5 times slower, and odd flags fall below it
from N of about 5e8.

Every range is sieved through one driver, `_forked`, at a width that
`_width` picks.  A range of at least POOL_MIN_SPAN integers is sieved in
forked worker processes when two or more CPUs are usable: WALK_WORKERS
beside a walk's engine, COUNT_WORKERS for a count.  Smaller ranges, one CPU
and platforms without `fork` get width 0, which sieves in the calling
process.  Every width yields the same primes.  `_forked` also draws the
random walk's batches (`walk.run_random_walk`).
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from typing import Callable, Iterator

import numpy as np

# Flags per segment, for the numbers 6k + 1 and 6k + 5: one segment then
# spans three times as many integers.
SEGMENT_FLAGS = 1 << 20

# Ranges spanning fewer integers are sieved in-process: a fork does not pay
# for itself there, and the README's 1e7 walk stays in one process.
POOL_MIN_SPAN = 10**8

# Sieve workers, whatever the number of usable CPUs: the widths measured to
# pay on two cores.  A walk's engine keeps up with about one worker.
WALK_WORKERS = 1
COUNT_WORKERS = 2

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
    """Walk-prime flags for the numbers 6k + 1 and 6k + 5 in [lo, hi).

    Returns (k0, flags) where k0 = lo // 6, flags[2j] stands for
    6(k0 + j) + 1 and flags[2j + 1] for 6(k0 + j) + 5: index i stands for
    N = 3i + (i & 1) + 6k0 + 1, so index order is numeric order.  1, 5 and
    the entries outside [lo, hi) are cleared; 3 is neither 6k + 1 nor
    6k + 5, so the caller adds it.  `base` includes every prime <=
    floor(sqrt(hi - 1)), and the flags are a view of `buf`, valid until its
    next use.
    """
    k0 = lo // 6
    if hi <= lo:
        return k0, buf[:0]
    flags = buf[: 2 * ((hi - 1) // 6 - k0 + 1)]
    flags.fill(True)
    # base[:2] is 2, 3; each p >= 5 with p * p < hi strikes its multiples
    # p * q = c (mod 6) in both classes c, from the least q >= max(p, lo / p)
    # with q = c * p (mod 6), every 6p integers
    ps = base[2 : np.searchsorted(base, math.isqrt(hi - 1), side="right")]
    q0 = np.maximum(ps, -(-lo // ps))
    false = np.zeros((), dtype=bool)  # a Python False is converted on every strike
    for c in (1, 5):
        start = ps * (q0 + (c * ps - q0) % 6)
        live = start < hi
        offsets = 2 * (start[live] // 6 - k0) + (c == 5)
        for s, stride in zip(offsets.tolist(), (2 * ps[live]).tolist()):
            flags[s::stride] = false
    if lo % 6 > 1:  # 6k0 + 1 < lo
        flags[0] = False
    last = (hi - 1) % 6
    flags[len(flags) - (last < 1) - (last < 5) :] = False  # past hi - 1
    if k0 == 0:
        flags[:2] = False  # 1 and 5
    return k0, flags


def _bounds(limit: int, start: int) -> Iterator[tuple[int, int]]:
    """[lo, hi) of each segment of [start, limit], in order."""
    span = 3 * SEGMENT_FLAGS
    return ((lo, min(lo + span, limit + 1)) for lo in range(max(start, 2), limit + 1, span))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _width(span: int, min_span: int, workers: int) -> int:
    """Forked workers for a stream of tasks covering `span` integers or
    steps: `workers`, or 0 (the calling process) for an empty span, a span
    under `min_span`, on one usable CPU or without `fork`."""
    forks = span >= max(min_span, 1) and _usable_cpus() >= 2 and hasattr(os, "fork")
    return workers if forks else 0


def _worker(conns, index: int, start_work: Callable, slots) -> None:
    """Forked worker: answer each (*task, slot) it receives with
    `work(*task, slots[slot])`, where `work = start_work()`; without slots
    the last argument is None.  An error answers with its text."""
    import signal

    # the main process stops us; SIGINT was blocked across the fork
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    for i, (main_end, worker_end) in enumerate(conns):
        # hold no other end, so each side sees EOF when the other goes
        main_end.close()
        if i != index:
            worker_end.close()
    conn, work = conns[index][1], start_work()
    while True:
        try:
            *task, slot = conn.recv()
        except (EOFError, OSError):
            return  # the main process has gone
        try:
            answer = work(*task, None if slots is None else slots[slot])
        except Exception as exc:
            conn.send(f"{type(exc).__name__}: {exc}")
            raise  # and the traceback goes to stderr
        conn.send(answer)


def _forked(
    start_work: Callable,
    tasks: Iterator[tuple],
    width: int,
    depth: int,
    slot: tuple[int, type] | None,
    take: Callable,
    describe: Callable[..., str],
) -> Iterator:
    """`take(task, answer, slot)` of each task in order, where `answer` is
    `work(*task, slot)` and `work` is what `start_work()` returns.

    Width 0 runs every task in the calling process, one at a time: `work`
    and `take` get one array of `slot` = (size, dtype) items, or None
    without `slot`, and `multiprocessing` and `mmap` are not imported.
    A width of 1 or more runs `work` in that many forked workers.  With
    `slot`, each task then gets a slot of `size` items in an anonymous
    shared memory map.  Task i goes to worker i % width and slot i % depth,
    so at most `depth` tasks are in flight.  A slot gets its next task once
    `take` has returned, before the value is yielded: the workers run while
    the caller does.  The workers are gone when the generator ends, however
    it ends.
    At every width a `work` that fails raises RuntimeError naming
    `describe(*task)`; a KeyboardInterrupt is not wrapped.
    """
    if not width:
        work = start_work()
        out = None if slot is None else np.empty(*slot)
        for task in tasks:
            try:
                answer = work(*task, out)
            except Exception as exc:
                raise RuntimeError(f"{describe(*task)} failed: {type(exc).__name__}: {exc}") from exc
            yield take(task, answer, out)
        return
    import mmap
    import multiprocessing
    import signal

    slots = None
    if slot is not None:  # anonymous and shared, made before the fork
        size, dtype = slot
        shared = mmap.mmap(-1, depth * size * np.dtype(dtype).itemsize)
        slots = np.frombuffer(shared, dtype=dtype).reshape(depth, size)
    # fork: a worker inherits numpy and the caller's tables instead of
    # importing and building them again; the callers start no threads
    ctx = multiprocessing.get_context("fork")
    conns = [ctx.Pipe() for _ in range(width)]
    workers = [
        ctx.Process(target=_worker, args=(conns, i, start_work, slots), daemon=True)
        for i in range(width)
    ]
    ends = [main_end for main_end, _ in conns]
    numbered, sent = enumerate(tasks), collections.deque()

    def send(count: int) -> None:
        for i, task in itertools.islice(numbered, count):
            sent.append((i, task))
            try:
                ends[i % width].send((*task, i % depth))
            except OSError:
                pass  # the worker is gone; its answer for an earlier task says why

    try:
        # a ^C before a worker ignores SIGINT waits, and is then dropped
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for w in workers:
                w.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for _, worker_end in conns:
            worker_end.close()
        send(depth)
        while sent:
            i, task = sent.popleft()
            try:
                answer = ends[i % width].recv()
            except (EOFError, OSError):  # a reset if it left tasks unread
                answer = "the worker exited"
            if isinstance(answer, str):
                raise RuntimeError(f"{describe(*task)} failed: {answer}")
            value = take(task, answer, None if slots is None else slots[i % depth])
            send(1)  # into the slot just taken
            yield value
    finally:
        # killed before their ends close, so no worker reports a broken pipe
        started = [w for w in workers if w.pid is not None]
        for w in started:
            w.terminate()
        for w in started:
            w.join()
        for end in ends:
            end.close()


def _pooled(limit: int, start: int, width: int, primes: bool) -> Iterator:
    """Each segment of [start, limit] sieved in order by `width` forked
    workers, or at width 0 in the calling process: a new array of its walk
    primes, skipped when empty, or without `primes` its walk-prime count.

    A segment's primes are the indices `flatnonzero` returns, mapped to N
    in place at width 0, or into the segment's slot by a worker, which the
    caller copies out; 3 is added to the segment that holds it.  At most
    width + 1 segments are in flight, so a worker has the next one to sieve
    while the caller runs.
    """
    if limit < 2 or limit < start:
        return
    # flags of a segment of 3 * SEGMENT_FLAGS integers from any lo, or of [0, limit]
    size = 2 * (min((3 * SEGMENT_FLAGS + 4) // 6, limit // 6) + 1)
    base = base_primes(math.isqrt(limit))

    def start_work() -> Callable:
        buf = np.empty(size, dtype=bool)

        def sieve(lo: int, hi: int, out: np.ndarray | None):
            k0, flags = _walk_flags(lo, hi, base, buf)
            three = lo <= 3 < hi
            if not primes:
                return three + int(np.count_nonzero(flags))
            idx = np.flatnonzero(flags)
            found = idx if out is None else out[: len(idx)]
            # N = 3i + (i & 1) + 6k0 + 1 = (3i + 6k0 + 1) | 1, as 3i has the parity of i
            np.multiply(idx, 3, out=found)
            np.add(found, 6 * k0 + 1, out=found)
            np.bitwise_or(found, 1, out=found)
            if three:  # the first segment only
                found = np.concatenate(([3], found))
                if out is not None:
                    out[: len(found)] = found
            return found if out is None else len(found)

        return sieve

    segments = _forked(
        start_work, _bounds(limit, start), width, width + 1,
        (size, np.int64) if primes and width else None,
        lambda task, answer, out: answer if out is None else out[:answer].copy(),
        lambda lo, hi: f"sieve segment [{lo}, {hi})",
    )
    for batch in segments:
        if not primes or len(batch):
            yield batch


def iter_walk_prime_arrays(limit: int, *, start: int = 2) -> Iterator[np.ndarray]:
    """Yield ascending arrays of walk primes in [start, limit]: each sieve
    segment's primes in two halves, or whole if it holds one, and none for
    a segment that holds none.  The halves are views of one new array that
    the caller owns.  A half holds the primes of about 1.5 * 2^20
    integers, which bounds the walk's batches and the engine's buffers
    sized by them."""
    width = _width(limit + 1 - max(start, 2), POOL_MIN_SPAN, WALK_WORKERS)
    for batch in _pooled(limit, start, width, primes=True):
        half = len(batch) // 2
        yield from (batch[:half], batch[half:]) if half else (batch,)


def count_walk_primes(limit: int, *, start: int = 2) -> int:
    """Number of primes in [start, limit] with terminal digit in {1, 3, 7, 9}."""
    width = _width(limit + 1 - max(start, 2), POOL_MIN_SPAN, COUNT_WORKERS)
    return sum(_pooled(limit, start, width, primes=False))
