import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from multiprocessing.connection import Connection
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primewalk import primes, walk
from primewalk.primes import base_primes, count_walk_primes, iter_walk_prime_arrays
from primewalk.walk import A1, WalkObserver, WalkState, run_random_walk, run_walk

from conftest import (
    iter_events,
    sieve_pool,
    sieve_segments,
    trial_division_primes,
    walk_primes_oracle,
)


def walk_primes_in(lo, hi):
    """Walk primes in [lo, hi) from the engine, over segments of 8 odd numbers."""
    with sieve_segments(8):
        arrays = iter_walk_prime_arrays(hi - 1, start=lo)
        return [p for arr in arrays for p in arr.tolist()]


class TestBasePrimes:
    def test_small(self):
        assert base_primes(10).tolist() == [2, 3, 5, 7]

    def test_boundary(self):
        assert base_primes(2).tolist() == [2]

    def test_below_two_is_empty(self):
        assert base_primes(1).tolist() == []
        assert base_primes(0).tolist() == []

    def test_against_trial_division(self):
        assert base_primes(30).tolist() == trial_division_primes(30)
        assert base_primes(10_000).tolist() == trial_division_primes(10_000)


class TestSieveSegment:
    def test_interval(self):
        assert walk_primes_in(10, 20) == [11, 13, 17, 19]

    def test_from_two(self):
        assert walk_primes_in(2, 10) == [3, 7]

    def test_composite_single_cell(self):
        assert walk_primes_in(100, 101) == []

    def test_matches_oracle(self):
        for lo, hi in [(2, 500), (500, 1000), (997, 998), (9000, 10000)]:
            expect = [p for p in walk_primes_oracle(hi - 1) if lo <= p < hi]
            assert walk_primes_in(lo, hi) == expect


class TestEventStream:
    def test_digits_to_20(self):
        events = list(iter_events(20))
        assert [e.prime for e in events] == [3, 7, 11, 13, 17, 19]
        assert [e.digit for e in events] == [3, 7, 1, 3, 7, 9]

    def test_two_and_five_excluded(self):
        assert [e.prime for e in iter_events(2)] == []
        assert [e.prime for e in iter_events(5)] == [3]

    def test_event_invariants(self):
        with sieve_segments(256) as segments:
            for e in iter_events(10_000):
                assert e.digit == e.prime % 10
                assert e.digit in (1, 3, 7, 9)
        assert segments.call_count == 20

    def test_matches_trial_division(self):
        got = [e.prime for e in iter_events(10_000)]
        assert got == walk_primes_oracle(10_000)

    @given(st.integers(min_value=0, max_value=3000), st.sampled_from([16, 64, 1024]))
    @example(3000, 16)  # 94 segments
    @settings(max_examples=30, deadline=None)
    def test_segmentation_invisible(self, limit, flags):
        default = [e.prime for e in iter_events(limit)]
        with sieve_segments(flags) as segments:
            segmented = [e.prime for e in iter_events(limit)]
        assert default == segmented
        # one segment per 2 * flags integers from 2 on
        assert segments.call_count == len(range(2, limit + 1, 2 * flags))

    def test_yielded_arrays_outlive_the_next_segment(self):
        # every segment is sieved into one reused flag buffer; the prime
        # arrays are the caller's
        kept, copies = [], []
        with sieve_segments(256):
            for arr in iter_walk_prime_arrays(200_000):
                kept.append(arr)
                copies.append(arr.copy())
        assert len(kept) > 2
        assert all(np.array_equal(a, c) for a, c in zip(kept, copies))
        assert np.concatenate(kept).tolist() == walk_primes_oracle(200_000)


class TestCountWalkPrimes:
    def test_examples(self):
        assert count_walk_primes(100) == 23
        assert count_walk_primes(0) == 0
        assert count_walk_primes(2) == 0

    def test_matches_stream(self):
        for limit in (0, 2, 3, 5, 7, 100, 12345):
            assert count_walk_primes(limit) == sum(1 for _ in iter_events(limit))

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=30, deadline=None)
    def test_nondecreasing(self, limit):
        assert count_walk_primes(limit) <= count_walk_primes(limit + 97)

    def test_pi_1e6(self):
        # pi(10^6) = 78,498; minus the primes 2 and 5
        assert count_walk_primes(10**6) == 78_496

    def test_small_segments_agree(self):
        with sieve_segments(1 << 12) as segments:
            assert count_walk_primes(10**6) == 78_496
        assert segments.call_count == 123


def pooled_batches(limit, workers, flags):
    """The walk-prime batches to `limit`, sieved by `workers` workers and
    kept as they come: each is the caller's at every width."""
    with sieve_segments(flags), sieve_pool(workers):
        return list(iter_walk_prime_arrays(limit))


class TestSievePool:
    @pytest.mark.parametrize("flags", [64, 4096])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_batches_identical_across_widths(self, width, flags):
        alone = pooled_batches(60_000, 0, flags)
        pooled = pooled_batches(60_000, width, flags)
        assert len(pooled) == len(alone) == len(range(2, 60_001, 2 * flags))
        assert all(np.array_equal(a, b) for a, b in zip(alone, pooled))
        assert all(a.dtype == b.dtype for a, b in zip(alone, pooled))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("width", [0, 1, 2, 3])
    def test_count_identical_across_widths(self, width):
        with sieve_segments(64), sieve_pool(width):
            assert count_walk_primes(10**5) == 9590  # pi(1e5) - 2
            assert count_walk_primes(10**5, start=50_001) == 9590 - 5131
            assert count_walk_primes(1) == 0
        assert multiprocessing.active_children() == []

    def test_empty_segments_are_skipped(self):
        # with 8 odd numbers a segment, [1330, 1346) and [1954, 1970) hold no prime
        alone, pooled = pooled_batches(2000, 0, 8), pooled_batches(2000, 1, 8)
        assert len(pooled) == len(alone) == len(range(2, 2001, 16)) - 2
        assert all(len(b) for b in pooled)
        assert all(np.array_equal(a, b) for a, b in zip(alone, pooled))
        assert np.concatenate(pooled).tolist() == walk_primes_oracle(2000)

    @pytest.mark.parametrize("width", [1, 3])
    def test_segments_in_flight_are_bounded(self, width):
        # below 2e4 every 128 integers hold a prime, so batch k is segment k
        sent, real_send = [], Connection.send

        def send(conn, obj):
            sent.append(obj)
            real_send(conn, obj)

        expect = pooled_batches(20_000, 0, 64)
        in_flight, kept = [], []
        with sieve_segments(64), sieve_pool(width), mock.patch.object(Connection, "send", send):
            for k, batch in enumerate(iter_walk_prime_arrays(20_000)):
                # segments 0..k are read; the workers sieve the next ones meanwhile
                in_flight.append(len(sent) - k - 1)
                time.sleep(0.0005)
                kept.append(batch)
        tasks = len(expect)
        assert in_flight == [min(width + 1, tasks - k - 1) for k in range(tasks)]
        # each batch was copied out of its slot before the slot was reused
        assert all(np.array_equal(a, b) for a, b in zip(kept, expect))
        assert [slot for _, _, slot in sent] == [k % (width + 1) for k in range(tasks)]

    def test_width_is_capped(self, monkeypatch):
        # the widths measured to pay, however many CPUs are usable; `_pooled`
        # and the walk's `_forked` are stubbed, so no process is started
        calls, widths = [], []
        monkeypatch.setattr(primes, "_pooled", lambda *args, **kw: calls.append(args) or iter(()))
        monkeypatch.setattr(walk, "_forked", lambda *args: widths.append(args[2]) or iter(()))
        monkeypatch.setattr(primes, "_usable_cpus", lambda: 64)
        assert (primes.WALK_WORKERS, primes.COUNT_WORKERS) == (1, 2)
        assert list(iter_walk_prime_arrays(10**12)) == []
        assert count_walk_primes(10**12, start=10**11) == 0
        # a range under the minimum span, such as the README's 1e7 walk
        assert primes.POOL_MIN_SPAN > 10**7
        assert list(iter_walk_prime_arrays(10**7)) == []
        count_walk_primes(10**12, start=10**12 - primes.POOL_MIN_SPAN + 1)
        count_walk_primes(10**12, start=10**12 - primes.POOL_MIN_SPAN + 2)
        assert calls == [
            (10**12, 2, 1), (10**12, 10**11, 2), (10**7, 2, 0),
            (10**12, 10**12 - primes.POOL_MIN_SPAN + 1, 2),
            (10**12, 10**12 - primes.POOL_MIN_SPAN + 2, 0),
        ]
        # the random walk: one worker from POOL_MIN_STEPS steps left
        run_random_walk(walk.POOL_MIN_STEPS, 0)
        run_random_walk(walk.POOL_MIN_STEPS, 0, state=WalkState(steps_taken=1))
        assert widths == [1, 0]
        # an empty span needs no worker, whatever the minimum
        assert primes._width(0, 0, 3) == primes._width(-5, 0, 3) == 0
        assert primes._width(1, 0, 3) == 3
        monkeypatch.setattr(primes, "_usable_cpus", lambda: 1)
        assert primes._width(10**12, primes.POOL_MIN_SPAN, 2) == 0

    def test_width_without_fork_is_in_process(self, monkeypatch):
        monkeypatch.setattr(primes, "_usable_cpus", lambda: 8)
        monkeypatch.delattr(os, "fork")
        assert primes._width(10**12, primes.POOL_MIN_SPAN, 2) == 0

    def test_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert primes._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert primes._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert primes._usable_cpus() == 1


def ignores_sigint(pid):
    """Whether process `pid` ignores SIGINT or, before it can, blocks it,
    by its SigIgn and SigBlk masks in /proc."""
    with open(f"/proc/{pid}/status") as fh:
        masks = [int(line.split()[1], 16) for line in fh if line.startswith(("SigIgn:", "SigBlk:"))]
    return any(mask >> (signal.SIGINT - 1) & 1 for mask in masks)


class TestSievePoolEnds:
    """However a pooled stream ends, no worker is left running."""

    def test_consumer_stops_early(self):
        with sieve_segments(64), sieve_pool(2):
            stream = iter_walk_prime_arrays(50_000)
            next(stream)
            next(stream)
            assert len(multiprocessing.active_children()) == 2
            stream.close()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_observer_raises_mid_walk(self, error):
        # KeyboardInterrupt stands for a SIGINT in the main process
        class RaisesOnThirdBatch(WalkObserver):
            batches = 0

            def observe(self, primes, digits, keys, key0):
                self.batches += 1
                if self.batches == 3:
                    raise error("stop")

        with sieve_segments(64), sieve_pool(1), pytest.raises(error):
            run_walk(50_000, A1, [RaisesOnThirdBatch()])
        assert multiprocessing.active_children() == []

    def test_worker_error_names_the_segment(self):
        # at width 0 the calling process sieves, and raises the same error
        real = primes._walk_flags

        def fails_at(lo, hi, base, buf):
            if lo == 2 + 5 * 128:
                raise ValueError("struck out")
            return real(lo, hi, base, buf)

        for width in (0, 2):
            with sieve_segments(64), sieve_pool(width), \
                    mock.patch.object(primes, "_walk_flags", fails_at):
                with pytest.raises(RuntimeError, match=r"sieve segment \[642, 770\).*ValueError: struck out"):
                    list(iter_walk_prime_arrays(50_000))
                with pytest.raises(RuntimeError, match=r"sieve segment \[642, 770\)"):
                    count_walk_primes(50_000)
        # a ^C while the calling process sieves is not a failed segment
        with sieve_segments(64), sieve_pool(0), pytest.raises(KeyboardInterrupt), \
                mock.patch.object(primes, "_walk_flags", side_effect=KeyboardInterrupt):
            count_walk_primes(50_000)
        assert multiprocessing.active_children() == []

    def test_worker_exit_names_the_segment(self):
        real = primes._walk_flags

        def exits_at(lo, hi, base, buf):
            if lo == 2 + 3 * 128:
                os._exit(3)
            return real(lo, hi, base, buf)

        with sieve_segments(64), sieve_pool(1), \
                mock.patch.object(primes, "_walk_flags", exits_at):
            with pytest.raises(RuntimeError, match=r"sieve segment \[386, 514\).*worker exited"):
                list(iter_walk_prime_arrays(50_000))
        assert multiprocessing.active_children() == []

    def test_sigint_to_the_process_group(self, tmp_path):
        # a terminal's ^C reaches every process of the group: the workers
        # ignore it, and the main process stops them as it unwinds
        script = textwrap.dedent("""
            import multiprocessing, sys, time
            from unittest import mock
            from primewalk import primes
            with mock.patch.object(primes, "SEGMENT_FLAGS", 64), \\
                    mock.patch.object(primes, "_usable_cpus", return_value=2), \\
                    mock.patch.object(primes, "WALK_WORKERS", 2), \\
                    mock.patch.object(primes, "POOL_MIN_SPAN", 0):
                for batch in primes.iter_walk_prime_arrays(10**6):
                    print(*[p.pid for p in multiprocessing.active_children()], flush=True)
                    time.sleep(60)
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, start_new_session=True, text=True,
        )
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2
            if os.path.exists(f"/proc/{pids[0]}/status"):
                assert all(ignores_sigint(pid) for pid in pids)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode != 0
        assert err.count("KeyboardInterrupt") == 1, err
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def test_cli_import_leaves_the_pool_modules_out():
    code = "import sys, primewalk.cli; print(sorted({'multiprocessing', 'mmap'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
