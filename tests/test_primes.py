import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primewalk.primes import base_primes, count_walk_primes, iter_walk_prime_arrays

from conftest import (
    iter_events,
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
