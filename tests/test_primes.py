import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primewalk.primes import base_primes, count_walk_primes, iter_walk_prime_arrays

from conftest import iter_events, trial_division_primes, walk_primes_oracle


def walk_primes_in(lo, hi, segment_flags=8):
    """Walk primes in [lo, hi) from the engine, over several small segments."""
    arrays = iter_walk_prime_arrays(hi - 1, start=lo, segment_flags=segment_flags)
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
        for e in iter_events(10_000, segment_flags=256):
            assert e.digit == e.prime % 10
            assert e.digit in (1, 3, 7, 9)

    def test_matches_trial_division(self):
        got = [e.prime for e in iter_events(10_000)]
        assert got == walk_primes_oracle(10_000)

    @given(st.integers(min_value=0, max_value=3000), st.sampled_from([16, 64, 1024]))
    @settings(max_examples=30, deadline=None)
    def test_segmentation_invisible(self, limit, flags):
        default = [e.prime for e in iter_events(limit)]
        segmented = [e.prime for e in iter_events(limit, segment_flags=flags)]
        assert default == segmented

    def test_yielded_arrays_outlive_the_next_segment(self):
        # every segment is sieved into one reused flag buffer; the prime
        # arrays are the caller's
        kept, copies = [], []
        for arr in iter_walk_prime_arrays(200_000, segment_flags=256):
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

    @pytest.mark.parametrize("flags", [0, -5])
    def test_bad_segment_size_rejected(self, flags):
        with pytest.raises(ValueError, match="segment_flags"):
            count_walk_primes(1000, segment_flags=flags)
        with pytest.raises(ValueError, match="segment_flags"):
            list(iter_walk_prime_arrays(1000, segment_flags=flags))

    def test_small_segments_agree(self):
        assert count_walk_primes(10**6, segment_flags=1 << 12) == 78_496
