import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primewalk.primes import WALK_DIGITS
from primewalk.runs import RunLengthObserver, short_run_fraction

from conftest import (
    ScalarRuns,
    iter_events,
    sieve_segments,
    walk_primes_oracle,
    walk_run_counts,
)


def two_pass_oracle(digits):
    """Independent run-length oracle over a materialized digit sequence."""
    hist = {}
    for digit, group in itertools.groupby(digits):
        key = (digit, sum(1 for _ in group))
        hist[key] = hist.get(key, 0) + 1
    return hist


def feed_both(digits):
    """Feed `digits` to the engine observer and to the scalar oracle."""
    obs, ref = RunLengthObserver(), ScalarRuns()
    obs.feed_digits(np.array(digits, dtype=np.int64))
    for d in digits:
        ref.feed(d)
    return obs, ref


class TestFeedFinalize:
    def test_alternating(self):
        obs, ref = feed_both([3, 7])
        assert obs.counts == ref.counts == {(3, 1): 1}
        assert obs.finalized_counts() == ref.finalize() == {(3, 1): 1, (7, 1): 1}

    def test_pair_then_new(self):
        obs, ref = feed_both([9, 9, 1])
        assert obs.counts == ref.counts == {(9, 2): 1}
        assert (obs.acc_digit, obs.acc_length) == (ref.digit, ref.length) == (1, 1)

    def test_finalize_commits_open_run(self):
        obs, ref = feed_both([1, 1, 1])
        assert obs.finalized_counts() == ref.finalize() == {(1, 3): 1}
        assert ref.digit is None
        # the observer keeps its open run so that a resumed walk can extend it
        assert (obs.acc_digit, obs.acc_length) == (1, 3)

    def test_finalize_empty_acc(self):
        obs, ref = feed_both([])
        assert obs.finalized_counts() == ref.finalize() == {}

    def test_single_digit(self):
        obs, ref = feed_both([3])
        assert obs.finalized_counts() == ref.finalize() == {(3, 1): 1}

    def test_bad_digit(self):
        # the oracle refuses digits the walk never produces
        with pytest.raises(ValueError):
            ScalarRuns().feed(2)

    def test_run_of_ten_thousand(self):
        digits = [3] * 10_000 + [7, 1]
        obs, ref = feed_both(digits)
        assert obs.counts == ref.counts == {(3, 10_000): 1, (7, 1): 1}
        assert obs.finalized_counts() == two_pass_oracle(digits)


class TestRunHistogram:
    def test_primes_to_200_has_double_nine(self):
        # 139 and 149 are consecutive primes, both ending in 9
        counts = walk_run_counts(200)
        assert counts == two_pass_oracle([p % 10 for p in walk_primes_oracle(200)])
        assert counts[9, 2] >= 1

    def test_partition_identity(self):
        for limit in (0, 10, 1000, 50_000):
            events = sum(ln * c for (_, ln), c in walk_run_counts(limit).items())
            assert events == sum(1 for _ in iter_events(limit))

    def test_streaming_equals_two_pass_oracle(self):
        limit = 300_000
        digits = [e.digit for e in iter_events(limit)]
        assert walk_run_counts(limit) == two_pass_oracle(digits)

    @given(st.sampled_from([64, 512, 1 << 14]))
    @settings(max_examples=6, deadline=None)
    def test_segment_size_invariant(self, flags):
        with sieve_segments(flags) as segments:
            counts = walk_run_counts(100_000)
        assert segments.call_count > 1
        assert counts == walk_run_counts(100_000)


class TestObserverStateRoundtrip:
    def test_split_feed_equals_single_feed(self):
        digits = np.array([p % 10 for p in walk_primes_oracle(5000)], dtype=np.int64)
        whole = RunLengthObserver()
        whole.feed_digits(digits)
        split = RunLengthObserver()
        for i in range(0, len(digits), 7):
            split.feed_digits(digits[i : i + 7])
        assert whole.finalized_counts() == split.finalized_counts()

    def test_state_roundtrip_preserves_open_run(self):
        obs = RunLengthObserver()
        obs.feed_digits(np.array([3, 3, 7], dtype=np.int64))
        restored = RunLengthObserver.from_state(obs.state())
        restored.feed_digits(np.array([7, 1], dtype=np.int64))
        obs.feed_digits(np.array([7, 1], dtype=np.int64))
        assert restored.finalized_counts() == obs.finalized_counts()
        assert restored.finalized_counts() == {
            (3, 2): 1,
            (7, 2): 1,
            (1, 1): 1,
        }


# digits as runs of equal digits, short ones and ones longer than a uint8
RUN_LENGTHS = st.one_of(st.integers(1, 4), st.integers(5, 300))
RUN_DIGITS = st.lists(
    st.tuples(st.sampled_from(WALK_DIGITS), RUN_LENGTHS), max_size=40
).map(lambda runs: [d for d, n in runs for _ in range(n)])


@given(RUN_DIGITS, st.lists(st.integers(0, 4), max_size=60))
@settings(max_examples=300, deadline=None)
def test_uint8_digits_match_int64_and_scalar_oracle(digits, sizes):
    """The engine's uint8 digits count like int64 digits, over any batch split."""
    u8, i64, ref = RunLengthObserver(), RunLengthObserver(), ScalarRuns()
    # batches of 0-4 digits (empty ones included), then the rest in one
    cuts = np.cumsum(sizes).clip(max=len(digits)).tolist()
    for a, b in zip([0, *cuts], [*cuts, len(digits)]):
        u8.feed_digits(np.array(digits[a:b], dtype=np.uint8))
        i64.feed_digits(np.array(digits[a:b], dtype=np.int64))
    for d in digits:
        ref.feed(d)
    assert u8.counts == i64.counts == ref.counts
    assert (u8.acc_digit, u8.acc_length) == (i64.acc_digit, i64.acc_length)
    assert (u8.acc_digit, u8.acc_length) == (ref.digit or 0, ref.length)
    assert u8.finalized_counts() == ref.finalize()


class TestShortRunFraction:
    def test_all_short(self):
        assert short_run_fraction({(3, 1): 1, (7, 1): 1}) == 1.0

    def test_all_long(self):
        assert short_run_fraction({(1, 3): 1}) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            short_run_fraction({})

    def test_realistic_fraction_dominates(self):
        assert short_run_fraction(walk_run_counts(10**6)) > 0.9
