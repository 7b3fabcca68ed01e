"""Run-length statistics of prime terminal digits.

A run is a maximal block of consecutive primes sharing the same last digit.
The stream is scanned once; `finalized_counts` commits the open run at the
end of the input, so the runs partition the whole event sequence.
"""

from __future__ import annotations

import csv
import operator

import numpy as np

from .primes import WALK_DIGITS
from .walk import WalkObserver


class RunLengthObserver(WalkObserver):
    """Streaming, vectorized run-length accumulator over digit batches.

    `counts` maps (digit, length) to the number of closed runs.  The open
    run at the end of the input so far is (acc_digit, acc_length);
    acc_digit is 0 before the first digit.
    """

    def __init__(self, counts: dict | None = None, acc_digit=0, acc_length=0):
        self.counts: dict[tuple[int, int], int] = {} if counts is None else counts
        self.acc_digit = acc_digit
        self.acc_length = acc_length
        self._edges = None  # run edges of a batch, see feed_digits

    @property
    def steps(self) -> int:  # digits fed: every closed run's length, and the open run's
        return sum(ln * c for (_, ln), c in self.counts.items()) + self.acc_length

    def observe(self, primes, digits, keys, key0):
        if digits is None:
            raise ValueError("run-length statistics need a digit-driven walk")
        self.feed_digits(digits)

    def feed_digits(self, digits: np.ndarray) -> None:
        if len(digits) == 0:
            return
        if self._edges is None or len(self._edges) <= len(digits):
            self._edges = np.empty(len(digits) + 1, dtype=bool)
        edges = self._edges[: len(digits) + 1]  # True where a run starts, and at the end
        edges[0] = edges[-1] = True
        np.not_equal(digits[1:], digits[:-1], out=edges[1:-1])
        starts = np.flatnonzero(edges)
        run_digits = digits[starts[:-1]]
        run_lengths = np.diff(starts)
        # splice the carried open run with the batch's first run
        if self.acc_digit == int(run_digits[0]):
            run_lengths[0] += self.acc_length
        elif self.acc_digit:
            _add(self.counts, self.acc_digit, self.acc_length)
        self.acc_digit = int(run_digits[-1])
        self.acc_length = int(run_lengths[-1])
        if len(run_digits) > 1:
            packed = run_lengths[:-1] * 10 + run_digits[:-1]
            uniq, cnt = np.unique(packed, return_counts=True)
            for key, c in zip(uniq.tolist(), cnt.tolist()):
                _add(self.counts, key % 10, key // 10, c)

    def finish(self, last_n, steps_taken):
        # deliberately no finalize: the open run must survive a resume;
        # use finalized_counts() to read results
        self._edges = None

    def finalized_counts(self) -> dict[tuple[int, int], int]:
        """A copy of `counts` with the open run committed; the observer is untouched."""
        counts = dict(self.counts)
        if self.acc_digit:
            _add(counts, self.acc_digit, self.acc_length)
        return counts

    def state(self) -> dict:
        items = sorted(self.counts.items())
        return {
            "digits": np.array([d for (d, _), _ in items], dtype=np.int64),
            "lengths": np.array([ln for (_, ln), _ in items], dtype=np.int64),
            "occurrences": np.array([c for _, c in items], dtype=np.int64),
            "acc_digit": self.acc_digit,
            "acc_length": self.acc_length,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RunLengthObserver":
        digit, length = operator.index(state["acc_digit"]), operator.index(state["acc_length"])
        if digit not in (0, *WALK_DIGITS) or length < 0 or (length == 0) != (digit == 0):
            raise ValueError(f"open run ({digit}, {length}) is neither (0, 0) nor a walk run")
        columns = [np.asarray(state[k]) for k in ("digits", "lengths", "occurrences")]
        if any(c.ndim != 1 or c.dtype.kind not in "iu" for c in columns):
            raise ValueError(f"runs are {[str(c.dtype) for c in columns]}, not integer vectors")
        counts = {}
        for d, ln, c in zip(*(c.tolist() for c in columns), strict=True):
            if d not in WALK_DIGITS or ln < 1 or c < 1:
                raise ValueError(f"run ({d}, {ln}) x {c}: not a walk digit, or a count < 1")
            _add(counts, d, ln, c)
        return cls(counts, digit, length)


def _add(counts: dict, digit: int, length: int, occurrences: int = 1) -> None:
    counts[digit, length] = counts.get((digit, length), 0) + occurrences


def write_runs_csv(counts: dict, path) -> None:
    """runs.csv: one (digit, length, count) row per run length seen, sorted."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["digit", "length", "count"])
        for (d, ln), c in sorted(counts.items()):
            w.writerow([d, ln, c])


def short_run_fraction(counts: dict) -> float:
    """Fraction of runs of length 1 or 2 among all runs."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no runs")
    return sum(c for (_, ln), c in counts.items() if ln <= 2) / total
