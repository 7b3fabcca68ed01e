"""Run-length statistics of prime terminal digits.

A run is a maximal block of consecutive primes sharing the same last digit.
The stream is scanned once; the open run at the end of input is committed
on finalize so the runs partition the whole event sequence.
"""

from __future__ import annotations

import csv
import operator

import numpy as np

from .primes import WALK_DIGITS
from .walk import WalkObserver


class RunHistogram:
    """Occurrence counts per (digit, run length)."""

    def __init__(self):
        self.counts: dict[tuple[int, int], int] = {}

    def add(self, digit: int, length: int, occurrences: int = 1) -> None:
        key = (digit, length)
        self.counts[key] = self.counts.get(key, 0) + occurrences

    @property
    def total_runs(self) -> int:
        return sum(self.counts.values())

    @property
    def total_events(self) -> int:
        return sum(length * c for (_, length), c in self.counts.items())

    def max_length(self, digit: int) -> int:
        lengths = [ln for (d, ln) in self.counts if d == digit]
        return max(lengths) if lengths else 0

    @property
    def max_length_per_digit(self) -> dict[int, int]:
        return {d: self.max_length(d) for d in WALK_DIGITS}

    def occurrences(self, digit: int, length: int) -> int:
        return self.counts.get((digit, length), 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, RunHistogram) and self.counts == other.counts

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["digit", "length", "count"])
            for (d, ln), c in sorted(self.counts.items()):
                w.writerow([d, ln, c])

    def state(self) -> dict:
        items = sorted(self.counts.items())
        return {
            "digits": np.array([d for (d, _), _ in items], dtype=np.int64),
            "lengths": np.array([ln for (_, ln), _ in items], dtype=np.int64),
            "occurrences": np.array([c for _, c in items], dtype=np.int64),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RunHistogram":
        h = cls()
        columns = [np.asarray(state[k]) for k in ("digits", "lengths", "occurrences")]
        if any(c.ndim != 1 or c.dtype.kind not in "iu" for c in columns):
            raise ValueError(f"runs are {[str(c.dtype) for c in columns]}, not integer vectors")
        rows = zip(*columns, strict=True)
        for d, ln, c in rows:
            if d not in WALK_DIGITS or ln < 1 or c < 1:
                raise ValueError(f"run ({d}, {ln}) x {c}: not a walk digit, or a count < 1")
            h.add(int(d), int(ln), int(c))
        return h


class RunLengthObserver(WalkObserver):
    """Streaming, vectorized run-length accumulator over digit batches.

    The open run at the end of the input so far is (acc_digit, acc_length);
    acc_digit is 0 before the first digit.
    """

    def __init__(self, hist: RunHistogram | None = None, acc_digit=0, acc_length=0):
        self.hist = hist or RunHistogram()
        self.acc_digit = acc_digit
        self.acc_length = acc_length
        self._edges = None  # run edges of a batch, see feed_digits

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
            self.hist.add(self.acc_digit, self.acc_length)
        self.acc_digit = int(run_digits[-1])
        self.acc_length = int(run_lengths[-1])
        if len(run_digits) > 1:
            packed = run_lengths[:-1] * 10 + run_digits[:-1]
            uniq, cnt = np.unique(packed, return_counts=True)
            for key, c in zip(uniq.tolist(), cnt.tolist()):
                self.hist.add(key % 10, key // 10, int(c))

    def finish(self, last_n, steps_taken):
        # deliberately no finalize: the open run must survive a resume;
        # use finalized_histogram() to read results
        self._edges = None

    def finalized_histogram(self) -> RunHistogram:
        """Snapshot with the open run committed; observer state untouched."""
        snap = RunHistogram()
        snap.counts = dict(self.hist.counts)
        if self.acc_digit:
            snap.add(self.acc_digit, self.acc_length)
        return snap

    def state(self) -> dict:
        s = self.hist.state()
        s["acc_digit"] = self.acc_digit
        s["acc_length"] = self.acc_length
        return s

    @classmethod
    def from_state(cls, state: dict) -> "RunLengthObserver":
        digit, length = operator.index(state["acc_digit"]), operator.index(state["acc_length"])
        if digit not in (0, *WALK_DIGITS) or length < 0 or (length == 0) != (digit == 0):
            raise ValueError(f"open run ({digit}, {length}) is neither (0, 0) nor a walk run")
        return cls(RunHistogram.from_state(state), digit, length)


def short_run_fraction(hist: RunHistogram) -> float:
    """Fraction of runs of length 1 or 2 among all runs."""
    total = hist.total_runs
    if total == 0:
        raise ValueError("histogram is empty")
    short = sum(c for (_, ln), c in hist.counts.items() if ln <= 2)
    return short / total
