"""Leading-digit (Benford) analysis of visit-count populations."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# Benford's P(d) = log10(1 + 1/d) for leading digit d at index d - 1
BENFORD_EXPECTED = np.array([math.log10(1 + 1 / d) for d in range(1, 10)])


def leading_digits(values: np.ndarray) -> np.ndarray:
    """Vectorized leading digits; exact (integer halving by powers of ten)."""
    v = np.array(values, dtype=np.int64)
    if len(v) and v.min() < 1:
        raise ValueError("all values must be positive integers")
    big = v >= 10
    while big.any():
        np.floor_divide(v, 10, out=v, where=big)
        np.greater_equal(v, 10, out=big)
    return v


@dataclass
class BenfordTable:
    observed: np.ndarray  # proportions, leading digits 1..9
    expected: np.ndarray
    sample_size: int
    max_abs_dev: float
    chi_square: float


def benford_table(counts) -> BenfordTable:
    """Leading-digit proportions from the counts of leading digits 1..9.

    Chi-square is computed against expected counts sample_size * P(d) and is
    informational; max_abs_dev is the comparison statistic.
    """
    counts = np.asarray(counts)
    if counts.shape != (9,) or counts.dtype.kind not in "iu" or counts.min() < 0:
        raise ValueError(f"need nine integer counts >= 0, got {counts.dtype} {counts.shape}")
    n = int(counts.sum())
    if n == 0:
        raise ValueError("benford table needs a non-empty population")
    observed = counts / n
    expected_counts = n * BENFORD_EXPECTED
    chi_square = float(((counts - expected_counts) ** 2 / expected_counts).sum())
    return BenfordTable(
        observed=observed,
        expected=BENFORD_EXPECTED.copy(),
        sample_size=n,
        max_abs_dev=float(np.abs(observed - BENFORD_EXPECTED).max()),
        chi_square=chi_square,
    )


def write_benford_csv(table: BenfordTable, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d", "observed", "expected"])
        for d in range(1, 10):
            w.writerow(
                [d, f"{table.observed[d - 1]:.6f}", f"{table.expected[d - 1]:.6f}"]
            )
