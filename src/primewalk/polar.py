"""Polar-increment analysis of a walk trajectory.

Positions map to (radius, angle) with the four-quadrant arctangent; the
analysis streams consecutive angle differences dphi, wrapped back into
(-pi, pi], into a fixed-bin histogram, so its state has the same size
however long the walk runs.  Pairs touching the origin, where the angle is
undefined, are skipped and tallied instead of being assigned an arbitrary
angle.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .walk import WalkObserver, unpack_keys

TWO_PI = 2.0 * math.pi
DPHI_BINS = 100
DPHI_EDGES = np.linspace(-math.pi, math.pi, DPHI_BINS + 1)


def wrap_angle(d: np.ndarray) -> np.ndarray:
    """Wrap raw angle differences into (-pi, pi]."""
    d = np.where(d > math.pi, d - TWO_PI, d)
    return np.where(d <= -math.pi, d + TWO_PI, d)


def delta_phi_histogram(d_phi: np.ndarray) -> np.ndarray:
    """Counts of angle increments per bin (DPHI_EDGES[i], DPHI_EDGES[i + 1]].

    The counts always sum to the sample count.  A sample outside (-pi, pi],
    NaN included, raises ValueError.
    """
    d = np.asarray(d_phi, dtype=np.float64)
    inside = (d > -math.pi) & (d <= math.pi)
    if not inside.all():
        bad = d[~inside][0]
        raise ValueError(f"angle increment {bad!r} lies outside (-pi, pi]")
    idx = np.searchsorted(DPHI_EDGES, d, side="left") - 1
    return np.bincount(idx, minlength=DPHI_BINS).astype(np.int64)


@dataclass
class PolarDeltas:
    """Histogram of wrapped dphi over DPHI_EDGES plus the skip tally."""

    counts: np.ndarray = field(default_factory=lambda: np.zeros(DPHI_BINS, dtype=np.int64))
    skipped: int = 0

    def __len__(self) -> int:
        return int(self.counts.sum())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["bin_low", "bin_high", "count"])
            for lo, hi, c in zip(
                DPHI_EDGES[:-1].tolist(), DPHI_EDGES[1:].tolist(), self.counts.tolist()
            ):
                w.writerow([f"{lo:.9g}", f"{hi:.9g}", c])


class PolarObserver(WalkObserver):
    """Streaming dphi histogram of a walk run, in constant memory."""

    def __init__(self, deltas: PolarDeltas | None = None):
        self.deltas = PolarDeltas() if deltas is None else deltas

    @property
    def steps(self) -> int:  # one increment, kept or skipped, per step
        return len(self.deltas) + self.deltas.skipped

    def observe(self, primes, digits, keys, key0):
        px, py = unpack_keys(np.insert(keys, 0, key0))
        off_origin = (px != 0) | (py != 0)
        keep = off_origin[:-1] & off_origin[1:]
        d_phi = wrap_angle(np.diff(np.arctan2(py, px))[keep])
        self.deltas.counts += delta_phi_histogram(d_phi)
        self.deltas.skipped += len(keep) - int(np.count_nonzero(keep))

    def state(self) -> dict:
        return {"counts": self.deltas.counts, "skipped": self.deltas.skipped}

    @classmethod
    def from_state(cls, state: dict) -> "PolarObserver":
        raw = np.asarray(state["counts"])
        if raw.shape != (DPHI_BINS,) or raw.dtype.kind not in "iu":
            raise ValueError(f"dphi counts are {raw.dtype} {raw.shape}, not {DPHI_BINS} integers")
        counts, skipped = raw.astype(np.int64), operator.index(state["skipped"])
        if counts.min() < 0 or skipped < 0:
            raise ValueError("dphi counts and the skip tally must be >= 0")
        return cls(PolarDeltas(counts=counts, skipped=skipped))
