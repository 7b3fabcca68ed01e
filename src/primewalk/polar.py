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
from dataclasses import dataclass, field

import numpy as np

from .fitting import FitResult, linear_fit
from .walk import WalkObserver

TWO_PI = 2.0 * math.pi
DPHI_BINS = 100
DPHI_EDGES = np.linspace(-math.pi, math.pi, DPHI_BINS + 1)


def to_polar(x: int, y: int) -> tuple[float, float]:
    """(radius, angle) of a lattice position; angle in (-pi, pi]."""
    if x == 0 and y == 0:
        raise ValueError("angle undefined at the origin")
    phi = math.atan2(y, x)
    if phi <= -math.pi:
        phi = math.pi
    return math.hypot(x, y), phi


def wrap_angle(d: np.ndarray) -> np.ndarray:
    """Wrap raw angle differences into (-pi, pi]."""
    d = np.where(d > math.pi, d - TWO_PI, d)
    return np.where(d <= -math.pi, d + TWO_PI, d)


def delta_phi_histogram(d_phi: np.ndarray, bin_count: int):
    """Uniform-width histogram of angle increments over (-pi, pi].

    Returns (edges, counts); counts always sum to the sample count.  A
    sample outside (-pi, pi], NaN included, raises ValueError.
    """
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    edges = np.linspace(-math.pi, math.pi, bin_count + 1)
    d = np.asarray(d_phi, dtype=np.float64)
    inside = (d > -math.pi) & (d <= math.pi)
    if not inside.all():
        bad = d[~inside][0]
        raise ValueError(f"angle increment {bad!r} lies outside (-pi, pi]")
    idx = np.searchsorted(edges, d, side="left") - 1
    return edges, np.bincount(idx, minlength=bin_count).astype(np.int64)


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

    def observe(self, primes, digits, xs, ys, x0, y0):
        px = np.concatenate(([x0], xs))
        py = np.concatenate(([y0], ys))
        off_origin = (px != 0) | (py != 0)
        keep = off_origin[:-1] & off_origin[1:]
        d_phi = wrap_angle(np.diff(np.arctan2(py, px))[keep])
        self.deltas.counts += delta_phi_histogram(d_phi, DPHI_BINS)[1]
        self.deltas.skipped += len(keep) - int(np.count_nonzero(keep))

    def state(self) -> dict:
        return {"counts": self.deltas.counts, "skipped": self.deltas.skipped}

    @classmethod
    def from_state(cls, state: dict) -> "PolarObserver":
        counts = np.array(state["counts"], dtype=np.int64)
        return cls(PolarDeltas(counts=counts, skipped=int(state["skipped"])))


def box_counting_dimension(
    px: np.ndarray, py: np.ndarray, scales=None
) -> FitResult:
    """Box-counting slope of a 2D point cloud.

    Points are normalized per-axis onto the unit square; for each box size s
    the number of occupied s-boxes is counted, and the slope of
    log(count) versus log(1/s) is the dimension estimate.  A degenerate
    cloud (single distinct point) yields dimension 0 with zero stderr.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    if len(px) == 0 or len(px) != len(py):
        raise ValueError("need matching non-empty coordinate arrays")
    if scales is None:
        scales = [2.0**-k for k in range(2, 8)]
    if len(scales) < 2:
        raise ValueError("need at least two box scales")
    span_x = px.max() - px.min()
    span_y = py.max() - py.min()
    if span_x == 0.0 and span_y == 0.0:
        return FitResult(slope=0.0, intercept=0.0, slope_stderr=0.0, r_squared=1.0, n_points=len(scales))
    nx = (px - px.min()) / span_x if span_x > 0 else np.zeros_like(px)
    ny = (py - py.min()) / span_y if span_y > 0 else np.zeros_like(py)
    log_counts = []
    log_inv = []
    for s in scales:
        grid = math.ceil(1.0 / s)
        ix = np.minimum((nx / s).astype(np.int64), grid - 1)
        iy = np.minimum((ny / s).astype(np.int64), grid - 1)
        boxes = len(np.unique(ix * grid + iy))
        log_counts.append(math.log(boxes))
        log_inv.append(math.log(1.0 / s))
    return linear_fit(log_inv, log_counts)
