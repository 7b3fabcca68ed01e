"""Polar-increment analysis of a walk trajectory.

Positions map to (radius, angle) with the four-quadrant arctangent; the
analysis streams consecutive differences (dR, dphi), wrapping dphi back
into (-pi, pi].  Pairs touching the origin, where the angle is undefined,
are skipped and tallied instead of being assigned an arbitrary angle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .fitting import FitResult, linear_fit
from .walk import WalkObserver

TWO_PI = 2.0 * math.pi


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


@dataclass
class PolarDeltas:
    """Column-oriented (step, dR, dphi) samples plus the skip tally."""

    steps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    d_r: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))
    d_phi: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.steps)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "d_r", "d_phi"])
            for s, dr, dp in zip(
                self.steps.tolist(), self.d_r.tolist(), self.d_phi.tolist()
            ):
                w.writerow([s, f"{dr:.9g}", f"{dp:.9g}"])


def _deltas_from_arrays(
    xs: np.ndarray, ys: np.ndarray, first_step_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Per-pair deltas over a position sequence (first entry = previous pos)."""
    r = np.hypot(xs, ys)
    phi = np.arctan2(ys, xs)
    keep = (r[:-1] > 0) & (r[1:] > 0)
    d_r = np.diff(r)[keep]
    d_phi = wrap_angle(np.diff(phi)[keep])
    steps = (np.flatnonzero(keep) + first_step_index).astype(np.int64)
    skipped = int(len(keep) - keep.sum())
    return steps, d_r, d_phi, skipped


def delta_series(positions) -> PolarDeltas:
    """Polar increments of a full trajectory (iterable of (x, y))."""
    pts = np.asarray(list(positions), dtype=np.int64)
    if len(pts) < 2:
        return PolarDeltas()
    steps, d_r, d_phi, skipped = _deltas_from_arrays(pts[:, 0], pts[:, 1], 1)
    return PolarDeltas(steps=steps, d_r=d_r, d_phi=d_phi, skipped=skipped)


class PolarObserver(WalkObserver):
    """Streaming polar-increment collector for a walk run."""

    def __init__(self, *, deltas: PolarDeltas | None = None, steps_done=0):
        self.deltas = deltas or PolarDeltas()
        self._steps_done = steps_done
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def observe(self, primes, digits, xs, ys, x0, y0):
        px = np.concatenate(([x0], xs))
        py = np.concatenate(([y0], ys))
        steps, d_r, d_phi, skipped = _deltas_from_arrays(px, py, self._steps_done + 1)
        self._chunks.append((steps, d_r, d_phi))
        self.deltas.skipped += skipped
        self._steps_done += len(xs)

    def finish(self, last_n, steps_taken):
        self._flush()

    def _flush(self):
        if self._chunks:
            self.deltas.steps = np.concatenate(
                [self.deltas.steps] + [c[0] for c in self._chunks]
            )
            self.deltas.d_r = np.concatenate(
                [self.deltas.d_r] + [c[1] for c in self._chunks]
            )
            self.deltas.d_phi = np.concatenate(
                [self.deltas.d_phi] + [c[2] for c in self._chunks]
            )
            self._chunks = []

    def state(self) -> dict:
        self._flush()
        return {
            "steps": self.deltas.steps,
            "d_r": self.deltas.d_r,
            "d_phi": self.deltas.d_phi,
            "skipped": self.deltas.skipped,
            "steps_done": self._steps_done,
        }

    @classmethod
    def from_state(cls, state: dict) -> "PolarObserver":
        deltas = PolarDeltas(
            steps=np.asarray(state["steps"], dtype=np.int64),
            d_r=np.asarray(state["d_r"], dtype=np.float64),
            d_phi=np.asarray(state["d_phi"], dtype=np.float64),
            skipped=int(state["skipped"]),
        )
        return cls(deltas=deltas, steps_done=int(state["steps_done"]))


def delta_phi_histogram(d_phi: np.ndarray, bin_count: int):
    """Uniform-width histogram of angle increments over (-pi, pi].

    Returns (edges, counts); counts always sum to the sample count.
    """
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    edges = np.linspace(-math.pi, math.pi, bin_count + 1)
    d = np.asarray(d_phi, dtype=np.float64)
    if len(d) == 0:
        return edges, np.zeros(bin_count, dtype=np.int64)
    idx = np.searchsorted(edges, d, side="left") - 1
    idx = np.clip(idx, 0, bin_count - 1)
    counts = np.bincount(idx, minlength=bin_count).astype(np.int64)
    return edges, counts


def write_dphi_hist_csv(edges: np.ndarray, counts: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_low", "bin_high", "count"])
        for lo, hi, c in zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()):
            w.writerow([f"{lo:.9g}", f"{hi:.9g}", int(c)])


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
