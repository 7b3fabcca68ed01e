"""Sparse visit-count field, covered-area series and recurrence reporting.

The visit map stores z(x, y), the number of arrivals at each lattice cell,
as parallel sorted arrays keyed by a packed 64-bit (x, y).  The origin is
part of the covered area from step zero even when no step ever returns to
it, so `area` can exceed the number of stored cells by one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .walk import WalkObserver

_OFFSET = 1 << 31
ORIGIN_KEY = (_OFFSET << 32) | _OFFSET


def _check_range(name: str, lo: int, hi: int) -> None:
    if lo < -_OFFSET or hi >= _OFFSET:
        bad = lo if lo < -_OFFSET else hi
        raise ValueError(f"{name} coordinate {bad} outside packable [-2^31, 2^31)")


def pack_xy(x: int, y: int) -> int:
    _check_range("x", x, x)
    _check_range("y", y, y)
    return ((x + _OFFSET) << 32) | (y + _OFFSET)


def pack_arrays(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    if len(xs):
        _check_range("x", int(xs.min()), int(xs.max()))
        _check_range("y", int(ys.min()), int(ys.max()))
    return (
        (xs.astype(np.int64) + _OFFSET).astype(np.uint64) << np.uint64(32)
    ) | (ys.astype(np.int64) + _OFFSET).astype(np.uint64)


def unpack_key(key: int) -> tuple[int, int]:
    return (int(key) >> 32) - _OFFSET, (int(key) & 0xFFFFFFFF) - _OFFSET


class VisitMap:
    """Sparse z(x, y) counts over visited lattice cells."""

    def __init__(self):
        self._keys = np.empty(0, dtype=np.uint64)
        self._counts = np.empty(0, dtype=np.int64)
        self._total = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def total_visits(self) -> int:
        return self._total

    @property
    def area(self) -> int:
        """Distinct cells ever occupied, origin included."""
        extra = 0 if self._contains(ORIGIN_KEY) else 1
        return len(self._keys) + extra

    def _contains(self, key: int) -> bool:
        i = np.searchsorted(self._keys, np.uint64(key))
        return i < len(self._keys) and self._keys[i] == np.uint64(key)

    def count_at(self, x: int, y: int) -> int:
        key = np.uint64(pack_xy(x, y))
        i = np.searchsorted(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return int(self._counts[i])
        return 0

    def record_keys(self, keys: np.ndarray) -> None:
        """Merge a batch of packed arrival keys into the map."""
        if len(keys) == 0:
            return
        uniq, cnt = np.unique(keys, return_counts=True)
        pos = np.searchsorted(self._keys, uniq)
        hit = np.zeros(len(uniq), dtype=bool)
        inside = pos < len(self._keys)
        hit[inside] = self._keys[pos[inside]] == uniq[inside]
        self._counts[pos[hit]] += cnt[hit]
        if not hit.all():
            new = ~hit
            self._keys = np.insert(self._keys, pos[new], uniq[new])
            self._counts = np.insert(self._counts, pos[new], cnt[new])
        self._total += int(cnt.sum())

    def z_values(self) -> np.ndarray:
        """All positive visit counts, order unspecified; sums to total_visits."""
        return self._counts.copy()

    def items(self):
        """Yield (x, y, count) in packed-key order."""
        for key, c in zip(self._keys.tolist(), self._counts.tolist()):
            x, y = unpack_key(key)
            yield x, y, int(c)

    # checkpoint support
    def state(self) -> dict:
        return {"keys": self._keys, "counts": self._counts, "total": self._total}

    @classmethod
    def from_state(cls, state: dict) -> "VisitMap":
        m = cls()
        m._keys = np.asarray(state["keys"], dtype=np.uint64)
        m._counts = np.asarray(state["counts"], dtype=np.int64)
        m._total = int(state["total"])
        return m


@dataclass
class AreaSeries:
    """Checkpointed (n, n_p, area) growth rows; n strictly increasing."""

    n: list = field(default_factory=list)
    n_p: list = field(default_factory=list)
    area: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.n)

    def checkpoint(self, n: int, n_p: int, area: int) -> None:
        if self.n and n <= self.n[-1]:
            raise ValueError(f"checkpoint n={n} not above previous n={self.n[-1]}")
        if self.n_p and n_p < self.n_p[-1]:
            raise ValueError("n_p must be nondecreasing")
        if self.area and area < self.area[-1]:
            raise ValueError("area must be nondecreasing")
        self.n.append(int(n))
        self.n_p.append(int(n_p))
        self.area.append(int(area))

    def rows(self):
        return zip(self.n, self.n_p, self.area)

    def write_csv(self, path, *, final_row: tuple[int, int, int] | None = None) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "n_p", "area"])
            for row in self.rows():
                w.writerow(row)
            if final_row is not None and (not self.n or final_row[0] > self.n[-1]):
                w.writerow(final_row)

    def state(self) -> dict:
        return {
            "n": np.asarray(self.n, dtype=np.int64),
            "n_p": np.asarray(self.n_p, dtype=np.int64),
            "area": np.asarray(self.area, dtype=np.int64),
        }

    @classmethod
    def from_state(cls, state: dict) -> "AreaSeries":
        return cls(
            n=[int(v) for v in state["n"]],
            n_p=[int(v) for v in state["n_p"]],
            area=[int(v) for v in state["area"]],
        )


@dataclass
class RecurrenceReport:
    argmax_x: int
    argmax_y: int
    z_max: int
    dist_argmax: float
    quadrant_counts: tuple[int, int, int, int]
    axis_counts: tuple[int, int]
    distinct_count: int


def recurrence_report(vmap: VisitMap) -> RecurrenceReport:
    """Most-visited cell plus the quadrant spread of the covered area.

    Argmax ties break by distance to the origin, then by (x, y)
    lexicographic order.  Quadrants are strict interiors; cells on the axes
    and the origin are tallied separately.
    """
    if vmap.total_visits == 0:
        raise ValueError("recurrence report needs at least one recorded step")
    counts = vmap._counts
    keys = vmap._keys
    zmax = int(counts.max())
    cand = keys[np.flatnonzero(counts == zmax)]
    xs = (cand >> np.uint64(32)).astype(np.int64) - _OFFSET
    ys = (cand & np.uint64(0xFFFFFFFF)).astype(np.int64) - _OFFSET
    order = np.lexsort((ys, xs, xs * xs + ys * ys))
    bx, by = int(xs[order[0]]), int(ys[order[0]])

    ax = (keys >> np.uint64(32)).astype(np.int64) - _OFFSET
    ay = (keys & np.uint64(0xFFFFFFFF)).astype(np.int64) - _OFFSET
    on_origin = (ax == 0) & (ay == 0)
    q1 = int(np.count_nonzero((ax > 0) & (ay > 0)))
    q2 = int(np.count_nonzero((ax < 0) & (ay > 0)))
    q3 = int(np.count_nonzero((ax < 0) & (ay < 0)))
    q4 = int(np.count_nonzero((ax > 0) & (ay < 0)))
    on_x_axis = int(np.count_nonzero((ay == 0) & ~on_origin))
    on_y_axis = int(np.count_nonzero((ax == 0) & ~on_origin))
    return RecurrenceReport(
        argmax_x=bx,
        argmax_y=by,
        z_max=zmax,
        dist_argmax=float(np.hypot(bx, by)),
        quadrant_counts=(q1, q2, q3, q4),
        axis_counts=(on_x_axis, on_y_axis),
        distinct_count=vmap.area,
    )


def checkpoint_schedule(factor: float, first: int = 10):
    """Geometric checkpoint thresholds: n_0 = first, n_{k+1} >= n_k * factor."""
    if factor <= 1.0:
        raise ValueError("checkpoint factor must exceed 1")
    n = first
    while True:
        yield n
        n = max(int(n * factor), n + 1)


class GridObserver(WalkObserver):
    """Walk observer maintaining the visit map and the area growth series.

    Checkpoints are cut at fixed thresholds of the scanned integer N (the
    driving prime for digit walks, the step index for the baseline), so the
    recorded series is independent of batch boundaries and of any
    checkpoint/resume split.
    """

    def __init__(
        self,
        checkpoint_factor: float = 1.25,
        *,
        vmap: VisitMap | None = None,
        series: AreaSeries | None = None,
        steps_done: int = 0,
    ):
        self.checkpoint_factor = checkpoint_factor
        self.vmap = vmap or VisitMap()
        self.series = series or AreaSeries()
        self.steps = steps_done
        self._schedule = checkpoint_schedule(checkpoint_factor)
        self._next_t = next(self._schedule)
        last_done = self.series.n[-1] if len(self.series) else 0
        while self._next_t <= last_done:
            self._next_t = next(self._schedule)

    def observe(self, primes, digits, xs, ys, x0, y0):
        ns = primes if primes is not None else None
        if ns is None:
            # baseline walk: N is the running step index
            ns = np.arange(self.steps + 1, self.steps + 1 + len(xs), dtype=np.int64)
        keys = pack_arrays(xs, ys)
        i = 0
        last_n = int(ns[-1])
        while self._next_t <= last_n:
            j = int(np.searchsorted(ns, self._next_t, side="right"))
            self.vmap.record_keys(keys[i:j])
            self.steps += j - i
            i = j
            self.series.checkpoint(self._next_t, self.steps, self.vmap.area)
            self._next_t = next(self._schedule)
        self.vmap.record_keys(keys[i:])
        self.steps += len(keys) - i

    def finish(self, last_n, steps_taken):
        # record any thresholds that fall past the last event but at/below N
        while self._next_t <= last_n:
            self.series.checkpoint(self._next_t, self.steps, self.vmap.area)
            self._next_t = next(self._schedule)

    def state(self) -> dict:
        s = {"steps": self.steps, "factor": float(self.checkpoint_factor)}
        s.update({f"map_{k}": v for k, v in self.vmap.state().items()})
        s.update({f"series_{k}": v for k, v in self.series.state().items()})
        return s

    @classmethod
    def from_state(cls, state: dict) -> "GridObserver":
        vmap = VisitMap.from_state(
            {k[4:]: v for k, v in state.items() if k.startswith("map_")}
        )
        series = AreaSeries.from_state(
            {k[7:]: v for k, v in state.items() if k.startswith("series_")}
        )
        return cls(
            checkpoint_factor=float(state["factor"]),
            vmap=vmap,
            series=series,
            steps_done=int(state["steps"]),
        )


def write_visits_csv(vmap: VisitMap, path, *, max_cells: int = 50_000_000) -> None:
    """Dump the occupied cells as x,y,z rows (size-guarded)."""
    if len(vmap) > max_cells:
        raise ValueError(f"visit map has {len(vmap)} cells, above guard {max_cells}")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "z"])
        for x, y, z in vmap.items():
            w.writerow([x, y, z])
