"""Sparse visit-count field, covered-area series and recurrence reporting.

The visit map stores z(x, y), the number of arrivals at each lattice cell,
in dense tiles located by a sorted tile index; cells, and tiles by their
first cell, are keyed by the walk engine's packed 64-bit (x, y) (see
`walk.pack_xy`), which is also the position format `GridObserver`
receives, and listed in packed-key order.
The origin is part of the covered area from step zero even when no step
ever returns to it, so `area` can exceed the number of stored cells by one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .benford import leading_digits
from .checkpoint import ChunkedArray
from .walk import WalkObserver, pack_xy, unpack_key, unpack_keys

_SIDE = 64  # tile edge; the tile of packed (X, Y) is (X >> 6, Y >> 6)
_TILE = _SIDE * _SIDE
_CELL_TILES = 16  # tiles per read of the finished map: 64K cells
# clears X & 63, Y & 63: a key's tile id, the packed key of its tile's first cell
_TILE_MASK = np.uint64(0xFFFFFFC0_FFFFFFC0)
_COUNT_MAX = np.iinfo(np.int32).max
_VISITS_MAX_CELLS = 50_000_000  # largest map that write_visits_csv dumps
_VISITS_ROWS = 4096  # rows per string write_visits_csv builds


def _narrowest(z_max: int) -> np.dtype:
    """The narrowest of uint8, uint16 and int32 that holds counts up to `z_max`."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.int32) if z_max <= np.iinfo(t).max)


def _tile_offsets(keys: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Row-major (X & 63, Y & 63) offset of each key inside its tile."""
    k = keys.view(np.int64)
    out = np.right_shift(k, 26, out=out)
    np.bitwise_and(out, 0xFC0, out=out)
    tmp = np.bitwise_and(k, 63, out=tmp)
    return np.bitwise_or(out, tmp, out=out)


class VisitMap:
    """Sparse z(x, y) counts over visited lattice cells.

    Cells live in dense 64x64 tiles, the rows of a store that grows in
    place.  The store holds the narrowest of uint8, uint16 and int32 that
    holds the largest count (4, 8 or 16 KB a tile), the dtype a checkpoint
    stores too; a batch that would pass that dtype's maximum widens the
    store first, once for each dtype it outgrows.  A sorted index of tile
    ids, the packed key of each tile's first cell (key & _TILE_MASK), maps
    each visited tile to its row in the store, so a batch costs
    O(batch + tiles it touches) whatever the size of the map, and memory
    grows with the visited tiles rather than with the bounding box.
    """

    def __init__(self):
        self._ids = np.empty(0, dtype=np.uint64)  # sorted tile ids
        self._slot = np.empty(0, dtype=np.int64)  # store row of each id
        self._store = np.zeros((0, _TILE), dtype=np.uint8)  # one tile per row
        self._cells = 0
        self._total = 0
        self._scratch = None  # masked keys and cell index of a batch, see _flat_index

    def __len__(self) -> int:
        return self._cells

    @property
    def total_visits(self) -> int:
        return self._total

    @property
    def area(self) -> int:
        """Distinct cells ever occupied, origin included."""
        return self._cells + (0 if self.count_at(0, 0) else 1)

    def count_at(self, x: int, y: int) -> int:
        key = np.array([pack_xy(x, y)], dtype=np.uint64)
        tile = key[0] & _TILE_MASK
        pos = int(np.searchsorted(self._ids, tile))
        if pos == len(self._ids) or self._ids[pos] != tile:
            return 0
        return int(self._store[self._slot[pos], _tile_offsets(key)[0]])

    def _flat_index(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The batch's distinct tile ids, and each key's index (in scratch)
        into their cells laid one tile after another."""
        if self._scratch is None or self._scratch.shape[1] < len(keys):
            self._scratch = np.empty((2, len(keys)), dtype=np.uint64)
        tiles, flat = self._scratch[:, : len(keys)]
        np.bitwise_and(keys, _TILE_MASK, out=tiles)
        # a walk stays in one tile for many steps: look up runs, not steps
        starts = np.flatnonzero(np.concatenate(([True], tiles[1:] != tiles[:-1])))
        uniq, run_of = np.unique(tiles[starts], return_inverse=True)
        lengths = np.diff(np.append(starts, len(keys)))
        # the runs are found, so tiles is free: the offsets' temporary
        flat = _tile_offsets(keys, out=flat.view(np.int64), tmp=tiles.view(np.int64))
        flat += np.repeat(run_of * _TILE, lengths)
        return uniq, flat

    def _reserve(self, tiles: int) -> None:
        if tiles > len(self._store):
            cap = max(tiles, int(len(self._store) * 1.25))
            # in place: no view of the store outlives a method call
            self._store.resize((cap, _TILE), refcheck=False)

    def record_keys(self, keys: np.ndarray) -> None:
        """Merge a batch of packed arrival keys into the map.

        The batch is counted over the tiles it touches and added to their
        counts in int64; a batch that would take a count past _COUNT_MAX is
        refused before the map changes.
        """
        if len(keys) == 0:
            return
        keys = np.asarray(keys, dtype=np.uint64)
        uniq, flat = self._flat_index(keys)
        sums = np.bincount(flat, minlength=len(uniq) * _TILE).reshape(-1, _TILE)
        pos = np.searchsorted(self._ids, uniq)
        hit = pos < len(self._ids)
        hit[hit] = self._ids[pos[hit]] == uniq[hit]
        old = self._store[self._slot[pos[hit]]]
        sums[hit] += old
        top = int(sums.max())
        if top > _COUNT_MAX:
            x, y = unpack_key(keys[np.argmax(flat == sums.argmax())])
            raise ValueError(f"visit count at ({x}, {y}) would pass {_COUNT_MAX}")
        if top > np.iinfo(self._store.dtype).max:
            self._store = self._store.astype(_narrowest(top))
        new = ~hit
        if new.any():
            first = len(self._ids)
            slots = np.arange(first, first + int(new.sum()), dtype=np.int64)
            self._ids = np.insert(self._ids, pos[new], uniq[new])
            self._slot = np.insert(self._slot, pos[new], slots)
            self._reserve(len(self._ids))
            pos = pos + np.cumsum(new) - new  # positions after the insert
        self._store[self._slot[pos]] = sums
        self._cells += np.count_nonzero(sums) - np.count_nonzero(old)
        self._total += len(keys)

    def leading_digit_counts(self) -> np.ndarray:
        """How many occupied cells have a visit count of leading digit 1, ..., 9.

        The store is read _CELL_TILES tiles at a time, in store order, which a
        tally does not need.  A uint8 or uint16 store's counts are tallied
        in a histogram of values, grouped by leading digit at the end; an
        int32 store's counts are divided down read by read.
        """
        values = self._store.dtype != np.int32
        tally = np.zeros(np.iinfo(self._store.dtype).max + 1 if values else 10, dtype=np.int64)
        used = self._store[: len(self._ids)]
        for a in range(0, len(used), _CELL_TILES):
            z = used[a : a + _CELL_TILES].reshape(-1)
            part = np.bincount(z) if values else np.bincount(leading_digits(z[z > 0]))
            tally[: len(part)] += part
        if values:
            digits = np.zeros(10, dtype=np.int64)
            np.add.at(digits, leading_digits(np.arange(1, len(tally))), tally[1:])
            tally = digits
        return tally[1:]

    def _cell_chunks(self):
        """(keys, counts) of the occupied cells in packed-key order, read from
        about _CELL_TILES tiles' worth of cells at a time; a chunk may be empty."""
        cols = self._ids >> np.uint64(32)
        bounds = np.flatnonzero(np.diff(cols)) + 1
        edges = [0, *bounds.tolist(), len(cols)] if len(cols) else []
        for a, b in zip(edges, edges[1:]):
            ids, slots = self._ids[a:b], self._slot[a:b]
            band = max(1, _CELL_TILES * _SIDE // (b - a))  # lx values per read
            for x0 in range(0, _SIDE, band):
                # (tile, lx, ly) -> (lx, tile, ly): packed-key order in the column
                block = self._store.reshape(-1, _SIDE, _SIDE)[slots, x0 : x0 + band]
                block = block.transpose(1, 0, 2).ravel()
                nz = np.flatnonzero(block)
                lx, rest = np.divmod(nz, (b - a) * _SIDE)
                tile, ly = np.divmod(rest, _SIDE)
                lx = (lx + x0).astype(np.uint64) << np.uint64(32)
                yield ids[tile] + lx + ly.astype(np.uint64), block[nz].astype(np.int64)

    # checkpoint support
    def state(self) -> dict:
        """The sorted tile ids and their tiles, in tile-id order and in the
        store's dtype: the narrowest of uint8, uint16 and int32 that holds
        the largest count.

        The tiles are read from the store when they are written, so the map
        must not change in between.  They are copied _CELL_TILES at a time
        into one buffer that every chunk reuses: a chunk is valid until the
        next one is taken.
        """
        total, n = self._total, len(self._ids)

        def chunks():
            if self._total != total:
                raise RuntimeError("the visit map changed after its state was taken")
            buf = np.empty((min(_CELL_TILES, n), _TILE), dtype=self._store.dtype)
            for a in range(0, n, _CELL_TILES):
                slots = self._slot[a : a + _CELL_TILES]
                # slots < len(store) by construction; mode="raise" would copy `out` first
                yield np.take(self._store, slots, axis=0, out=buf[: len(slots)], mode="clip")

        tiles = ChunkedArray((n, _TILE), self._store.dtype, chunks)
        return {"tile_ids": self._ids.copy(), "tiles": tiles}

    @classmethod
    def from_state(cls, state: dict) -> "VisitMap":
        """The map of `state()`'s arrays.  `tiles` is adopted, not copied,
        when it is a writeable C-ordered array in the store's dtype that
        owns its memory: the caller then keeps no view of it."""
        ids, tiles = np.asarray(state["tile_ids"]), np.asarray(state["tiles"])
        if ids.dtype != np.uint64 or ids.ndim != 1:
            raise ValueError(f"tile ids must be a uint64 vector, got {ids.dtype} {ids.shape}")
        if np.any(ids[1:] <= ids[:-1]) or np.any(ids & ~_TILE_MASK):
            raise ValueError("tile ids must be strictly increasing first-cell keys of tiles")
        if tiles.shape != (len(ids), _TILE) or tiles.dtype.kind not in "iu":
            raise ValueError(f"tiles are {tiles.dtype} {tiles.shape}, not ({len(ids)}, {_TILE})")
        z_max = int(tiles.max(initial=0))
        if tiles.size and (tiles.min() < 0 or z_max > _COUNT_MAX):
            raise ValueError(f"a visit count lies outside [0, {_COUNT_MAX}]")
        m = cls()
        m._ids, m._slot = ids, np.arange(len(ids), dtype=np.int64)
        # in the store's dtype, in an array the map owns: _reserve resizes it.
        # An array that already is one, as read_checkpoint's tiles are, is
        # adopted, so the restored map holds the only copy of the tiles
        dtype, f = _narrowest(z_max), tiles.flags
        adopt = tiles.dtype == dtype and f.owndata and f.c_contiguous and f.writeable
        m._store = tiles if adopt else np.array(tiles, dtype=dtype)
        m._cells = np.count_nonzero(m._store)
        m._total = int(m._store.sum(dtype=np.int64))
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
        columns = [np.asarray(state[k]) for k in ("n", "n_p", "area")]
        if any(c.ndim != 1 or c.dtype.kind not in "iu" for c in columns):
            raise ValueError(f"series are {[str(c.dtype) for c in columns]}, not integer vectors")
        # replayed row by row, so a restored series passes a recorded one's checks
        series = cls()
        for row in zip(*columns, strict=True):
            series.checkpoint(*row)
        return series


@dataclass
class RecurrenceReport:
    argmax_x: int
    argmax_y: int
    z_max: int
    dist_argmax: float
    quadrant_counts: tuple[int, int, int, int]
    axis_counts: tuple[int, int]


def recurrence_report(vmap: VisitMap) -> RecurrenceReport:
    """Most-visited cell plus the quadrant spread of the covered area.

    Argmax ties break by distance to the origin, then by (x, y)
    lexicographic order.  Quadrants are strict interiors; cells on the axes
    and the origin are tallied separately.

    The map is read tile by tile, _CELL_TILES store rows at a time, for
    each tile's occupied cells and largest count.  Tile edges fall on the
    axes (2^31 is a multiple of 64), so a tile whose first column is not
    x = 0 and whose first row is not y = 0 lies in one quadrant; only the
    tiles on an axis, and the tiles that hold z_max, are read cell by cell.
    """
    if vmap.total_visits == 0:
        raise ValueError("recurrence report needs at least one recorded step")
    n = len(vmap._ids)
    used = vmap._store[:n]
    row_ids = np.empty_like(vmap._ids)
    row_ids[vmap._slot] = vmap._ids  # the tile id of each store row
    x0, y0 = unpack_keys(row_ids)  # each row's first cell
    occupied = np.empty(n, dtype=np.int64)
    top = np.empty(n, dtype=used.dtype)
    for a in range(0, n, _CELL_TILES):
        rows = used[a : a + _CELL_TILES]
        occupied[a : a + len(rows)] = np.count_nonzero(rows, axis=1)
        top[a : a + len(rows)] = rows.max(axis=1)

    tally = np.zeros(9, dtype=np.int64)  # occupied cells at 3 sign(x) + sign(y) + 4
    on_axis = (x0 == 0) | (y0 == 0)
    inner = ~on_axis
    np.add.at(tally, 3 * np.sign(x0[inner]) + np.sign(y0[inner]) + 4, occupied[inner])
    for r in np.flatnonzero(on_axis):
        # the first column (row) of a tile at x = 0 (y = 0) is on the axis,
        # the rest on its positive side: count the cells in those 2 x 2 parts
        z = used[r].reshape(_SIDE, _SIDE)
        parts = [[z[:1, :1], z[:1, 1:]], [z[1:, :1], z[1:, 1:]]]
        where = 3 * np.sign(x0[r] + np.arange(2))[:, None] + np.sign(y0[r] + np.arange(2)) + 4
        np.add.at(tally, where, [[np.count_nonzero(p) for p in row] for row in parts])

    zmax = int(top.max())
    best = None  # (x^2 + y^2, x, y) of the argmax so far
    tied = np.flatnonzero(top == zmax)
    for a in range(0, len(tied), _CELL_TILES):
        rows = tied[a : a + _CELL_TILES]
        tile, offset = np.nonzero(used[rows] == zmax)
        lx, ly = np.divmod(offset, _SIDE)
        x, y = x0[rows[tile]] + lx, y0[rows[tile]] + ly
        # x^2 + y^2 <= 2^63 is exact in uint64, not in int64
        d2 = np.square(np.abs(x).astype(np.uint64)) + np.square(np.abs(y).astype(np.uint64))
        i = np.lexsort((y, x, d2))[0]
        here = (int(d2[i]), int(x[i]), int(y[i]))
        best = here if best is None else min(best, here)
    t = tally.reshape(3, 3)
    _, bx, by = best
    return RecurrenceReport(
        argmax_x=bx,
        argmax_y=by,
        z_max=zmax,
        dist_argmax=float(np.hypot(bx, by)),
        quadrant_counts=(int(t[2, 2]), int(t[0, 2]), int(t[0, 0]), int(t[2, 0])),
        axis_counts=(int(t[0, 1] + t[2, 1]), int(t[1, 0] + t[1, 2])),
    )


def checkpoint_schedule():
    """The area series' thresholds of N: 10, then n_{k+1} = max(int(n_k * 1.25), n_k + 1)."""
    n = 10
    while True:
        yield n
        n = max(int(n * 1.25), n + 1)


class GridObserver(WalkObserver):
    """Walk observer maintaining the visit map and the area growth series.

    Series rows are cut at the `checkpoint_schedule` thresholds of the
    scanned integer N (the driving prime for digit walks, the step index
    for the baseline), so the recorded series is independent of batch
    boundaries and of any checkpoint/resume split.
    """

    def __init__(self, *, vmap: VisitMap | None = None, series: AreaSeries | None = None):
        self.vmap = VisitMap() if vmap is None else vmap
        self.series = AreaSeries() if series is None else series
        self._schedule = checkpoint_schedule()
        self._next_t = next(self._schedule)
        last_done = self.series.n[-1] if len(self.series) else 0
        while self._next_t <= last_done:
            self._next_t = next(self._schedule)

    @property
    def steps(self) -> int:
        return self.vmap.total_visits

    def observe(self, primes, digits, keys, key0):
        s0 = self.steps  # the baseline's N is its step index: keys[j] is step s0 + j + 1
        last_n = s0 + len(keys) if primes is None else int(primes[-1])
        i = 0
        while (t := self._next_t) <= last_n:
            j = max(t - s0, 0) if primes is None else int(np.searchsorted(primes, t, "right"))
            self.vmap.record_keys(keys[i:j])
            i = j
            self.series.checkpoint(t, self.steps, self.vmap.area)
            self._next_t = next(self._schedule)
        self.vmap.record_keys(keys[i:])

    def finish(self, last_n, steps_taken):
        self.vmap._scratch = None  # the walk is over: free the map's batch buffers
        # record any thresholds that fall past the last event but at/below N
        while self._next_t <= last_n:
            self.series.checkpoint(self._next_t, self.steps, self.vmap.area)
            self._next_t = next(self._schedule)

    def state(self) -> dict:
        s = {f"map_{k}": v for k, v in self.vmap.state().items()}
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
        return cls(vmap=vmap, series=series)


def write_visits_csv(vmap: VisitMap, path) -> None:
    """Dump the occupied cells as x,y,z rows; a map above _VISITS_MAX_CELLS is refused."""
    if len(vmap) > _VISITS_MAX_CELLS:
        raise ValueError(f"visit map has {len(vmap)} cells, above guard {_VISITS_MAX_CELLS}")
    with open(path, "w", newline="") as fh:
        fh.write("x,y,z\r\n")
        for keys, counts in vmap._cell_chunks():
            xs, ys = unpack_keys(keys)
            for a in range(0, len(keys), _VISITS_ROWS):
                part = slice(a, a + _VISITS_ROWS)
                rows = zip(xs[part].tolist(), ys[part].tolist(), counts[part].tolist())
                fh.write("".join(f"{x},{y},{z}\r\n" for x, y, z in rows))
