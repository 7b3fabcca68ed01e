import csv
import io
import itertools
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primewalk import checkpoint, grid
from primewalk.grid import (
    AreaSeries,
    GridObserver,
    VisitMap,
    checkpoint_schedule,
    recurrence_report,
)
from primewalk.polar import PolarObserver
from primewalk.runs import RunLengthObserver
from primewalk.walk import (
    A1,
    WalkSession,
    WalkState,
    pack_xy,
    run_random_walk,
    run_walk,
    unpack_key,
)

from conftest import (
    PathRecorder,
    SortedVisitMap,
    StepObserver,
    cells,
    digit_counts,
    items,
    record_step,
    recurrence_oracle,
    rw_batches,
    sieve_segments,
    z_values,
)

TOP = (1 << 31) - 1
# repeated cells, cells across tile edges, and the ends of the packable range
COORD = st.one_of(
    st.integers(-2, 2),
    st.integers(-70, 70),
    st.integers(-(1 << 31), -(1 << 31) + 70),
    st.integers(TOP - 70, TOP),
)
BATCHES = st.lists(st.lists(st.tuples(COORD, COORD), max_size=60), max_size=8)


def _keys(cells):
    return np.array([pack_xy(x, y) for x, y in cells], dtype=np.uint64)


def assert_same_map(m, oracle):
    for got, want in zip(cells(m), cells(oracle), strict=True):
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype
    assert items(m) == list(oracle.items())
    assert (len(m), m.area, m.total_visits) == (len(oracle), oracle.area, oracle.total_visits)
    assert m.leading_digit_counts().tolist() == digit_counts(z_values(oracle))
    for x, y, c in oracle.items():
        assert m.count_at(x, y) == c
    assert m.count_at(0, 0) == oracle.count_at(0, 0)


class ReplayRecorder(StepObserver):
    """Independent oracle: retains the whole trajectory."""

    def __init__(self):
        self.path = [(0, 0)]

    def on_step(self, prime, digit, old_pos, new_pos):
        self.path.append(new_pos)


class TestVisitMap:
    def test_first_step(self):
        m = VisitMap()
        record_step(m, 0, 1)
        assert m.count_at(0, 1) == 1
        assert m.area == 2  # origin plus the new cell

    def test_revisit_keeps_area(self):
        m = VisitMap()
        record_step(m, 0, 1)
        record_step(m, 0, 1)
        assert m.count_at(0, 1) == 2
        assert m.area == 2

    def test_return_to_origin(self):
        m = VisitMap()
        record_step(m, 0, 0)
        assert m.count_at(0, 0) == 1
        assert m.area == 1

    def test_empty_map(self):
        m = VisitMap()
        assert m.area == 1
        assert m.leading_digit_counts().tolist() == [0] * 9
        assert m.total_visits == 0

    def test_negative_coordinates(self):
        m = VisitMap()
        record_step(m, -3, -7)
        record_step(m, -3, -7)
        record_step(m, 4, -1)
        assert m.count_at(-3, -7) == 2
        assert m.count_at(4, -1) == 1
        assert sorted(items(m)) == [(-3, -7, 2), (4, -1, 1)]

    def test_batch_equals_stepwise(self):
        rng = np.random.default_rng(0)
        xs = rng.integers(-5, 6, size=500)
        ys = rng.integers(-5, 6, size=500)
        a, b = VisitMap(), VisitMap()
        a.record_keys(_keys(zip(xs.tolist(), ys.tolist())))
        for x, y in zip(xs.tolist(), ys.tolist()):
            record_step(b, x, y)
        assert items(a) == items(b)
        assert a.area == b.area

    def test_pack_range_guard(self):
        top = (1 << 31) - 1
        assert unpack_key(pack_xy(top, -top - 1)) == (top, -top - 1)
        with pytest.raises(ValueError, match="x coordinate 2147483648"):
            pack_xy(top + 1, 0)
        with pytest.raises(ValueError, match="y coordinate -2147483649"):
            pack_xy(0, -top - 2)

    def test_observer_batch_near_range_edge(self):
        g = GridObserver()
        session = WalkSession(A1, [g], state=WalkState((1 << 31) - 3, 0))
        right = np.full(2, 7, dtype=np.uint8)  # A1 steps right on digit 7
        # ends on 2^31 - 1, the last packable x
        session.step(right)
        edge = session.state
        assert (edge.x, edge.y) == ((1 << 31) - 1, 0)
        assert g.vmap.count_at((1 << 31) - 1, 0) == 1
        # one more step right is refused before the observer sees it
        with pytest.raises(ValueError, match="x coordinate 2147483648"):
            session.step(right[:1])
        assert session.state == edge
        assert g.vmap.total_visits == g.steps == 2

    @given(BATCHES)
    @settings(max_examples=200, deadline=None)
    def test_matches_sorted_oracle(self, batches):
        m, oracle = VisitMap(), SortedVisitMap()
        for cells in batches:
            keys = _keys(cells)
            m.record_keys(keys)
            oracle.record_keys(keys)
        assert_same_map(m, oracle)
        assert_same_map(VisitMap.from_state(m.state()), oracle)

    def test_far_apart_cells_stay_small(self):
        cells = [(0, 0), (TOP, -TOP - 1), (-TOP - 1, TOP)]
        tracemalloc.start()
        try:
            m = VisitMap()
            m.record_keys(_keys(cells))
            assert m.area == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a directory dense over the bounding box would need ~2^58 entries
        assert peak < 1 << 20
        assert sorted(items(m)) == sorted((x, y, 1) for x, y in cells)

    def test_count_overflow_refused(self, monkeypatch):
        monkeypatch.setattr(grid, "_COUNT_MAX", 5)
        m = VisitMap()
        m.record_keys(_keys([(1, 2)] * 3 + [(-4, 7)]))
        before = cells(m)
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            m.record_keys(_keys([(-4, 7), (1, 2), (1, 2), (1, 2), (9, 9)]))
        after = cells(m)
        assert all(np.array_equal(b, a) for b, a in zip(before, after, strict=True))
        assert (len(m), m.total_visits) == (2, 4)
        m.record_keys(_keys([(1, 2), (1, 2)]))
        assert m.count_at(1, 2) == 5
        state = m.state()
        state["tiles"] = np.asarray(state["tiles"]) + 1
        with pytest.raises(ValueError, match="visit count lies outside"):
            VisitMap.from_state(state)

    def test_state_roundtrip(self):
        m = VisitMap()
        record_step(m, 1, 2)
        record_step(m, -1, 0)
        m2 = VisitMap.from_state(m.state())
        assert items(m2) == items(m)
        assert m2.total_visits == m.total_visits

    def test_restore_holds_one_copy_of_the_tiles(self):
        # one cell of each of 1,024 uint8 tiles: the restored store is the
        # only tile-sized array the restore makes, with no per-cell temporary
        ids = np.sort(_keys([(64 * i, 64 * j) for i in range(32) for j in range(32)]))
        tiles = np.zeros((len(ids), grid._TILE), dtype=np.uint8)
        tiles[:, 0] = 1
        tracemalloc.start()
        try:
            m = VisitMap.from_state({"tile_ids": ids, "tiles": tiles})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tiles.nbytes + 256 * 1024, (peak, tiles.nbytes)
        assert len(m) == m.total_visits == len(ids)


def _grown_map(first, later, mirror):
    """A map of batches `first`, saved and restored, that then records `later`:
    its later tiles take slots out of tile-id order.  With `mirror`, every
    cell (x, y) also records (y, x), which ties it for the argmax."""
    m, oracle = VisitMap(), SortedVisitMap()
    for i, cells in enumerate([*first, *later]):
        if i == len(first):
            m = VisitMap.from_state(m.state())
        cells = cells + [(y, x) for x, y in cells] if mirror else cells
        m.record_keys(_keys(cells))
        oracle.record_keys(_keys(cells))
    return m, oracle


def _narrowest(z_max):
    """The tiles' dtype in a checkpoint, by the map's largest count."""
    return np.uint8 if z_max <= 255 else np.uint16 if z_max <= 65_535 else np.int32


def _run_and_polar_sections():
    runs, polar = RunLengthObserver(), PolarObserver()
    run_walk(2_000, A1, [runs, polar])
    return {"runs": runs.state(), "polar": polar.state()}


def _assert_streamed_equals_savez(path, m, chunk):
    """The checkpoint of map `m`, streamed `chunk` tiles at a time, is the
    file np.savez writes from the eager copy of its tiles in tile-id order,
    in the narrowest dtype that holds them; the other sections hold every
    kind of field a checkpoint stores, bytes with a trailing NUL included."""
    sections = {
        "config": {"json": b'{"rule": "a1"}\x00'},
        "grid": GridObserver(vmap=m).state(),
        "walk": {"n": 7},
        **_run_and_polar_sections(),
    }
    with mock.patch.object(grid, "_CELL_TILES", chunk):
        checkpoint.write_checkpoint(path, bytes(32), sections)
    flat = {f"{s}/{k}": v for s, fields in sections.items() for k, v in fields.items()}
    flat["config/json"] = np.array(np.void(flat["config/json"]))  # as "S", NULs would drop
    tiles = m._store.reshape(-1, 64 * 64)[m._slot]
    flat["grid/map_tiles"] = tiles.astype(_narrowest(tiles.max(initial=0)))
    buf = io.BytesIO()
    buf.write(bytes(checkpoint._HEAD.size))
    np.savez(buf, **{k: flat[k] for k in sorted(flat)})
    payload = buf.getvalue()[checkpoint._HEAD.size :]
    head = checkpoint._HEAD.pack(
        checkpoint.MAGIC, checkpoint.VERSION, bytes(32), len(payload), zlib.crc32(payload)
    )
    assert path.read_bytes() == head + payload
    _, loaded = checkpoint.read_checkpoint(path)
    assert loaded["grid"]["map_tiles"].dtype == flat["grid/map_tiles"].dtype
    assert np.array_equal(loaded["grid"]["map_tiles"], flat["grid/map_tiles"])
    assert loaded["config"]["json"] == sections["config"]["json"]
    return loaded["grid"]


def _assert_visits_csv_equals_csv_writer(tmp_path, m):
    """write_visits_csv writes the bytes of csv.writer over the map's cells."""
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "z"])
        w.writerows(items(m))
    grid.write_visits_csv(m, tmp_path / "visits.csv")
    assert (tmp_path / "visits.csv").read_bytes() == want.read_bytes()


GROWN_MAPS = {
    "first": BATCHES,
    "later": BATCHES,
    "mirror": st.booleans(),
    "chunk": st.sampled_from([1, 2, 3, 256]),
}


class TestTilePaths:
    """The chunked readers of a finished map against the cell-list oracles."""

    @given(**GROWN_MAPS)
    @settings(max_examples=200, deadline=None)
    def test_digit_counts_and_recurrence(self, first, later, mirror, chunk):
        m, oracle = _grown_map(first, later, mirror)
        with mock.patch.object(grid, "_CELL_TILES", chunk):
            if oracle.total_visits:
                assert recurrence_report(m) == recurrence_oracle(oracle)
            assert_same_map(m, oracle)  # digit counts, cells and items included

    @given(**{**GROWN_MAPS, "chunk": st.sampled_from([1, 2, 3])})
    @settings(max_examples=30, deadline=None)
    def test_int32_digit_counts(self, first, later, mirror, chunk):
        # one cell hit 65,536 times widens the store to int32: counts are divided down
        m, oracle = _grown_map(first, later, mirror)
        hot = np.full(65_536, pack_xy(5, -3), dtype=np.uint64)
        m.record_keys(hot)
        oracle.record_keys(hot)
        assert m._store.dtype == np.int32
        with mock.patch.object(grid, "_CELL_TILES", chunk):
            assert m.leading_digit_counts().tolist() == digit_counts(z_values(oracle))

    def test_ties_at_the_range_ends(self):
        # x^2 + y^2 = 2^63 passes int64: the far corner must not win the tie
        m, oracle = VisitMap(), SortedVisitMap()
        low = -(1 << 31)
        corners = _keys([(low, low), (TOP, TOP), (TOP, low), (low, TOP)])
        m.record_keys(corners)
        oracle.record_keys(corners)
        rep = recurrence_report(m)
        assert (rep.argmax_x, rep.argmax_y) == (TOP, TOP)
        assert rep == recurrence_oracle(m)
        assert_same_map(m, oracle)  # the cells' keys at the four corners of the range

    def test_axis_tiles(self):
        m = VisitMap()
        cells = [(x, y) for x in (-64, -1, 0, 1, 63, 64) for y in (-64, -1, 0, 1, 63, 64)]
        m.record_keys(_keys(cells))
        rep = recurrence_report(m)
        assert rep.quadrant_counts == (9, 6, 4, 6)  # three x > 0 and two x < 0, the same in y
        assert rep.axis_counts == (5, 5)
        assert rep == recurrence_oracle(m)

    @given(**GROWN_MAPS)
    @settings(max_examples=100, deadline=None)
    def test_streamed_checkpoint_equals_savez(self, tmp_path_factory, first, later, mirror, chunk):
        m, _ = _grown_map(first, later, mirror)
        path = tmp_path_factory.mktemp("ckpt") / "checkpoint.pwlk"
        _assert_streamed_equals_savez(path, m, chunk)

    @pytest.mark.parametrize(
        "z_max, dtype",
        [(255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.int32)],
    )
    def test_narrowest_tiles(self, tmp_path, z_max, dtype):
        m, oracle = VisitMap(), SortedVisitMap()
        hot = np.full(z_max, pack_xy(3, -2), dtype=np.uint64)
        for keys in (hot, _keys([(70, 5), (-1, -1), (3, -1)])):
            m.record_keys(keys)
            oracle.record_keys(keys)
        assert m.state()["tiles"].dtype == dtype
        loaded = _assert_streamed_equals_savez(tmp_path / "checkpoint.pwlk", m, 1)
        restored = VisitMap.from_state({k[4:]: v for k, v in loaded.items()})
        assert restored._store.dtype == dtype
        assert_same_map(restored, oracle)
        # the restored store widens past the narrow dtype, and takes new tiles
        more = _keys([(3, -2), (3, -2), (-500, 900), (1 << 20, 0)])
        restored.record_keys(more)
        oracle.record_keys(more)
        assert restored.count_at(3, -2) == z_max + 2
        assert_same_map(restored, oracle)

    @given(
        st.lists(st.tuples(st.integers(-80, 80), st.integers(-80, 80)), max_size=40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_store_widens_through_every_dtype(self, cold, seed):
        """One hot cell driven past 255 and 65,535 among random cold cells:
        the store is the narrowest dtype that holds z_max after every batch."""
        m, oracle, rng = VisitMap(), SortedVisitMap(), np.random.default_rng(seed)
        hot = pack_xy(3, -2)
        for n_hot in (200, 55, 1, 65_000, 279, 1, 70_000):
            keys = rng.permutation(np.append(np.full(n_hot, hot, dtype=np.uint64), _keys(cold)))
            for batch in (keys, rng.permutation(_keys(cold))[: len(cold) // 2]):
                m.record_keys(batch)
                oracle.record_keys(batch)
                z_max = int(z_values(oracle).max())
                assert m._store.dtype == _narrowest(z_max)
                assert_same_map(m, oracle)
                restored = VisitMap.from_state(m.state())
                assert restored._store.dtype == m._store.dtype
                assert_same_map(restored, oracle)
        assert m._store.dtype == np.int32

    @given(**GROWN_MAPS)
    @settings(max_examples=100, deadline=None)
    def test_visits_csv_equals_csv_writer(self, tmp_path_factory, first, later, mirror, chunk):
        m, _ = _grown_map(first, later, mirror)
        with mock.patch.object(grid, "_CELL_TILES", chunk):
            _assert_visits_csv_equals_csv_writer(tmp_path_factory.mktemp("v"), m)

    def test_visits_csv_of_the_empty_map(self, tmp_path):
        _assert_visits_csv_equals_csv_writer(tmp_path, VisitMap())
        assert (tmp_path / "visits.csv").read_bytes() == b"x,y,z\r\n"

    def test_visits_csv_across_reads(self, tmp_path):
        # 40 tiles a column: each column of cells is read 25 lx values at a time
        m = VisitMap()
        m.record_keys(_keys([(x, y) for x in range(-70, 70, 3) for y in range(-1280, 1280, 37)]))
        assert sum(1 for _ in m._cell_chunks()) > len(np.unique(m._ids >> np.uint64(32)))
        _assert_visits_csv_equals_csv_writer(tmp_path, m)

    def test_state_of_a_changed_map_refused(self):
        m = VisitMap()
        record_step(m, 1, 2)
        state = m.state()
        record_step(m, 1, 2)
        with pytest.raises(RuntimeError, match="changed after its state"):
            np.asarray(state["tiles"])


class TestAreaFromWalks:
    def test_limit_14(self):
        g = GridObserver()
        run_walk(14, A1, [g])
        assert g.vmap.area == 4
        assert sorted(z_values(g.vmap).tolist()) == [1, 1, 2]
        assert g.vmap.total_visits == 4

    def test_limit_10(self):
        g = GridObserver()
        run_walk(10, A1, [g])
        assert g.vmap.area == 3

    def test_zero_steps(self):
        g = GridObserver()
        run_walk(0, A1, [g])
        assert g.vmap.area == 1

    def test_rw_batch_size_invisible(self):
        small, default = GridObserver(), GridObserver()
        with rw_batches(4096) as draws:
            run_random_walk(300_000, 11, [small])
        assert draws.call_count == 74
        run_random_walk(300_000, 11, [default])
        a, b = small.state(), default.state()
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_rw_thresholds_at_any_batch_size(self):
        # the baseline's N is its step index, so a threshold's step is arithmetic
        steps = 4_241  # a threshold of the schedule
        ts = list(itertools.takewhile(lambda t: t <= steps, checkpoint_schedule()))
        assert ts[-1] == steps and sum(t % 3 == 0 for t in ts) >= 5
        path, default = PathRecorder(), GridObserver()
        run_random_walk(steps, 11, [default, path])
        # area after t steps: the distinct cells of the path's first t + 1 points
        assert list(default.series.rows()) == [(t, t, len(set(path.path[: t + 1]))) for t in ts]
        for batch_size in (1, 7, 3):  # 3 puts the thresholds divisible by 3 on batch edges
            g = GridObserver()
            with rw_batches(batch_size) as draws:
                run_random_walk(steps, 11, [g])
            assert draws.call_count == -(-steps // batch_size)
            a, b = g.state(), default.state()
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_restored_observer_continues_like_direct(self):
        first, direct = GridObserver(), GridObserver()
        part = run_random_walk(10_000, 3, [first])
        saved = first.state()
        restored = GridObserver.from_state(saved)
        run_random_walk(100_000, 3, [restored], state=part)
        run_random_walk(100_000, 3, [direct])
        a, b = restored.state(), direct.state()
        # new tiles after the restore: the adopted store must grow in place
        assert len(a["map_tile_ids"]) > len(saved["map_tile_ids"])
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert restored.steps == direct.steps == 100_000

    def test_state_fields(self):
        g = GridObserver()
        run_walk(10**5, A1, [g])
        fields = {k: (np.shape(v), np.asarray(v).dtype) for k, v in g.state().items()}
        rows = ((len(g.series),), np.int64)
        assert fields == {
            "map_tile_ids": ((3,), np.uint64),
            "map_tiles": ((3, 64 * 64), np.uint8),
            "series_n": rows,
            "series_n_p": rows,
            "series_area": rows,
        }

    def test_observer_keeps_given_empty_map_and_series(self):
        vmap, series = VisitMap(), AreaSeries()
        g = GridObserver(vmap=vmap, series=series)
        run_walk(1000, A1, [g])
        assert g.vmap is vmap and g.series is series
        assert len(vmap) == 30 and len(series) > 0
        assert g.steps == vmap.total_visits

    def test_streaming_matches_replay_oracle(self):
        g = GridObserver()
        rec = ReplayRecorder()
        with sieve_segments(512) as segments:
            run_walk(100_000, A1, [g, rec])
        assert segments.call_count > 1
        distinct = set(rec.path)
        assert g.vmap.area == len(distinct)
        counts = {}
        for pos in rec.path[1:]:
            counts[pos] = counts.get(pos, 0) + 1
        assert sorted(counts.values()) == sorted(z_values(g.vmap).tolist())
        for (x, y), c in counts.items():
            assert g.vmap.count_at(x, y) == c


class TestAreaSeries:
    def test_append_and_order(self):
        s = AreaSeries()
        s.checkpoint(10**6, 78_496, 5000)
        s.checkpoint(2 * 10**6, 148_931, 9000)
        assert len(s) == 2
        assert list(s.rows())[0] == (10**6, 78_496, 5000)

    def test_first_row(self):
        s = AreaSeries()
        s.checkpoint(10, 4, 5)
        assert len(s) == 1

    def test_non_monotone_rejected(self):
        s = AreaSeries()
        s.checkpoint(100, 10, 10)
        with pytest.raises(ValueError):
            s.checkpoint(50, 20, 20)
        with pytest.raises(ValueError):
            s.checkpoint(100, 20, 20)

    def test_schedule_is_geometric(self):
        # the thresholds are the n column of area_series.csv
        vals = list(itertools.islice(checkpoint_schedule(), 10))
        assert vals == [10, 12, 15, 18, 22, 27, 33, 41, 51, 63]

    def test_observer_series_monotone(self):
        g = GridObserver()
        run_walk(50_000, A1, [g])
        ns = g.series.n
        assert ns == sorted(ns)
        areas = g.series.area
        assert all(b >= a for a, b in zip(areas, areas[1:]))
        assert all(a <= np_ + 1 for np_, a in zip(g.series.n_p, areas))


class TestRecurrence:
    def test_walk_to_14(self):
        g = GridObserver()
        run_walk(14, A1, [g])
        rep = recurrence_report(g.vmap)
        assert (rep.argmax_x, rep.argmax_y) == (1, 1)
        assert rep.z_max == 2

    def test_single_step(self):
        m = VisitMap()
        record_step(m, 0, -1)
        rep = recurrence_report(m)
        assert (rep.argmax_x, rep.argmax_y) == (0, -1)
        assert rep.z_max == 1

    def test_tie_breaks_lexicographic_after_distance(self):
        m = VisitMap()
        for _ in range(5):
            record_step(m, 0, 1)
            record_step(m, 0, -1)
        rep = recurrence_report(m)
        assert (rep.argmax_x, rep.argmax_y) == (0, -1)

    def test_distance_beats_lexicographic(self):
        m = VisitMap()
        for _ in range(3):
            record_step(m, -5, 0)
            record_step(m, 1, 0)
        rep = recurrence_report(m)
        assert (rep.argmax_x, rep.argmax_y) == (1, 0)

    @pytest.mark.parametrize("tied, winner", [
        ([(0, 5), (-3, -4)], (-3, -4)),  # the axis tile's cell loses on x
        ([(-65, 0), (-63, -16)], (-65, 0)),  # the axis tile's cell wins on x
        ([(1, 0), (-40, -90)], (1, 0)),  # the axis tile's cell wins on distance
    ])
    def test_ties_in_two_tiles_one_on_an_axis(self, tied, winner):
        m = VisitMap()
        m.record_keys(_keys(tied * 3 + [(2, 2), (-100, 7)]))
        assert len(m.state()["tile_ids"]) == 3
        rep = recurrence_report(m)
        assert (rep.argmax_x, rep.argmax_y, rep.z_max) == (*winner, 3)
        assert rep == recurrence_oracle(m)

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            recurrence_report(VisitMap())

    def test_reads_one_chunk_at_a_time(self, monkeypatch):
        # three visits to one cell of each of 16 x 16 tiles around the origin,
        # axis tiles included: 64 reads of 4 tiles' worth of cells
        monkeypatch.setattr(grid, "_CELL_TILES", 4)
        coords = [64 * i for i in range(-8, 8)]
        m = VisitMap()
        m.record_keys(_keys([(x, y) for x in coords for y in coords] * 3))
        assert len(m.state()["tile_ids"]) == 256
        assert sum(1 for _ in m._cell_chunks()) == 64
        tracemalloc.start()
        try:
            rep = recurrence_report(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = grid._CELL_TILES * grid._TILE * 4  # bytes of one read's cells as int32
        assert peak < 1.5 * chunk, (peak, chunk)
        assert rep == recurrence_oracle(m)

    def test_partition_of_distinct_cells(self):
        g = GridObserver()
        run_walk(10_000, A1, [g])
        rep = recurrence_report(g.vmap)
        total = sum(rep.quadrant_counts) + sum(rep.axis_counts) + 1
        assert total == g.vmap.area
        assert rep.z_max == z_values(g.vmap).max()


class TestConservation:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_suite(self, limit):
        g = GridObserver()
        summary = run_walk(limit, A1, [g])
        z = z_values(g.vmap)
        assert int(z.sum()) == summary.steps_taken == g.vmap.total_visits
        assert g.vmap.area <= summary.steps_taken + 1
        assert g.vmap.area >= 1
        areas = g.series.area
        assert all(b >= a for a, b in zip(areas, areas[1:]))
