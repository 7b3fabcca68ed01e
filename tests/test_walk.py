import multiprocessing
import os
import time
from multiprocessing.connection import Connection
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primewalk.grid import GridObserver
from primewalk.polar import PolarObserver
from primewalk.primes import WALK_DIGITS, iter_walk_prime_arrays
from primewalk.runs import RunLengthObserver
from primewalk.walk import (
    A1,
    A2,
    A3,
    RULES,
    Direction,
    RandomSource,
    WalkObserver,
    WalkRule,
    WalkSession,
    WalkState,
    pack_xy,
    run_random_walk,
    run_walk,
    unpack_keys,
)

from conftest import (
    ScalarRandomSource,
    StepObserver,
    pearson_direction,
    rw_batches,
    rw_pool,
    sieve_segments,
    step,
    uniform_block,
    walk_primes_oracle,
)


class TestRules:
    def test_a1_table(self):
        assert dict(A1.mapping) == {
            1: Direction.DOWN, 3: Direction.UP, 7: Direction.RIGHT, 9: Direction.LEFT
        }
        dx, dy = A1.delta_tables()
        assert list(zip(dx.tolist(), dy.tolist())) == [
            (0, 0), (0, -1), (0, 0), (0, 1), (0, 0), (0, 0), (0, 0), (1, 0), (0, 0), (-1, 0)
        ]

    def test_a2_a3_spot_checks(self):
        assert dict(A2.mapping)[7] is Direction.DOWN
        assert dict(A2.mapping)[1] is Direction.RIGHT
        assert dict(A3.mapping)[9] is Direction.DOWN
        assert dict(A3.mapping)[1] is Direction.LEFT

    def test_bad_digit_rejected(self):
        for bad in (2, 0):
            with pytest.raises(ValueError):
                WalkRule("bad", ((bad, Direction.DOWN), (3, Direction.UP),
                                 (7, Direction.RIGHT), (9, Direction.LEFT)))

    def test_rules_are_bijections(self):
        for rule in RULES.values():
            assert sorted(dict(rule.mapping)) == list(WALK_DIGITS)
            assert set(dict(rule.mapping).values()) == set(Direction)

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            WalkRule("bad", ((1, Direction.UP), (3, Direction.UP),
                             (7, Direction.RIGHT), (9, Direction.LEFT)))


class PathRecorder(StepObserver):
    def __init__(self):
        self.path = []
        self.events = []

    def on_step(self, prime, digit, old_pos, new_pos):
        self.events.append((prime, digit, old_pos))
        self.path.append(new_pos)


def engine_walk(rule, digits, start=WalkState()):
    """Feed `digits` (standing in for primes with those last digits) to the engine."""
    rec = PathRecorder()
    session = WalkSession(rule, [rec], state=start)
    session.feed(np.array(digits, dtype=np.int64))
    return session.state, rec.path


class TestStep:
    def test_forced_moves(self):
        s = WalkState()
        s = step(s, 3, A1)
        assert (s.x, s.y) == (0, 1)
        s = step(s, 7, A1)
        assert (s.x, s.y) == (1, 1)
        s = step(s, 1, A1)
        assert (s.x, s.y) == (1, 0)
        assert s.steps_taken == 3
        end, path = engine_walk(A1, [3, 7, 1])
        assert path == [(0, 1), (1, 1), (1, 0)]
        assert (end.x, end.y, end.steps_taken) == (s.x, s.y, s.steps_taken)

    def _inverse_pairs(self, rule):
        """Digit pairs whose directions cancel, derived from the table."""
        pairs = []
        for a in (1, 3, 7, 9):
            for b in (1, 3, 7, 9):
                if a < b:
                    da, db = dict(rule.mapping)[a].value, dict(rule.mapping)[b].value
                    if (da[0] + db[0], da[1] + db[1]) == (0, 0):
                        pairs.append((a, b))
        return pairs

    @pytest.mark.parametrize("rule,expected", [
        (A1, [(1, 3), (7, 9)]),
        (A2, [(1, 9), (3, 7)]),
        (A3, [(1, 7), (3, 9)]),
    ])
    def test_inverse_pairs(self, rule, expected):
        pairs = self._inverse_pairs(rule)
        assert pairs == expected
        for a, b in pairs:
            s = WalkState(x=5, y=-3)
            t = step(step(s, a, rule), b, rule)
            assert (t.x, t.y) == (s.x, s.y)
            end, _ = engine_walk(rule, [a, b], start=s)
            assert (end.x, end.y) == (s.x, s.y)


class TestRunWalk:
    def test_hand_trace_limit_14(self):
        rec = PathRecorder()
        summary = run_walk(14, A1, [rec])
        assert rec.path == [(0, 1), (1, 1), (1, 0), (1, 1)]
        assert (summary.x, summary.y) == (1, 1)
        assert summary.steps_taken == 4

    def test_hand_trace_limit_10(self):
        summary = run_walk(10, A1)
        assert (summary.x, summary.y) == (1, 1)
        assert summary.steps_taken == 2

    def test_empty_walk(self):
        summary = run_walk(0, A1)
        assert (summary.x, summary.y, summary.steps_taken) == (0, 0, 0)

    def test_observer_sees_old_positions(self):
        rec = PathRecorder()
        run_walk(14, A1, [rec])
        assert [e[2] for e in rec.events] == [(0, 0), (0, 1), (1, 1), (1, 0)]
        assert [e[0] for e in rec.events] == [3, 7, 11, 13]

    def test_repeat_runs_identical(self):
        a, b = PathRecorder(), PathRecorder()
        run_walk(5000, A2, [a])
        run_walk(5000, A2, [b])
        assert a.path == b.path

    @pytest.mark.parametrize("rule", [A1, A2, A3])
    def test_matches_step_oracle(self, rule):
        rec = PathRecorder()
        with sieve_segments(64):
            run_walk(5000, rule, [rec])
        s, path = WalkState(), []
        for p in walk_primes_oracle(5000):
            s = step(s, p % 10, rule)
            path.append((s.x, s.y))
        assert rec.path == path

    def test_batching_invisible(self):
        a, b = PathRecorder(), PathRecorder()
        with sieve_segments(64) as small:
            run_walk(5000, A3, [a])
        with sieve_segments(4096) as large:
            run_walk(5000, A3, [b])
        assert small.call_count == 40 and large.call_count == 1
        assert a.path == b.path

    def test_sessions_fed_alternately_match_runs_alone(self):
        # session b is fed from inside a's batch, so a's observers that come
        # after the feeder would see b's digits or keys if the scratch were shared
        with sieve_segments(4096) as segments:
            batches = list(iter_walk_prime_arrays(300_000))
        assert segments.call_count > 1

        class FeedsOther(WalkObserver):
            def __init__(self, other):
                self.other = other

            def observe(self, primes, digits, keys, key0):
                self.other.feed(primes[1:])

        def sessions(alternate):
            a = WalkSession(A1, [GridObserver(), RunLengthObserver()])
            b = WalkSession(A3, [GridObserver(), RunLengthObserver()])
            if alternate:
                a.observers.insert(0, FeedsOther(b))
            for primes in batches:
                a.feed(primes)
                if not alternate:
                    b.feed(primes[1:])
            return a.finish(300_000), b.finish(300_000), a.observers[-2:] + b.observers

        alone, alternate = sessions(False), sessions(True)
        assert alone[:2] == alternate[:2]
        for one, other in zip(alone[2], alternate[2]):
            s, t = one.state(), other.state()
            assert s.keys() == t.keys()
            assert all(np.array_equal(s[k], t[k]) for k in s)

    @pytest.mark.parametrize("rule", [A1, A3])
    @pytest.mark.parametrize("m", [0, 1, 13, 499, 500, 997, 999, 1000])
    def test_resume_equals_direct(self, rule, m):
        def analyses():
            return [GridObserver(), RunLengthObserver(), PolarObserver()]

        direct = analyses()
        end = run_walk(1000, rule, direct)
        first = analyses()
        mid = run_walk(m, rule, first)
        resumed = [type(obs).from_state(obs.state()) for obs in first]
        assert run_walk(1000, rule, resumed, state=mid) == end
        assert end.steps_taken == 166
        for one, other in zip(resumed, direct):
            s, t = one.state(), other.state()
            assert s.keys() == t.keys()
            assert all(np.array_equal(s[k], t[k]) for k in s)

    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=20, deadline=None)
    def test_chebyshev_bound(self, limit):
        rec = PathRecorder()
        summary = run_walk(limit, A1, [rec])
        for i, (x, y) in enumerate(rec.path, start=1):
            assert max(abs(x), abs(y)) <= i
        assert abs(summary.x) + abs(summary.y) <= summary.steps_taken


class TestBatchEntryPoints:
    """perfbench/tracer.py counts walk batches by rebinding `WalkSession.feed`
    and `RandomSource.block_at`: one call is one batch.  A random walk whose
    batches are drawn in a forked worker calls `block_at` there, where no
    spy or rebinding in the main process sees it."""

    @pytest.mark.parametrize("resume_at", [0, 2000])
    def test_prime_walk_feeds_once_per_segment(self, resume_at):
        state = run_walk(resume_at, A1)
        feed = WalkSession.feed
        with sieve_segments(64) as segments, \
                mock.patch.object(WalkSession, "feed", autospec=True, side_effect=feed) as spy:
            run_walk(5000, A1, state=state)
        assert spy.call_count == segments.call_count > 1

    @pytest.mark.parametrize("resume_at", [0, 500])
    def test_random_walk_draws_once_per_batch_and_never_feeds(self, resume_at):
        state = run_random_walk(resume_at, 3)
        with rw_batches(64) as draws, \
                mock.patch.object(WalkSession, "feed", autospec=True) as feed:
            run_random_walk(1000, 3, state=state)
        assert draws.call_count == -(-(1000 - resume_at) // 64)
        assert [c.args[1:] for c in draws.call_args_list[:2]] == [
            (resume_at + 1, 64), (resume_at + 65, 64)
        ]
        feed.assert_not_called()


class TestPearson:
    def test_index_table(self):
        assert pearson_direction(0.0) is Direction.DOWN
        assert pearson_direction(0.25) is Direction.UP
        assert pearson_direction(0.5) is Direction.RIGHT
        assert pearson_direction(0.999) is Direction.LEFT

    def test_domain(self):
        with pytest.raises(ValueError):
            pearson_direction(1.0)
        with pytest.raises(ValueError):
            pearson_direction(-0.01)

    @staticmethod
    def rig(monkeypatch, indices):
        """Make the engine's generator return step `indices` from index 1 on."""
        ks = np.array(indices)
        monkeypatch.setattr(RandomSource, "block_at",
                            staticmethod(lambda seed, i, n, out=None: ks[i - 1 : i - 1 + n]))

    @pytest.mark.parametrize("width", [0, 1])
    def test_rigged_source_path(self, monkeypatch, width):
        self.rig(monkeypatch, [0, 1, 2, 3])
        rec = PathRecorder()
        with rw_pool(width), rw_batches(3) as draws:
            summary = run_random_walk(4, seed=0, observers=[rec])
        # a forked worker draws where the spy does not see it
        assert draws.call_count == (0 if width else 2)
        assert rec.path == [(0, -1), (0, 0), (1, 0), (0, 0)]
        assert (summary.x, summary.y) == (0, 0)

    @pytest.mark.parametrize("width", [0, 1])
    def test_engine_rejects_out_of_range_uniform(self, monkeypatch, width):
        """Index 4 is floor(1.0 / 0.25), the index of a uniform outside [0, 1)."""
        for indices in ([2, 4], [2, -1]):
            self.rig(monkeypatch, [0, 1, *indices])
            rec = KeyRecorder()
            with rw_pool(width), rw_batches(2), \
                    pytest.raises(ValueError, match="step index outside 0..3"):
                run_random_walk(4, seed=0, observers=[rec])
            # the batch holding it is refused before any observer sees it
            assert len(rec.batches) == 1
        assert multiprocessing.active_children() == []

    def test_zero_steps(self):
        summary = run_random_walk(0, seed=123)
        assert (summary.x, summary.y, summary.steps_taken) == (0, 0, 0)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed} "):
            run_random_walk(1000, seed)


SEED_EXTREMES = [0, 25, (1 << 64) - 1]
# start * GAMMA passes 2^64 at every start but 1; the last block ends at index 2^64 - 1
START_EXTREMES = [1, 50_000_001, 1 << 63, (1 << 64) - 65_537]


class TestRandomSource:
    def test_reproducible(self):
        src = ScalarRandomSource(99)
        a = [int(src.next_float() / 0.25) for _ in range(100)]
        b = RandomSource.block_at(99, 1, 100, out=RandomSource.workspace(100)).tolist()
        assert a == b

    def test_range(self):
        """Every index lies in 0..3 by construction, at the extreme seeds and starts."""
        work = RandomSource.workspace(1 << 16)
        for seed in SEED_EXTREMES:
            for start in START_EXTREMES:
                block = RandomSource.block_at(seed, start, 1 << 16, out=work)
                assert block.dtype == np.int64 and 0 <= block.min() <= block.max() <= 3

    def test_small_workspace_refused(self):
        with pytest.raises(ValueError, match="workspace of 10 too small for a block of 11"):
            RandomSource.block_at(0, 1, 11, out=RandomSource.workspace(10))

    @pytest.mark.parametrize("start", START_EXTREMES)
    @pytest.mark.parametrize("seed", SEED_EXTREMES)
    def test_engine_digits_match_uniform_oracle(self, seed, start):
        # each step's key delta is its A1 direction, and so its digit
        n, rec = 1 << 16, KeyRecorder()
        digit_of = {direction.value: d for d, direction in A1.mapping}
        index = np.floor(uniform_block(seed, start, n) / 0.25).astype(np.int64)
        for width in (0, 1):
            rec.batches.clear()
            with rw_pool(width):
                run_random_walk(start - 1 + n, seed, [rec], state=WalkState(steps_taken=start - 1))
            (keys, key0), = rec.batches
            xs, ys = unpack_keys(np.array([key0, *keys], dtype=np.uint64))
            digits = [digit_of[step] for step in zip(np.diff(xs).tolist(), np.diff(ys).tolist())]
            assert digits == np.array(WALK_DIGITS)[index].tolist(), width

    @pytest.mark.parametrize("remaining", [63, 64, 150])
    def test_resume_ends_on_direct_path(self, remaining):
        """Remaining steps below, equal to and not a multiple of the batch size."""
        direct, resumed = PathRecorder(), PathRecorder()
        with rw_batches(64) as draws:
            end = run_random_walk(100 + remaining, 9, [direct])
            mid = run_random_walk(100, 9, [resumed])
            assert run_random_walk(100 + remaining, 9, [resumed], state=mid) == end
        assert draws.call_count == -(-(100 + remaining) // 64) + 2 + -(-remaining // 64)
        assert resumed.path == direct.path

    def test_equal_seeds_equal_trajectories(self):
        a, b = PathRecorder(), PathRecorder()
        run_random_walk(1000, seed=5, observers=[a])
        with rw_batches(17) as draws:
            run_random_walk(1000, seed=5, observers=[b])
        assert draws.call_count == 59
        assert a.path == b.path
        src, pos, oracle = ScalarRandomSource(5), (0, 0), []
        for _ in range(1000):
            dx, dy = pearson_direction(src.next_float()).value
            pos = (pos[0] + dx, pos[1] + dy)
            oracle.append(pos)
        assert a.path == oracle

    def test_different_seeds_diverge(self):
        a, b = PathRecorder(), PathRecorder()
        run_random_walk(1000, seed=1, observers=[a])
        run_random_walk(1000, seed=2, observers=[b])
        assert a.path != b.path


EDGE = 1 << 31


class TestRangeGuard:
    """Every walk stays in the packable range [-2^31, 2^31) on both axes."""

    # uniforms r, each rigged as the step index floor(r / 0.25)
    @pytest.mark.parametrize("r, start, last, axis, bad", [
        (0.0, (5, -EDGE + 2), (5, -EDGE), "y", -EDGE - 1),  # DOWN
        (0.25, (5, EDGE - 3), (5, EDGE - 1), "y", EDGE),  # UP
        (0.5, (EDGE - 3, 5), (EDGE - 1, 5), "x", EDGE),  # RIGHT
        (0.75, (-EDGE + 2, 5), (-EDGE, 5), "x", -EDGE - 1),  # LEFT
    ])
    @pytest.mark.parametrize("width", [0, 1])
    def test_walk_refuses_to_leave_range(self, monkeypatch, r, start, last, axis, bad, width):
        monkeypatch.setattr(RandomSource, "block_at",
                            staticmethod(lambda seed, i, n, out=None: np.full(n, int(r / 0.25))))
        with rw_pool(width):
            self.refused_at_the_edge(start, last, axis, bad)
        assert multiprocessing.active_children() == []

    @staticmethod
    def refused_at_the_edge(start, last, axis, bad):
        origin = WalkState(*start)
        rec, grid = PathRecorder(), GridObserver()
        edge = run_random_walk(2, 0, [rec, grid], state=origin)
        assert (edge.x, edge.y) == rec.path[-1] == last
        assert grid.vmap.count_at(*last) == 1
        match = f"{axis} coordinate {bad} outside"
        with pytest.raises(ValueError, match=match):
            run_random_walk(3, 0, [rec, grid], state=edge)
        # a batch that crosses the edge is refused whole, observers or not
        with pytest.raises(ValueError, match=match):
            run_random_walk(3, 0, [rec, grid], state=origin)
        with pytest.raises(ValueError, match=match):
            run_random_walk(3, 0, state=origin)
        # past the low y edge a borrow would have moved x to 4
        assert len(rec.path) == grid.vmap.total_visits == 2
        assert all(p[0 if axis == "y" else 1] == 5 for p in rec.path)


class KeyRecorder(WalkObserver):
    def __init__(self):
        self.batches = []

    def observe(self, primes, digits, keys, key0):
        self.batches.append((keys.tolist(), key0))


class TestPooledRandomWalk:
    """Batches drawn at every width: the observers see the batches of the
    step-by-digits oracle, an error names its steps, and no worker is left."""

    @pytest.mark.parametrize("width", [0, 1])
    def test_batches_identical_on_both_paths(self, width):
        rec, oracle = KeyRecorder(), KeyRecorder()
        with rw_pool(width), rw_batches(64):
            mid = run_random_walk(100, 3, [rec])
            end = run_random_walk(1000, 3, [rec], state=mid)
        # the draw as `WalkSession.step` on the digits the indices pick
        session, work = WalkSession(A1, [oracle]), RandomSource.workspace(64)
        for t in [*range(0, 100, 64), *range(100, 1000, 64)]:
            n = min(64, (100 if t < 100 else 1000) - t)
            session.step(np.array(WALK_DIGITS, np.uint8)[RandomSource.block_at(3, t + 1, n, out=work)])
        assert rec.batches == oracle.batches
        assert end == session.finish(1000)
        assert multiprocessing.active_children() == []

    def test_a_batch_stays_put_while_observed(self):
        # the worker draws at most two batches ahead, into the other slots
        sent, real_send = [], Connection.send

        def send(conn, obj):
            sent.append(obj)
            real_send(conn, obj)

        class Slow(WalkObserver):
            in_flight = []

            def observe(self, primes, digits, keys, key0):
                before = keys.copy()
                self.in_flight.append(len(sent) - len(self.in_flight) - 1)
                time.sleep(0.002)
                assert np.array_equal(keys, before)

        with rw_pool(1), rw_batches(64), mock.patch.object(Connection, "send", send):
            run_random_walk(1000, 3, [Slow()])
        tasks = -(-1000 // 64)
        assert Slow.in_flight == [min(2, tasks - k - 1) for k in range(tasks)]
        assert [slot for _, _, slot in sent] == [k % 3 for k in range(tasks)]

    def test_worker_error_names_the_steps(self, monkeypatch):
        # at width 0 the calling process draws, and raises the same error
        real = RandomSource.block_at

        def fails_at(seed, start, n, *, out):
            if start == 1 + 5 * 64:
                raise ArithmeticError("drawn out")
            return real(seed, start, n, out=out)

        monkeypatch.setattr(RandomSource, "block_at", staticmethod(fails_at))
        match = r"random walk steps \[321, 385\) failed: ArithmeticError: drawn out"
        for width in (0, 1):
            with rw_pool(width), rw_batches(64), pytest.raises(RuntimeError, match=match):
                run_random_walk(1000, 3)
        assert multiprocessing.active_children() == []

    def test_worker_exit_names_the_steps(self, monkeypatch):
        real = RandomSource.block_at

        def exits_at(seed, start, n, *, out):
            if start == 1 + 3 * 64:
                os._exit(3)
            return real(seed, start, n, out=out)

        monkeypatch.setattr(RandomSource, "block_at", staticmethod(exits_at))
        match = r"random walk steps \[193, 257\) failed: the worker exited"
        with rw_pool(1), rw_batches(64), pytest.raises(RuntimeError, match=match):
            run_random_walk(1000, 3)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_observer_raises_mid_walk(self, error):
        # KeyboardInterrupt stands for a SIGINT in the main process
        class RaisesOnThirdBatch(WalkObserver):
            batches = 0

            def observe(self, primes, digits, keys, key0):
                self.batches += 1
                if self.batches == 3:
                    raise error("stop")

        with rw_pool(1), rw_batches(64), pytest.raises(error):
            run_random_walk(1000, 3, [RaisesOnThirdBatch()])
        assert multiprocessing.active_children() == []


def near_edges(span):
    """Coordinates within `span` of either end of the packable range, or of 0."""
    return st.one_of(
        st.integers(-EDGE, -EDGE + span),
        st.integers(-span, span),
        st.integers(EDGE - 1 - span, EDGE - 1),
    )


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_advance_keys_match_step_oracle(data):
    rule = data.draw(st.sampled_from(list(RULES.values())))
    digits = data.draw(st.lists(st.sampled_from(WALK_DIGITS), min_size=1, max_size=40))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(digits)), max_size=4)) | {len(digits)})
    start = WalkState(data.draw(near_edges(len(digits))), data.draw(near_edges(len(digits))))
    rec, oracle = KeyRecorder(), start
    session = WalkSession(rule, [rec], state=start)
    progress = lambda s: (s.x, s.y, s.steps_taken)  # the oracle does not track N
    for a, b in zip([0, *cuts], cuts):
        batch = np.array(digits[a:b], dtype=np.uint8)
        before, path = oracle, []
        for d in batch.tolist():
            oracle = step(oracle, d, rule)
            path.append((oracle.x, oracle.y))
        if not all(-EDGE <= c < EDGE for xy in path for c in xy):
            delivered = len(rec.batches)
            with pytest.raises(ValueError, match="coordinate"):
                session.step(batch, batch.astype(np.int64))
            assert len(rec.batches) == delivered
            assert progress(session.state) == progress(before)
            return
        session.step(batch, batch.astype(np.int64))
        keys, key0 = rec.batches[-1]
        assert key0 == pack_xy(before.x, before.y)
        assert keys == [pack_xy(x, y) for x, y in path]
        assert progress(session.state) == progress(oracle)
