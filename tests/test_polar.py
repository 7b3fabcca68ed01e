import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primewalk.polar import (
    DPHI_BINS,
    DPHI_EDGES,
    PolarObserver,
    delta_phi_histogram,
    wrap_angle,
)
from primewalk.walk import A1, run_random_walk, run_walk

from conftest import PathRecorder, delta_series, rw_batches, sieve_segments, to_polar


class TestToPolar:
    def test_positive_x_axis(self):
        assert to_polar(1, 0) == (1.0, 0.0)

    def test_positive_y_axis(self):
        r, phi = to_polar(0, 2)
        assert r == 2.0
        assert phi == pytest.approx(math.pi / 2, abs=1e-12)

    def test_quadrant_three(self):
        r, phi = to_polar(-1, -1)
        assert r == pytest.approx(math.sqrt(2), abs=1e-12)
        assert phi == pytest.approx(-3 * math.pi / 4, abs=1e-12)

    def test_negative_x_axis_maps_to_pi(self):
        _, phi = to_polar(-3, 0)
        assert phi == pytest.approx(math.pi, abs=1e-12)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            to_polar(0, 0)


class TestDeltaSeries:
    def test_diagonal_step(self):
        d = delta_series([(1, 0), (1, 1)])
        assert len(d) == 1
        assert d.d_r[0] == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
        assert d.d_phi[0] == pytest.approx(math.pi / 4, abs=1e-12)
        assert d.steps.tolist() == [1]

    def test_radial_step(self):
        d = delta_series([(0, 1), (0, 2)])
        assert d.d_r[0] == pytest.approx(1.0, abs=1e-12)
        assert d.d_phi[0] == pytest.approx(0.0, abs=1e-12)

    def test_origin_pairs_skipped(self):
        d = delta_series([(1, 0), (0, 0), (1, 0)])
        assert len(d) == 0
        assert d.skipped == 2

    def test_accounting(self):
        traj = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0), (0, -1)]
        d = delta_series(traj)
        assert len(d) + d.skipped == len(traj) - 1

    def test_ranges(self):
        rng = np.random.default_rng(1)
        pos = [(0, 0)]
        for _ in range(2000):
            dx, dy = [(0, 1), (0, -1), (1, 0), (-1, 0)][rng.integers(4)]
            pos.append((pos[-1][0] + dx, pos[-1][1] + dy))
        d = delta_series(pos)
        assert np.all(np.abs(d.d_r) <= 1.0 + 1e-12)
        assert np.all(d.d_phi > -math.pi)
        assert np.all(d.d_phi <= math.pi)
        # the scalar oracle gives the same increments, pair by pair
        for i, step in enumerate(d.steps.tolist()):
            (r0, phi0), (r1, phi1) = to_polar(*pos[step - 1]), to_polar(*pos[step])
            assert d.d_r[i] == pytest.approx(r1 - r0, abs=1e-12)
            assert d.d_phi[i] == pytest.approx(
                float(wrap_angle(np.array([phi1 - phi0]))[0]), abs=1e-12
            )

    # raw angle differences of two (-pi, pi] angles always lie in (-2pi, 2pi)
    @given(st.floats(min_value=-2 * math.pi + 1e-9, max_value=2 * math.pi - 1e-9))
    @settings(max_examples=100)
    def test_wrap_angle_range(self, raw):
        w = float(wrap_angle(np.array([raw]))[0])
        if -math.pi < raw <= math.pi:
            assert w == raw
        assert -math.pi < w <= math.pi + 1e-15


def assert_matches_posthoc_series(walk):
    rec = PathRecorder()
    obs = PolarObserver()
    walk([rec, obs])
    post = delta_series(rec.path)
    counts = delta_phi_histogram(post.d_phi)
    assert np.array_equal(obs.deltas.counts, counts)
    assert obs.deltas.skipped == post.skipped
    assert len(obs.deltas) == len(post)


class TestPolarObserver:
    def test_matches_posthoc_series(self):
        with sieve_segments(256) as segments:
            assert_matches_posthoc_series(lambda obs: run_walk(50_000, A1, obs))
        assert segments.call_count > 1

    def test_matches_posthoc_series_rw(self):
        with rw_batches(4096) as draws:
            assert_matches_posthoc_series(lambda obs: run_random_walk(30_000, 5, obs))
        assert draws.call_count > 1

    def test_sample_accounting(self):
        obs = PolarObserver()
        summary = run_walk(10_000, A1, [obs])
        assert len(obs.deltas) + obs.deltas.skipped == summary.steps_taken

    def test_state_roundtrip(self):
        obs = PolarObserver()
        run_walk(1000, A1, [obs])
        restored = PolarObserver.from_state(obs.state())
        assert np.array_equal(restored.deltas.counts, obs.deltas.counts)
        assert restored.deltas.skipped == obs.deltas.skipped
        run_walk(2000, A1, [restored])
        assert len(restored.deltas) > len(obs.deltas)  # no shared counts

    def test_state_size_constant(self):
        def shape(limit):
            obs = PolarObserver()
            run_walk(limit, A1, [obs])
            return {k: np.shape(v) for k, v in obs.state().items()}

        assert shape(10**4) == shape(10**6) == {"counts": (DPHI_BINS,), "skipped": ()}


class TestDeltaPhiHistogram:
    """Bin i of DPHI_EDGES holds the samples d with edges[i] < d <= edges[i + 1]."""

    def test_single_zero_sample(self):
        counts = delta_phi_histogram(np.array([0.0]))
        assert counts.sum() == 1
        (i,) = np.flatnonzero(counts)
        assert DPHI_EDGES[i] < 0.0 <= DPHI_EDGES[i + 1]

    def test_empty(self):
        counts = delta_phi_histogram(np.array([]))
        assert counts.tolist() == [0] * DPHI_BINS

    def test_counts_sum(self):
        rng = np.random.default_rng(2)
        # uniform samples, and every edge but -pi: each belongs to the bin below it
        samples = np.concatenate((rng.uniform(-math.pi + 1e-9, math.pi, size=10_000),
                                  DPHI_EDGES[1:]))
        counts = delta_phi_histogram(samples)
        assert counts.sum() == len(samples)
        lo, hi = DPHI_EDGES[:-1, None], DPHI_EDGES[1:, None]
        assert counts.tolist() == ((samples > lo) & (samples <= hi)).sum(axis=1).tolist()

    def test_boundary_pi_in_last_bin(self):
        counts = delta_phi_histogram(np.array([math.pi]))
        assert counts[DPHI_BINS - 1] == 1

    @pytest.mark.parametrize("value", [4.0, math.nan, -4.0, -math.pi])
    def test_out_of_range_refused(self, value):
        with pytest.raises(ValueError, match="outside"):
            delta_phi_histogram(np.array([0.0, value]))
