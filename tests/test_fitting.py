import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primewalk.fitting import fit_area_growth, linear_fit
from primewalk.grid import AreaSeries


def covariance_fit_oracle(xs, ys):
    """Independently coded two-pass covariance formula for slope/intercept."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / n
    var = sum((x - mx) ** 2 for x in xs) / n
    slope = cov / var
    return slope, my - slope * mx


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([0, 1, 2], [0, 2, 4])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_flat_line(self):
        fit = linear_fit([0, 1], [5, 5])
        assert fit.slope == 0.0
        assert fit.intercept == 5.0

    def test_hand_ols(self):
        # closed form: slope = Sxy/Sxx = 6.5/5 = 1.3, intercept = -0.2
        fit = linear_fit([0, 1, 2, 3], [0, 1, 2, 4])
        assert fit.slope == pytest.approx(1.3, abs=1e-12)
        assert fit.intercept == pytest.approx(-0.2, abs=1e-12)
        # SSE = sum of squared residuals at (-0.2 + 1.3x)
        residuals = [y - (-0.2 + 1.3 * x) for x, y in zip([0, 1, 2, 3], [0, 1, 2, 4])]
        sse = sum(r * r for r in residuals)
        expected_stderr = math.sqrt(sse / 2 / 5.0)
        assert fit.slope_stderr == pytest.approx(expected_stderr, rel=1e-12)

    def test_contract_errors(self):
        with pytest.raises(ValueError):
            linear_fit([0, 1], [0])
        with pytest.raises(ValueError):
            linear_fit([1], [1])
        with pytest.raises(ValueError):
            linear_fit([2, 2, 2], [1, 2, 3])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6),
                st.floats(min_value=-1e6, max_value=1e6),
            ),
            min_size=3,
            max_size=50,
        ),
        st.floats(min_value=-1e5, max_value=1e5),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, points, shift):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        if max(xs) - min(xs) < 1.0:
            return
        base = linear_fit(xs, ys)
        shifted = linear_fit(xs, [y + shift for y in ys])
        assert shifted.slope == pytest.approx(base.slope, abs=1e-12 * max(1, abs(base.slope)))
        assert shifted.intercept == pytest.approx(base.intercept + shift, rel=1e-6, abs=1e-5)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6),
                st.floats(min_value=-1e6, max_value=1e6),
            ),
            min_size=3,
            max_size=50,
        ),
        st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    # an exact fit: both stderrs are rounding noise, 1.26e-12 apart
    @example(points=[(0.0, 0.0), (0.0, 0.0), (1.25, 9985.0)], c=1.5)
    # xs far from 0 next to their spread: uncentred residuals cancel
    @example(points=[(1e6 + 0.25, 0.0), (1e6 + 0.59, 0.0), (1e6 + 1.37, 5.0)], c=5.2)
    def test_scale_equivariance(self, points, c):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        if max(xs) - min(xs) < 1.0:
            return
        # the residuals carry rounding of a few ulps of the largest |c*y|
        noise = max(1e-12, 8 * np.finfo(np.float64).eps * max(abs(c * y) for y in ys))
        base = linear_fit(xs, ys)
        scaled = linear_fit(xs, [c * y for y in ys])
        assert scaled.slope == pytest.approx(c * base.slope, rel=1e-12, abs=1e-12)
        assert scaled.slope_stderr == pytest.approx(
            abs(c) * base.slope_stderr, rel=1e-12, abs=noise
        )

    def test_agrees_with_covariance_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xs = rng.uniform(-1000, 1000, size=30).tolist()
            ys = (2.5 * np.asarray(xs) + rng.normal(0, 10, size=30)).tolist()
            fit = linear_fit(xs, ys)
            slope, intercept = covariance_fit_oracle(xs, ys)
            assert fit.slope == pytest.approx(slope, rel=1e-10)
            assert fit.intercept == pytest.approx(intercept, rel=1e-8, abs=1e-8)


class TestFitAreaGrowth:
    def _series(self, n_ps, areas):
        s = AreaSeries()
        for i, (np_, a) in enumerate(zip(n_ps, areas)):
            s.checkpoint(i + 1, np_, a)
        return s

    def test_planted_line(self):
        n_ps = [10**6 * k for k in range(1, 10)]
        areas = [int(0.03 * v) for v in n_ps]
        fit = fit_area_growth(self._series(n_ps, areas), min_n_p=10**6)
        assert fit.slope == pytest.approx(0.03, rel=1e-9)
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-9)

    def test_window_filters_transient(self):
        n_ps = [10, 100, 10**6, 2 * 10**6, 3 * 10**6]
        areas = [500, 900, 30_000, 60_000, 90_000]
        fit = fit_area_growth(self._series(n_ps, areas), min_n_p=10**6)
        assert fit.n_points == 3
        assert fit.slope == pytest.approx(0.03, rel=1e-9)

    def test_too_few_rows_rejected(self):
        s = self._series([10, 20], [5, 8])
        with pytest.raises(ValueError):
            fit_area_growth(s, min_n_p=10**6)
