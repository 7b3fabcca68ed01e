"""Ordinary least-squares line fit with slope standard error.

Sums are accumulated with math.fsum so fits stay stable across hundreds of
checkpoints with magnitudes up to 1e9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class FitResult:
    slope: float
    intercept: float
    slope_stderr: float
    r_squared: float
    n_points: int


def linear_fit(xs, ys) -> FitResult:
    """OLS fit of ys against xs; stderr is the asymptotic slope error."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"length mismatch: {n} xs vs {len(ys)} ys")
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("xs are all equal; slope undefined")
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    # centred residuals: y - (intercept + slope*x) cancels when |x| >> spread
    sse = math.fsum(((y - mean_y) - slope * (x - mean_x)) ** 2 for x, y in zip(xs, ys))
    sst = math.fsum((y - mean_y) ** 2 for y in ys)
    if n > 2:
        stderr = math.sqrt(max(sse, 0.0) / (n - 2) / sxx)
    else:
        stderr = 0.0
    r_squared = 1.0 if sst == 0.0 else max(0.0, 1.0 - sse / sst)
    return FitResult(
        slope=slope,
        intercept=intercept,
        slope_stderr=stderr,
        r_squared=r_squared,
        n_points=n,
    )


def fit_area_growth(series, min_n_p: int = 10**6) -> FitResult:
    """Slope of covered area versus step count over the large-N_p tail.

    The early transient (n_p below min_n_p) is discarded; the remaining
    checkpoints are fit with a straight line.
    """
    xs = [np_ for np_ in series.n_p if np_ >= min_n_p]
    ys = [a for np_, a in zip(series.n_p, series.area) if np_ >= min_n_p]
    if len(xs) < 2:
        raise ValueError(
            f"need at least two checkpoints with n_p >= {min_n_p}, have {len(xs)}"
        )
    return linear_fit(xs, ys)
