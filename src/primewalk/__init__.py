"""Prime-digit lattice walks: sieve, walk engine and statistics."""

from .benford import benford_table
from .fitting import FitResult, fit_area_growth, linear_fit
from .grid import AreaSeries, GridObserver, VisitMap, recurrence_report
from .polar import PolarObserver, delta_phi_histogram
from .primes import base_primes, count_walk_primes, iter_walk_prime_arrays
from .runs import short_run_fraction
from .walk import (
    RULES,
    A1,
    A2,
    A3,
    Direction,
    RandomSource,
    WalkObserver,
    WalkRule,
    WalkState,
    run_random_walk,
    run_walk,
)

__all__ = [
    "A1",
    "A2",
    "A3",
    "AreaSeries",
    "Direction",
    "FitResult",
    "GridObserver",
    "PolarObserver",
    "RULES",
    "RandomSource",
    "VisitMap",
    "WalkObserver",
    "WalkRule",
    "WalkState",
    "base_primes",
    "benford_table",
    "count_walk_primes",
    "delta_phi_histogram",
    "fit_area_growth",
    "iter_walk_prime_arrays",
    "linear_fit",
    "recurrence_report",
    "run_random_walk",
    "run_walk",
    "short_run_fraction",
]

__version__ = "0.1.0"
