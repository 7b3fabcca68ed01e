"""Prime-digit lattice walks: sieve, walk engine and statistics.

The public names are imported from their modules on first use (PEP 562),
so `import primewalk` loads no numpy; `primewalk.cli` relies on that to
configure numpy's BLAS before it loads.
"""

from importlib import import_module

_MODULE = {
    "benford_table": "benford",
    "FitResult": "fitting",
    "fit_area_growth": "fitting",
    "linear_fit": "fitting",
    "AreaSeries": "grid",
    "GridObserver": "grid",
    "VisitMap": "grid",
    "recurrence_report": "grid",
    "PolarObserver": "polar",
    "delta_phi_histogram": "polar",
    "base_primes": "primes",
    "count_walk_primes": "primes",
    "iter_walk_prime_arrays": "primes",
    "short_run_fraction": "runs",
    "RULES": "walk",
    "A1": "walk",
    "A2": "walk",
    "A3": "walk",
    "Direction": "walk",
    "RandomSource": "walk",
    "WalkObserver": "walk",
    "WalkRule": "walk",
    "WalkState": "walk",
    "run_random_walk": "walk",
    "run_walk": "walk",
}

__all__ = sorted(_MODULE)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
