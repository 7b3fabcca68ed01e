import primewalk

# Scalar reference versions live in tests/conftest.py, not here.
PUBLIC = {
    "A1", "A2", "A3", "RULES", "Direction", "WalkRule", "WalkState", "WalkObserver",
    "RandomSource", "run_walk", "run_random_walk",
    "base_primes", "count_walk_primes", "iter_walk_prime_arrays",
    "AreaSeries", "GridObserver", "VisitMap", "recurrence_report",
    "short_run_fraction",
    "PolarObserver", "delta_phi_histogram",
    "benford_table",
    "FitResult", "fit_area_growth", "linear_fit",
}


def test_public_names_are_pinned_and_resolve():
    assert sorted(primewalk.__all__) == sorted(PUBLIC)
    for name in primewalk.__all__:
        assert getattr(primewalk, name) is not None
