import os
import subprocess
import sys

import pytest

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


def test_star_import_binds_all():
    space = {}
    exec("from primewalk import *", space)
    assert set(space) - {"__builtins__"} == PUBLIC
    assert all(space[name] is getattr(primewalk, name) for name in PUBLIC)


def test_dir_lists_the_public_names():
    assert PUBLIC <= set(dir(primewalk))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        primewalk.no_such_name
    assert not hasattr(primewalk, "no_such_name")


def test_import_loads_no_numpy():
    code = "import os, sys, primewalk; print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]
