import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primewalk.benford import BENFORD_EXPECTED, benford_table, leading_digits

from conftest import leading_digit, value_benford_table


class TestLeadingDigit:
    def test_examples(self):
        assert leading_digit(1) == 1
        assert leading_digit(455_052_509) == 4
        assert leading_digit(907) == 9
        assert leading_digits(np.array([1, 455_052_509, 907])).tolist() == [1, 4, 9]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            leading_digit(0)
        with pytest.raises(ValueError):
            leading_digit(-5)
        for values in ([0], [3, -5]):
            with pytest.raises(ValueError):
                leading_digits(np.array(values))

    def test_vectorized_matches_scalar(self):
        values = np.arange(1, 5000)
        vec = leading_digits(values)
        assert all(int(v) == leading_digit(int(n)) for n, v in zip(values, vec))


class TestExpected:
    def test_log10_two(self):
        assert BENFORD_EXPECTED[0] == pytest.approx(math.log10(2), abs=1e-15)

    def test_digit_nine(self):
        assert BENFORD_EXPECTED[9 - 1] == pytest.approx(math.log10(10 / 9), abs=1e-15)

    def test_telescoping_sum(self):
        assert len(BENFORD_EXPECTED) == 9
        assert BENFORD_EXPECTED.sum() == pytest.approx(1.0, abs=1e-12)


def table_of(values):
    """benford_table of a population, through its leading-digit counts."""
    return benford_table(np.bincount(leading_digits(np.asarray(values)), minlength=10)[1:])


class TestBenfordTable:
    def test_uniform_digits(self):
        table = benford_table([1] * 9)
        assert np.allclose(table.observed, 1 / 9)
        assert table.max_abs_dev == pytest.approx(abs(1 / 9 - math.log10(2)), abs=1e-12)
        assert table.sample_size == 9

    def test_all_ones(self):
        table = benford_table([4, 0, 0, 0, 0, 0, 0, 0, 0])
        assert table.observed[0] == 1.0
        assert table.observed[1:].sum() == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            benford_table([0] * 9)

    @pytest.mark.parametrize(
        "counts", [[1] * 8, [1] * 10, [1.0] * 9, [1, 1, 1, 1, -1, 1, 1, 1, 1]],
        ids=["eight", "ten", "fractional", "negative"],
    )
    def test_malformed_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="nine integer counts"):
            benford_table(counts)

    def test_proportions_sum_to_one(self):
        table = table_of(np.arange(1, 100_000))
        assert table.observed.sum() == pytest.approx(1.0, abs=1e-12)
        assert table.expected.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_counts_table_matches_value_oracle(self, values):
        got, want = table_of(values), value_benford_table(values)
        assert np.array_equal(got.observed, want.observed)
        assert np.array_equal(got.expected, want.expected)
        assert (got.sample_size, got.max_abs_dev, got.chi_square) == (
            want.sample_size, want.max_abs_dev, want.chi_square
        )

    @given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_permutation_and_decimal_shift_invariance(self, values):
        base = table_of(values)
        shuffled = table_of(list(reversed(values)))
        scaled = table_of([v * 10 for v in values])
        assert np.array_equal(base.observed, shuffled.observed)
        assert np.array_equal(base.observed, scaled.observed)

    def test_geometric_population_conforms(self):
        # a geometric series spans decades log-uniformly, hence Benford
        values = [int(1.01**k) for k in range(200, 3000)]
        table = table_of(values)
        assert table.max_abs_dev < 0.01
