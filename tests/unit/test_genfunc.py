"""Unit tests for the generating-function engine."""

import numpy as np
import pytest

from repro.core import GenFunc
from repro.core.genfunc import BatchedGenFunc


class TestConstruction:
    def test_one(self):
        g = GenFunc.one()
        assert g.n_terms == 1
        assert g.total_mass() == 1.0
        assert g.max_exponent() == 0.0

    def test_from_terms_merges_duplicates(self):
        g = GenFunc.from_terms([1.0, 0.0, 1.0], [0.2, 0.5, 0.3])
        assert g.n_terms == 2
        assert g.coeffs.tolist() == [0.5, 0.5]

    def test_ascending_invariant_enforced(self):
        with pytest.raises(ValueError, match="ascending"):
            GenFunc([2.0, 1.0], [0.5, 0.5])

    def test_negative_coeff_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GenFunc([0.0], [-0.1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GenFunc([0.0, 1.0], [1.0])

    def test_empty(self):
        g = GenFunc([], [])
        assert g.total_mass() == 0.0
        assert g.max_exponent() == float("-inf")


class TestMultiply:
    def test_single_factor(self):
        g = GenFunc.one().multiplied([2.0, 0.0], [0.6, 0.4])
        assert g.exponents.tolist() == [0.0, 2.0]
        assert g.coeffs.tolist() == [0.4, 0.6]

    def test_example_31_expansion(self):
        """Example 3.2: (0.6X^2+0.4)(0.2X+0.8)(0.4X^2+0.6)."""
        g = GenFunc.product(
            [
                ([2.0, 0.0], [0.6, 0.4]),
                ([1.0, 0.0], [0.2, 0.8]),
                ([2.0, 0.0], [0.4, 0.6]),
            ]
        )
        expected = {0.0: 0.192, 1.0: 0.048, 2.0: 0.416, 3.0: 0.104,
                    4.0: 0.192, 5.0: 0.048}
        assert g.n_terms == 6
        for exponent, coeff in zip(g.exponents, g.coeffs):
            assert coeff == pytest.approx(expected[float(exponent)])

    def test_mass_conserved(self):
        g = GenFunc.product(
            [([0.3, 0.0], [0.5, 0.5]), ([0.7, 0.0], [0.25, 0.75])]
        )
        assert g.total_mass() == pytest.approx(1.0)

    def test_rounding_merges_nearby_exponents(self):
        # 1e-9 apart: one exponent at 8 decimals.
        g = GenFunc.one().multiplied([0.100000001, 0.1], [0.5, 0.5])
        assert g.n_terms == 1
        assert g.coeffs[0] == pytest.approx(1.0)

    def test_empty_factor_rejected(self):
        """An empty factor would return the zero polynomial, silently
        breaking the ``mass ~= 1`` invariant."""
        with pytest.raises(ValueError, match="non-empty"):
            GenFunc.one().multiplied([], [])

    def test_bad_factor_shapes(self):
        with pytest.raises(ValueError):
            GenFunc.one().multiplied([1.0, 2.0], [0.5])

    def test_immutability_of_receiver(self):
        g = GenFunc.one()
        g.multiplied([1.0, 0.0], [0.5, 0.5])
        assert g.n_terms == 1

    def test_growth_bounded_by_product(self):
        factors = [([i + 0.5, 0.0], [0.5, 0.5]) for i in range(6)]
        g = GenFunc.product(factors)
        assert g.n_terms <= 2**6


class TestBatchedMultiplyRowsValidation:
    """``multiply_rows`` rejects what its kernels would mishandle, before
    either runs: two rows take the per-row merge, eight the padded one."""

    @staticmethod
    def factor(n_rows):
        return (
            np.tile([1.0, 0.0], (n_rows, 1)),
            np.tile([0.5, 0.5], (n_rows, 1)),
        )

    @pytest.mark.parametrize("n_rows", [2, 8])
    def test_factor_len_past_the_factor_width_rejected(self, n_rows):
        fexp, fcoef = self.factor(n_rows)
        batch = BatchedGenFunc.ones(n_rows)
        with pytest.raises(ValueError, match="factor_len must not exceed"):
            batch.multiply_rows(
                np.arange(n_rows), fexp, fcoef, np.full(n_rows, 3)
            )

    @pytest.mark.parametrize("n_rows", [2, 8])
    def test_repeated_rows_rejected(self, n_rows):
        fexp, fcoef = self.factor(n_rows)
        batch = BatchedGenFunc.ones(n_rows)
        rows = np.array([0] + list(range(n_rows - 1)))  # [0, 0, 1, ...]
        with pytest.raises(ValueError, match="distinct"):
            batch.multiply_rows(rows, fexp, fcoef)
        # Nothing was written: every row is still the identity.
        for r in range(n_rows):
            assert batch.row(r).exponents.tolist() == [0.0]

    @pytest.mark.parametrize("n_rows", [2, 8])
    def test_distinct_unsorted_rows_accepted(self, n_rows):
        fexp, fcoef = self.factor(n_rows)
        batch = BatchedGenFunc.ones(n_rows)
        batch.multiply_rows(np.arange(n_rows)[::-1], fexp, fcoef)
        for r in range(n_rows):
            assert batch.row(r).exponents.tolist() == [0.0, 1.0]


class TestReadout:
    @pytest.fixture
    def example(self):
        return GenFunc.product(
            [
                ([2.0, 0.0], [0.6, 0.4]),
                ([1.0, 0.0], [0.2, 0.8]),
                ([2.0, 0.0], [0.4, 0.6]),
            ]
        )

    def test_est_nodoc_matches_paper(self, example):
        assert example.est_nodoc(3.0, 5) == pytest.approx(1.2)

    def test_est_avgsim_matches_paper(self, example):
        assert example.est_avgsim(3.0) == pytest.approx(4.2)

    def test_threshold_strictly_greater(self, example):
        # est_NoDoc counts exponents strictly above T: at T=4.0 only X^5.
        assert example.est_nodoc(4.0, 5) == pytest.approx(5 * 0.048)

    def test_threshold_below_all(self, example):
        assert example.est_nodoc(-0.5, 5) == pytest.approx(5.0)

    def test_threshold_above_all(self, example):
        assert example.est_nodoc(5.0, 5) == 0.0
        assert example.est_avgsim(5.0) == 0.0

    def test_nodoc_monotone_in_threshold(self, example):
        values = [example.est_nodoc(t, 5) for t in np.linspace(0, 5, 21)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_avgsim_at_least_threshold(self, example):
        for t in (0.5, 1.5, 2.5, 3.5, 4.5):
            avg = example.est_avgsim(t)
            if avg > 0:
                assert avg > t

    def test_tail_mass(self, example):
        assert example.tail_mass(2.0) == pytest.approx(0.104 + 0.192 + 0.048)

    def test_tail_first_moment(self, example):
        expected = 0.104 * 3 + 0.192 * 4 + 0.048 * 5
        assert example.tail_first_moment(2.0) == pytest.approx(expected)

    def test_repr(self, example):
        assert "terms=6" in repr(example)
