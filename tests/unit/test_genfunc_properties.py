"""Property-based suite for the generating-function engine.

Hypothesis generates random sets of per-term probability polynomials
(each a valid ``p_1 X^{e_1} + ... + p_k X^{e_k}`` with coefficients
summing to 1) and checks the invariants every estimator's correctness
rests on:

* mass conservation — ``total_mass ~= 1`` through the rounding of every
  multiply;
* factor-order invariance — the expansion is the same (up to exponent
  rounding) no matter the multiplication order;
* tail monotonicity — ``tail_mass`` never increases with the threshold.

The suite is marked ``slow``: CI runs it with the reduced deterministic
"ci" profile on pull requests and the full "ci-main" budget on main
(see tests/conftest.py).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import GenFunc

pytestmark = pytest.mark.slow

# -- strategies ----------------------------------------------------------------


@st.composite
def probability_polynomial(draw):
    """One per-term factor: 1-4 points, coefficients summing to 1."""
    size = draw(st.integers(min_value=1, max_value=4))
    exponents = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=size,
            max_size=size,
        )
    )
    raw = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=size,
            max_size=size,
        )
    )
    total = sum(raw)
    coeffs = [value / total for value in raw]
    return (np.asarray(exponents), np.asarray(coeffs))


polynomial_lists = st.lists(probability_polynomial(), min_size=1, max_size=6)


# -- mass conservation ---------------------------------------------------------


class TestMassConservation:
    @given(polynomials=polynomial_lists)
    def test_exact_expansion_conserves_mass(self, polynomials):
        expansion = GenFunc.product(polynomials)
        assert expansion.total_mass() == pytest.approx(1.0, abs=1e-9)


# -- factor-order invariance ---------------------------------------------------


class TestOrderInvariance:
    @given(
        polynomials=polynomial_lists,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_product_commutes(self, polynomials, seed):
        """Shuffling the factor order changes nothing but float noise.

        Exponent rounding happens after every multiplication, so two
        orders can differ by one rounding ulp per step — the comparison
        allows that and nothing more.
        """
        forward = GenFunc.product(polynomials)
        shuffled = list(polynomials)
        np.random.RandomState(seed).shuffle(shuffled)
        backward = GenFunc.product(shuffled)
        assert forward.n_terms == backward.n_terms
        np.testing.assert_allclose(
            forward.exponents, backward.exponents, atol=1e-8
        )
        np.testing.assert_allclose(forward.coeffs, backward.coeffs, atol=1e-9)


# -- tail monotonicity ---------------------------------------------------------


class TestTailMonotonicity:
    @given(
        polynomials=polynomial_lists,
        thresholds=st.lists(
            st.floats(min_value=-0.5, max_value=2.0),
            min_size=2,
            max_size=8,
        ),
    )
    def test_tail_mass_non_increasing(self, polynomials, thresholds):
        expansion = GenFunc.product(polynomials)
        ordered = sorted(thresholds)
        masses = [expansion.tail_mass(t) for t in ordered]
        for lower, higher in zip(masses, masses[1:]):
            assert higher <= lower + 1e-12

    @given(polynomials=polynomial_lists)
    def test_tail_profile_matches_scalar_readout(self, polynomials):
        """The vectorized grid readout is bit-identical to per-threshold
        calls — the property the batch pipeline's exactness rests on."""
        expansion = GenFunc.product(polynomials)
        grid = [-0.1, 0.0, 0.3, 0.7, 1.5]
        mass, moment = expansion.tail_profile(grid)
        for i, threshold in enumerate(grid):
            assert mass[i] == expansion.tail_mass(threshold)
            assert moment[i] == expansion.tail_first_moment(threshold)

