"""Property-based tests for the generating-function engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GenFunc

# A per-term probability polynomial: (exponents, coeffs) with mass <= 1 plus
# the complementary zero-exponent term — exactly what estimators emit.
probabilities = st.lists(
    st.floats(min_value=1e-6, max_value=1.0),
    min_size=1,
    max_size=4,
)
weights = st.lists(
    st.floats(min_value=0.0, max_value=1.0),
    min_size=1,
    max_size=4,
)


@st.composite
def term_polynomials(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    exps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=k, max_size=k,
        )
    )
    raw = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0),
            min_size=k, max_size=k,
        )
    )
    total = sum(raw)
    # An occurrence probability is df / n >= 1 / n, never subnormal: a
    # 5e-324 tail mass is positive yet its first moment underflows to 0.0
    # (pinned in test_subnormal_tail_mass_underflows_first_moment).
    p = draw(st.just(0.0) | st.floats(min_value=1e-9, max_value=1.0))
    coeffs = [p * r / total for r in raw] + [1.0 - p]
    return (np.array(exps + [0.0]), np.array(coeffs))


@st.composite
def polynomial_products(draw):
    n_terms = draw(st.integers(min_value=1, max_value=5))
    return [draw(term_polynomials()) for __ in range(n_terms)]


class TestMassConservation:
    @given(polynomial_products())
    @settings(max_examples=150, deadline=None)
    def test_total_mass_is_one(self, polys):
        g = GenFunc.product(polys)
        assert abs(g.total_mass() - 1.0) < 1e-9


class TestReadoutInvariants:
    @given(polynomial_products(), st.floats(min_value=-0.1, max_value=6.1))
    @settings(max_examples=150, deadline=None)
    def test_nodoc_within_bounds(self, polys, threshold):
        g = GenFunc.product(polys)
        nodoc = g.est_nodoc(threshold, 100)
        assert -1e-9 <= nodoc <= 100 + 1e-6

    @given(polynomial_products())
    @settings(max_examples=100, deadline=None)
    def test_nodoc_monotone_nonincreasing_in_threshold(self, polys):
        g = GenFunc.product(polys)
        thresholds = np.linspace(0.0, 6.0, 13)
        values = [g.est_nodoc(t, 50) for t in thresholds]
        for a, b in zip(values, values[1:]):
            assert a >= b - 1e-9

    @given(polynomial_products(), st.floats(min_value=0.0, max_value=6.0))
    @settings(max_examples=100, deadline=None)
    def test_avgsim_exceeds_threshold_when_positive(self, polys, threshold):
        g = GenFunc.product(polys)
        avgsim = g.est_avgsim(threshold)
        if g.tail_mass(threshold) > 0:
            assert avgsim > threshold
        else:
            assert avgsim == 0.0

    def test_subnormal_tail_mass_underflows_first_moment(self):
        """The falsifying example the strategy above used to draw: a
        subnormal probability leaves a positive tail mass whose first
        moment ``5e-324 * 0.5`` underflows, so AvgSim reads 0.0 — no
        representative can produce it (p >= 1 / n), and nothing raises."""
        poly = (np.array([0.0, 0.5, 0.0, 0.0]), np.array([0.0, 5e-324, 0.0, 1.0]))
        g = GenFunc.product([poly])
        assert g.tail_mass(0.0) == 5e-324
        assert g.est_avgsim(0.0) == 0.0

    @given(polynomial_products())
    @settings(max_examples=100, deadline=None)
    def test_exponents_sorted_unique(self, polys):
        g = GenFunc.product(polys)
        assert np.all(np.diff(g.exponents) > 0)

    @given(polynomial_products())
    @settings(max_examples=100, deadline=None)
    def test_coeffs_nonnegative(self, polys):
        g = GenFunc.product(polys)
        assert np.all(g.coeffs >= 0)


class TestAlgebraicProperties:
    @given(polynomial_products())
    @settings(max_examples=60, deadline=None)
    def test_product_order_invariance(self, polys):
        forward = GenFunc.product(polys)
        backward = GenFunc.product(list(reversed(polys)))
        assert forward.tail_mass(0.25) == np.float64(
            backward.tail_mass(0.25)
        ).item() or abs(forward.tail_mass(0.25) - backward.tail_mass(0.25)) < 1e-9

    @given(term_polynomials())
    @settings(max_examples=100, deadline=None)
    def test_identity_multiplication(self, poly):
        exps, coeffs = poly
        direct = GenFunc.from_terms(np.round(exps, 8), coeffs)
        via_product = GenFunc.one().multiplied(exps, coeffs)
        assert direct.n_terms == via_product.n_terms
        assert np.allclose(direct.coeffs, via_product.coeffs)
