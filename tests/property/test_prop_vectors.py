"""Property-based tests for sparse vectors and similarity."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.vsm import SparseVector, cosine_similarity


@st.composite
def sparse_vectors(draw, max_dim=40):
    mapping = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=max_dim),
            st.floats(min_value=0.0, max_value=100.0),
            max_size=10,
        )
    )
    return SparseVector.from_mapping(mapping)


class TestVectorAlgebra:
    @given(sparse_vectors(), sparse_vectors())
    @settings(max_examples=200, deadline=None)
    def test_dot_symmetry(self, a, b):
        assert a.dot(b) == b.dot(a)

    @given(sparse_vectors(), sparse_vectors())
    @settings(max_examples=200, deadline=None)
    def test_cauchy_schwarz(self, a, b):
        assert abs(a.dot(b)) <= a.norm() * b.norm() * (1 + 1e-9) + 1e-12

    @given(sparse_vectors())
    @settings(max_examples=200, deadline=None)
    def test_dot_with_self_is_norm_squared(self, a):
        assert a.dot(a) == np.float64(a.norm() ** 2).item() or \
            math.isclose(a.dot(a), a.norm() ** 2, rel_tol=1e-9, abs_tol=1e-12)

    @given(sparse_vectors())
    @settings(max_examples=200, deadline=None)
    def test_normalized_has_unit_norm_or_is_zero(self, a):
        n = a.normalized().norm()
        assert n == 0.0 or math.isclose(n, 1.0, rel_tol=1e-9)

    @given(sparse_vectors(), st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_scaling_scales_norm(self, a, factor):
        assert math.isclose(
            a.scaled(factor).norm(), a.norm() * factor, rel_tol=1e-9, abs_tol=1e-12
        )

    @given(sparse_vectors())
    @settings(max_examples=100, deadline=None)
    def test_mapping_roundtrip(self, a):
        assert SparseVector.from_mapping(a.to_mapping()) == a


class TestCosineProperties:
    @given(sparse_vectors(), sparse_vectors())
    @settings(max_examples=200, deadline=None)
    def test_cosine_in_unit_interval_for_nonnegative(self, a, b):
        sim = cosine_similarity(a, b)
        assert -1e-9 <= sim <= 1.0 + 1e-9

    @given(sparse_vectors(), st.floats(min_value=0.01, max_value=100.0))
    @example(SparseVector.from_mapping({0: 5e-324}), 0.5)
    @settings(max_examples=100, deadline=None)
    def test_cosine_scale_invariant(self, a, factor):
        b = a.scaled(factor)
        # An empty vector has cosine 0 by definition; scaling can empty one
        # too, by rounding subnormal weights to zero (5e-324 * 0.5 == 0.0).
        if a.norm() == 0.0 or b.norm() == 0.0:
            return
        assert math.isclose(cosine_similarity(a, b), 1.0, rel_tol=1e-9)
