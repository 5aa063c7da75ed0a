"""Property-based tests for the statistics substrate."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.stats import (
    OneByteQuantizer,
    normal_cdf,
    normal_quantile,
    truncated_normal_mean_above,
    truncated_normal_tail_mass,
)


class TestNormalProperties:
    @given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
    @settings(max_examples=300, deadline=None)
    def test_quantile_cdf_inverse(self, p):
        assert math.isclose(normal_cdf(normal_quantile(p)), p,
                            rel_tol=1e-9, abs_tol=1e-12)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=300, deadline=None)
    def test_cdf_in_unit_interval(self, x):
        assert 0.0 <= normal_cdf(x) <= 1.0

    @given(st.floats(min_value=1e-6, max_value=0.5))
    @settings(max_examples=100, deadline=None)
    def test_quantile_antisymmetry(self, p):
        assert math.isclose(
            normal_quantile(p), -normal_quantile(1 - p), rel_tol=1e-7, abs_tol=1e-9
        )

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.01, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_truncated_mean_at_least_cutoff_and_mean(self, cutoff, mean, std):
        conditional = truncated_normal_mean_above(cutoff, mean, std)
        assert conditional >= mean - 1e-9
        assert conditional >= min(cutoff, conditional) - 1e-9

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.01, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_tail_mass_is_probability(self, cutoff, mean, std):
        mass = truncated_normal_tail_mass(cutoff, mean, std)
        assert 0.0 <= mass <= 1.0


class TestQuantizerProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                 max_size=200),
        st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_error_within_interval_width(self, values, levels):
        grid = OneByteQuantizer(levels=levels, low=0.0, high=1.0).fit(values)
        approx = grid.roundtrip(values)
        width = 1.0 / levels
        assert np.max(np.abs(approx - np.asarray(values))) <= width + 1e-12

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                    max_size=100))
    @settings(max_examples=150, deadline=None)
    def test_inferred_bounds_cover_data(self, values):
        grid = OneByteQuantizer().fit(values)
        codes = grid.encode(values)
        assert codes.min() >= 0
        assert codes.max() < grid.levels

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                    max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_quantization_idempotent(self, values):
        grid = OneByteQuantizer(low=0.0, high=1.0).fit(values)
        once = grid.roundtrip(values)
        twice = grid.roundtrip(once)
        assert np.allclose(once, twice)

