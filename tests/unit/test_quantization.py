"""Unit tests for the one-byte quantizer (Section 3.2)."""

import numpy as np
import pytest

from repro.stats import OneByteQuantizer, QuantizationGrid


class TestFit:
    def test_levels_default_256(self):
        grid = OneByteQuantizer().fit([0.0, 1.0])
        assert grid.levels == 256

    def test_fixed_bounds(self):
        grid = OneByteQuantizer(low=0.0, high=1.0).fit([0.4])
        assert grid.low == 0.0
        assert grid.high == 1.0

    def test_inferred_bounds(self):
        grid = OneByteQuantizer().fit([2.0, 5.0, 3.0])
        assert grid.low == 2.0
        assert grid.high == 5.0

    def test_empty_with_bounds_ok(self):
        grid = OneByteQuantizer(low=0.0, high=1.0).fit([])
        assert grid.levels == 256

    def test_empty_without_bounds_raises(self):
        with pytest.raises(ValueError):
            OneByteQuantizer().fit([])

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            OneByteQuantizer(levels=0)

    def test_inverted_bounds_raise(self):
        with pytest.raises(ValueError):
            OneByteQuantizer(low=1.0, high=0.0).fit([0.5])


class TestEncodeDecode:
    def test_roundtrip_error_bounded_by_interval(self):
        rng = np.random.default_rng(0)
        values = rng.random(1000)
        grid = OneByteQuantizer(low=0.0, high=1.0).fit(values)
        approx = grid.roundtrip(values)
        interval = 1.0 / 256
        assert np.max(np.abs(approx - values)) <= interval

    def test_decode_is_interval_average(self):
        # Paper scheme: each interval decodes to the mean of its members.
        values = [0.1, 0.101, 0.9]
        grid = OneByteQuantizer(levels=2, low=0.0, high=1.0).fit(values)
        approx = grid.roundtrip(values)
        assert approx[0] == pytest.approx((0.1 + 0.101) / 2)
        assert approx[2] == pytest.approx(0.9)

    def test_empty_interval_decodes_to_midpoint(self):
        grid = OneByteQuantizer(levels=4, low=0.0, high=1.0).fit([0.9])
        # Interval 0 saw no data; decoding code 0 gives its midpoint.
        assert grid.decode([0])[0] == pytest.approx(0.125)

    def test_out_of_range_values_clamp(self):
        grid = OneByteQuantizer(levels=4, low=0.0, high=1.0).fit([0.5])
        assert grid.encode([-5.0])[0] == 0
        assert grid.encode([5.0])[0] == 3

    def test_decode_bad_code_raises(self):
        grid = OneByteQuantizer(levels=4, low=0.0, high=1.0).fit([0.5])
        with pytest.raises(ValueError):
            grid.decode([4])
        with pytest.raises(ValueError):
            grid.decode([-1])

    def test_degenerate_range(self):
        grid = OneByteQuantizer().fit([3.0, 3.0, 3.0])
        assert grid.roundtrip([3.0])[0] == pytest.approx(3.0)

    def test_codes_within_byte(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0.0, 5.0, size=500)
        grid = OneByteQuantizer().fit(values)
        codes = grid.encode(values)
        assert codes.min() >= 0
        assert codes.max() <= 255

    def test_fit_roundtrip_convenience(self):
        values = [0.25, 0.75]
        out = OneByteQuantizer(low=0.0, high=1.0).fit(values).roundtrip(values)
        assert out.shape == (2,)

    def test_mass_preservation_on_uniform_data(self):
        # Interval-mean decoding keeps the overall mean nearly unchanged.
        rng = np.random.default_rng(2)
        values = rng.random(5000)
        approx = OneByteQuantizer(low=0.0, high=1.0).fit(values).roundtrip(values)
        assert approx.mean() == pytest.approx(values.mean(), abs=1e-6)

    def test_grid_is_frozen_dataclass(self):
        grid = OneByteQuantizer(low=0.0, high=1.0).fit([0.5])
        assert isinstance(grid, QuantizationGrid)
        with pytest.raises(AttributeError):
            grid.low = 2.0
