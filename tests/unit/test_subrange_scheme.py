"""Unit tests for SubrangeScheme."""

import pytest

from repro.representatives import SubrangeScheme


class TestEqualScheme:
    def test_four_equal_matches_paper_exposition(self):
        scheme = SubrangeScheme.equal(4)
        assert scheme.median_percentiles == (87.5, 62.5, 37.5, 12.5)
        assert scheme.masses == (0.25,) * 4
        assert not scheme.include_max

    def test_equal_offsets_match_example_33(self):
        # Example 3.3: c1 = 1.15, c2 = 0.318, c3 = -0.318, c4 = -1.15.
        offsets = SubrangeScheme.equal(4).normal_offsets()
        assert offsets[0] == pytest.approx(1.15, abs=5e-3)
        assert offsets[1] == pytest.approx(0.318, abs=5e-3)
        assert offsets[2] == pytest.approx(-0.318, abs=5e-3)
        assert offsets[3] == pytest.approx(-1.15, abs=5e-3)

    def test_equal_two(self):
        scheme = SubrangeScheme.equal(2)
        assert scheme.median_percentiles == (75.0, 25.0)

    def test_equal_one(self):
        scheme = SubrangeScheme.equal(1)
        assert scheme.median_percentiles == (50.0,)
        assert scheme.normal_offsets()[0] == pytest.approx(0.0, abs=1e-12)

    def test_equal_invalid(self):
        with pytest.raises(ValueError):
            SubrangeScheme.equal(0)

    def test_equal_with_max(self):
        scheme = SubrangeScheme.equal(4, include_max=True)
        assert len(scheme.masses) == 4 and scheme.include_max  # 5 in all


class TestPaperSix:
    def test_medians(self):
        scheme = SubrangeScheme.paper_six()
        assert scheme.median_percentiles == (98.0, 93.1, 70.0, 37.5, 12.5)

    def test_six_subranges_total(self):
        scheme = SubrangeScheme.paper_six()
        assert len(scheme.masses) == 5 and scheme.include_max  # + max = 6

    def test_includes_max(self):
        assert SubrangeScheme.paper_six().include_max

    def test_masses_sum_to_one(self):
        assert sum(SubrangeScheme.paper_six().masses) == pytest.approx(1.0)

    def test_narrow_subranges_at_top(self):
        # The paper uses narrower subranges for large weights.
        masses = SubrangeScheme.paper_six().masses
        assert masses[0] < masses[2]
        assert masses[1] < masses[2]

    def test_offsets_descending(self):
        offsets = SubrangeScheme.paper_six().normal_offsets()
        assert list(offsets) == sorted(offsets, reverse=True)


class TestValidation:
    def test_mass_median_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            SubrangeScheme((50.0,), (0.5, 0.5))

    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SubrangeScheme((75.0, 25.0), (0.5, 0.4))

    def test_percentile_bounds(self):
        with pytest.raises(ValueError, match="percentile"):
            SubrangeScheme((100.0,), (1.0,))
        with pytest.raises(ValueError, match="percentile"):
            SubrangeScheme((0.0,), (1.0,))

    def test_descending_required(self):
        with pytest.raises(ValueError, match="descending"):
            SubrangeScheme((25.0, 75.0), (0.5, 0.5))

    def test_positive_masses(self):
        with pytest.raises(ValueError, match="positive"):
            SubrangeScheme((75.0, 25.0), (1.0, -0.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SubrangeScheme((), ())

    def test_frozen(self):
        scheme = SubrangeScheme.equal(2)
        with pytest.raises(AttributeError):
            scheme.masses = (1.0,)

    def test_repr(self):
        assert "include_max=True" in repr(SubrangeScheme.paper_six())
