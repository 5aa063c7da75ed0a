"""Unit tests for engine-selection policies."""

import numpy as np
import pytest

from repro.core import Usefulness
from repro.metasearch import (
    EstimatedUsefulness,
    EstimateRow,
    ThresholdPolicy,
    TopKPolicy,
)


def estimates(*pairs):
    return [
        EstimatedUsefulness(engine=name, usefulness=Usefulness(nodoc, avgsim))
        for name, nodoc, avgsim in pairs
    ]


class TestThresholdPolicy:
    def test_selects_rounded_nodoc_at_least_one(self):
        policy = ThresholdPolicy()
        chosen = policy.select(
            estimates(("a", 2.0, 0.5), ("b", 0.4, 0.9), ("c", 0.6, 0.1))
        )
        assert set(chosen) == {"a", "c"}

    def test_best_first_ordering(self):
        policy = ThresholdPolicy()
        chosen = policy.select(
            estimates(("low", 1.0, 0.2), ("high", 9.0, 0.4))
        )
        assert chosen == ["high", "low"]

    def test_ties_broken_by_avgsim_then_name(self):
        policy = ThresholdPolicy()
        chosen = policy.select(
            estimates(("b", 2.0, 0.3), ("a", 2.0, 0.3), ("c", 2.0, 0.9))
        )
        assert chosen == ["c", "a", "b"]

    def test_min_nodoc_raises_bar(self):
        policy = ThresholdPolicy(min_nodoc=3)
        chosen = policy.select(estimates(("a", 2.0, 0.5), ("b", 3.2, 0.5)))
        assert chosen == ["b"]

    def test_empty_estimates(self):
        assert ThresholdPolicy().select([]) == []

    def test_invalid_min_nodoc(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(min_nodoc=0)


class TestTopKPolicy:
    def test_takes_k_best(self):
        policy = TopKPolicy(2)
        chosen = policy.select(
            estimates(("a", 1.0, 0.1), ("b", 5.0, 0.1), ("c", 3.0, 0.1))
        )
        assert chosen == ["b", "c"]

    def test_skips_zero_estimates(self):
        policy = TopKPolicy(3)
        chosen = policy.select(estimates(("a", 1.0, 0.1), ("b", 0.0, 0.0)))
        assert chosen == ["a"]

    def test_k_zero(self):
        assert TopKPolicy(0).select(estimates(("a", 1.0, 0.1))) == []

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            TopKPolicy(-1)

    def test_fewer_than_k_available(self):
        chosen = TopKPolicy(5).select(estimates(("a", 1.0, 0.1)))
        assert chosen == ["a"]


class TestArguments:
    """A policy's count is a non-bool integer: the wrong type is a
    ``TypeError`` and an out-of-range value a ``ValueError``, both at
    construction — never a silent empty selection or a ``select``-time
    crash."""

    @pytest.mark.parametrize(
        "value", [float("nan"), 1.5, 2.0, True, False, "1", None, np.float64(1)]
    )
    def test_non_integers_are_type_errors(self, value):
        with pytest.raises(TypeError):
            ThresholdPolicy(value)
        with pytest.raises(TypeError):
            TopKPolicy(value)

    def test_out_of_range_counts_are_value_errors(self):
        for value in (0, -1):
            with pytest.raises(ValueError):
                ThresholdPolicy(value)
        with pytest.raises(ValueError):
            TopKPolicy(-1)

    def test_numpy_integers_are_counts(self):
        assert ThresholdPolicy(np.int64(2)).min_nodoc == 2
        assert TopKPolicy(np.int32(3)).k == 3
        assert type(TopKPolicy(np.int32(3)).k) is int


class TestOnRows:
    """The policies read an ``EstimateRow``'s arrays in its best-first
    order (``test_prop_estimate_rows`` holds them to their object bodies
    on drawn rows)."""

    def test_rounding_is_the_arithmetic_of_nodoc_rounded(self):
        """``floor(nodoc + 0.5)`` in IEEE doubles: the largest double below
        0.5 plus 0.5 rounds to 1.0, so it is selected — as
        ``Usefulness.nodoc_rounded`` has it."""
        values = [0.5, 0.49999999999999994, 0.4999]
        row = EstimateRow.ranked(
            ["half", "below", "well-below"], np.array(values), np.zeros(3)
        )
        assert [Usefulness(v, 0.0).nodoc_rounded for v in values] == [1, 1, 0]
        assert ThresholdPolicy().select(row) == ["half", "below"]
