"""Unit tests for the previous-method (VLDB'98 reconstruction) estimator."""

import pytest

from repro.core import PreviousMethodEstimator
from repro.corpus import Query
from repro.representatives import DatabaseRepresentative, TermStats


@pytest.fixture
def rep():
    return DatabaseRepresentative(
        "db",
        n_documents=50,
        term_stats={
            "a": TermStats(0.4, 0.30, 0.10, 0.60),
            "b": TermStats(0.2, 0.20, 0.05, 0.35),
        },
    )


class TestAdjustedPairs:
    def test_zero_threshold_keeps_probability(self, rep):
        estimator = PreviousMethodEstimator()
        pairs = estimator.adjusted_pairs(Query.from_terms(["a"]), rep, 0.0)
        ((u, p, w),) = pairs
        assert p == pytest.approx(0.4)
        assert w >= 0.30  # conditional mean never below the mean

    def test_high_threshold_shrinks_probability(self, rep):
        estimator = PreviousMethodEstimator()
        lo = estimator.adjusted_pairs(Query.from_terms(["a"]), rep, 0.1)[0]
        hi = estimator.adjusted_pairs(Query.from_terms(["a"]), rep, 0.5)[0]
        assert hi[1] < lo[1]

    def test_high_threshold_raises_weight(self, rep):
        estimator = PreviousMethodEstimator()
        lo = estimator.adjusted_pairs(Query.from_terms(["a"]), rep, 0.1)[0]
        hi = estimator.adjusted_pairs(Query.from_terms(["a"]), rep, 0.5)[0]
        assert hi[2] > lo[2]

    def test_unknown_terms_skipped(self, rep):
        estimator = PreviousMethodEstimator()
        assert estimator.adjusted_pairs(Query.from_terms(["zz"]), rep, 0.2) == []

    def test_threshold_apportioned_by_contribution(self, rep):
        # Term "a" carries the larger u*w and should absorb the larger share
        # of the cutoff; term "b"'s cutoff is proportionally smaller.
        estimator = PreviousMethodEstimator()
        pairs = estimator.adjusted_pairs(
            Query.from_terms(["a", "b"]), rep, threshold=0.4
        )
        (ua, pa, wa), (ub, pb, wb) = pairs
        assert pa < 0.4  # a was truncated
        assert pb < 0.2  # b was truncated too


class TestEstimates:
    def test_nodoc_in_range(self, rep):
        query = Query.from_terms(["a", "b"])
        for threshold in (0.0, 0.2, 0.4, 0.8):
            estimate = PreviousMethodEstimator().estimate(query, rep, threshold)
            assert 0.0 <= estimate.nodoc <= rep.n_documents + 1e-9

    def test_zero_estimate_for_empty_query(self, rep):
        estimate = PreviousMethodEstimator().estimate(
            Query.from_terms([]), rep, 0.2
        )
        assert estimate.nodoc == 0.0

    def test_estimate_many_is_per_threshold(self, rep):
        query = Query.from_terms(["a"])
        estimator = PreviousMethodEstimator()
        many = estimator.estimate_many(query, rep, (0.1, 0.4))
        assert many[0].nodoc == pytest.approx(
            estimator.estimate(query, rep, 0.1).nodoc
        )
        assert many[1].nodoc == pytest.approx(
            estimator.estimate(query, rep, 0.4).nodoc
        )

    def test_registry_name(self):
        from repro.core import get_estimator

        assert isinstance(get_estimator("prev"), PreviousMethodEstimator)
