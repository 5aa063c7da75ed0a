"""Unit tests for the binary-independence baseline estimator."""

import pytest

from repro.core import (
    BinaryIndependenceEstimator,
    SubrangeEstimator,
    true_usefulness,
)
from repro.corpus import Query
from repro.representatives import DatabaseRepresentative, TermStats


@pytest.fixture
def rep():
    return DatabaseRepresentative(
        "db",
        n_documents=100,
        term_stats={
            "heavy": TermStats(0.2, 0.60, 0.1, 0.9),
            "light": TermStats(0.2, 0.10, 0.02, 0.15),
        },
    )


class TestBinaryIndependence:
    def test_global_weight_is_mean_of_means(self, rep):
        estimator = BinaryIndependenceEstimator()
        assert estimator._polynomial_context(rep) == pytest.approx(0.35)

    def test_cannot_distinguish_heavy_from_light(self, rep):
        """The defining information loss: both terms get identical
        estimates despite a 6x difference in actual weights."""
        estimator = BinaryIndependenceEstimator()
        heavy = estimator.estimate(Query.from_terms(["heavy"]), rep, 0.3)
        light = estimator.estimate(Query.from_terms(["light"]), rep, 0.3)
        assert heavy.nodoc == pytest.approx(light.nodoc)
        assert heavy.avgsim == pytest.approx(light.avgsim)

    def test_subrange_does_distinguish(self, rep):
        estimator = SubrangeEstimator()
        heavy = estimator.estimate(Query.from_terms(["heavy"]), rep, 0.3)
        light = estimator.estimate(Query.from_terms(["light"]), rep, 0.3)
        assert heavy.nodoc > light.nodoc

    def test_mass_conserved(self, rep):
        expansion = BinaryIndependenceEstimator().expand(
            Query.from_terms(["heavy", "light"]), rep
        )
        assert expansion.total_mass() == pytest.approx(1.0)

    def test_empty_representative(self):
        empty = DatabaseRepresentative("e", 10, {})
        estimate = BinaryIndependenceEstimator().estimate(
            Query.from_terms(["x"]), empty, 0.1
        )
        assert estimate.nodoc == 0.0

    def test_registry(self):
        from repro.core import get_estimator

        assert isinstance(
            get_estimator("binary-independence"), BinaryIndependenceEstimator
        )

    def test_much_worse_than_subrange_on_real_corpus(
        self, small_engine, small_representative, small_queries
    ):
        """The paper's dismissal, measured: binary loses badly."""
        binary = BinaryIndependenceEstimator()
        subrange = SubrangeEstimator()
        err_binary = 0.0
        err_subrange = 0.0
        for query in small_queries[:80]:
            truth = true_usefulness(small_engine, query, 0.2)
            err_binary += abs(
                binary.estimate(query, small_representative, 0.2).nodoc
                - truth.nodoc
            )
            err_subrange += abs(
                subrange.estimate(query, small_representative, 0.2).nodoc
                - truth.nodoc
            )
        assert err_binary > 1.5 * err_subrange
