"""Unit tests for the subrange-based estimator (the paper's method)."""

import numpy as np
import pytest

from repro.core import SubrangeEstimator, true_usefulness
from repro.corpus import Query
from repro.representatives import (
    DatabaseRepresentative,
    SubrangeScheme,
    TermStats,
)


@pytest.fixture
def rep():
    return DatabaseRepresentative(
        "db",
        n_documents=100,
        term_stats={
            "common": TermStats(0.4, 0.30, 0.10, 0.70),
            "rare": TermStats(0.01, 0.55, 0.0, 0.55),
        },
    )


class TestTermPolynomial:
    def test_probability_mass_sums_to_one(self, rep):
        estimator = SubrangeEstimator()
        exps, coeffs = estimator.term_polynomial(1.0, rep.get("common"), 100)
        assert coeffs.sum() == pytest.approx(1.0)

    def test_max_subrange_gets_one_over_n(self, rep):
        estimator = SubrangeEstimator()
        exps, coeffs = estimator.term_polynomial(1.0, rep.get("common"), 100)
        # First entry is the max-weight singleton with probability 1/n.
        assert exps[0] == pytest.approx(0.70)
        assert coeffs[0] == pytest.approx(0.01)

    def test_max_probability_capped_by_p(self, rep):
        estimator = SubrangeEstimator()
        # rare term: p = 0.01 = 1/n, so everything sits in the max subrange.
        exps, coeffs = estimator.term_polynomial(1.0, rep.get("rare"), 100)
        assert coeffs[0] == pytest.approx(0.01)
        # No residual mass in the other subranges.
        positive = coeffs[:-1][exps[:-1] > 0]
        assert positive.sum() == pytest.approx(0.01)

    def test_medians_clamped_to_max_weight(self, rep):
        estimator = SubrangeEstimator()
        stats = TermStats(0.5, 0.6, 0.5, 0.65)  # mean + c1*std would exceed mw
        exps, coeffs = estimator.term_polynomial(1.0, stats, 100)
        assert exps.max() <= 0.65 + 1e-12

    def test_medians_clamped_to_zero(self):
        estimator = SubrangeEstimator()
        stats = TermStats(0.5, 0.05, 0.5, 0.9)  # mean + c5*std negative
        exps, __ = estimator.term_polynomial(1.0, stats, 100)
        assert exps.min() >= 0.0

    def test_query_weight_scales_exponents(self, rep):
        estimator = SubrangeEstimator()
        full, __ = estimator.term_polynomial(1.0, rep.get("common"), 100)
        half, __ = estimator.term_polynomial(0.5, rep.get("common"), 100)
        assert half[0] == pytest.approx(full[0] * 0.5)

    def test_no_max_scheme(self, rep):
        estimator = SubrangeEstimator(scheme=SubrangeScheme.equal(4))
        exps, coeffs = estimator.term_polynomial(1.0, rep.get("common"), 100)
        # 4 subranges + zero term.
        assert exps.size == 5
        assert coeffs.sum() == pytest.approx(1.0)


class TestEstimates:
    def test_zero_for_unknown_terms(self, rep):
        estimate = SubrangeEstimator().estimate(
            Query.from_terms(["nope"]), rep, 0.1
        )
        assert estimate.nodoc == 0.0

    def test_single_term_guarantee_positive_side(self, rep):
        # T below the stored max weight: at least 1/n * n = 1 document.
        estimate = SubrangeEstimator().estimate(
            Query.from_terms(["common"]), rep, threshold=0.69
        )
        assert estimate.nodoc >= 1.0 - 1e-9

    def test_single_term_guarantee_negative_side(self, rep):
        # T above the max weight: nothing can exceed it.
        estimate = SubrangeEstimator().estimate(
            Query.from_terms(["common"]), rep, threshold=0.71
        )
        assert estimate.nodoc == 0.0

    def test_nodoc_bounded_by_n(self, rep):
        query = Query.from_terms(["common", "rare"])
        estimate = SubrangeEstimator().estimate(query, rep, threshold=-0.1)
        assert estimate.nodoc <= 100 + 1e-6

    def test_estimate_many_matches_pointwise(self, rep):
        query = Query.from_terms(["common", "rare"])
        thresholds = (0.1, 0.3, 0.5)
        estimator = SubrangeEstimator()
        many = estimator.estimate_many(query, rep, thresholds)
        for threshold, estimate in zip(thresholds, many):
            single = estimator.estimate(query, rep, threshold)
            assert estimate.nodoc == pytest.approx(single.nodoc)

    def test_estimate_many_single_pass_is_exact(self, rep):
        """estimate_many reads every tail off one cumulative-sum pass; the
        answers must be *bit-identical* to per-threshold estimate() calls,
        for any threshold order including duplicates."""
        query = Query.from_terms(["common", "rare", "mid"])
        thresholds = (0.5, 0.1, 0.3, 0.1, 0.6, 0.0)
        estimator = SubrangeEstimator()
        many = estimator.estimate_many(query, rep, thresholds)
        singles = [estimator.estimate(query, rep, t) for t in thresholds]
        assert many == singles

    def test_avgsim_above_threshold_when_nonzero(self, rep):
        query = Query.from_terms(["common"])
        for threshold in (0.1, 0.2, 0.4, 0.6):
            estimate = SubrangeEstimator().estimate(query, rep, threshold)
            if estimate.nodoc > 0:
                assert estimate.avgsim > threshold


class TestTripletMode:
    def test_estimated_max_used_when_stored_absent(self, rep):
        triplets = rep.as_triplets()
        estimator = SubrangeEstimator(use_stored_max=False)
        stats = triplets.get("common")
        mw = estimator._effective_max(stats)
        # 99.9 percentile of N(0.3, 0.1^2) = 0.3 + 3.09 * 0.1.
        assert mw == pytest.approx(0.3 + 3.0902 * 0.1, abs=1e-3)

    def test_stored_max_ignored_when_disabled(self, rep):
        estimator = SubrangeEstimator(use_stored_max=False)
        mw = estimator._effective_max(rep.get("common"))
        assert mw != pytest.approx(0.70)

    def test_estimated_max_clamped_to_one(self):
        """Regression: a high-sigma term's estimated 99.9th percentile used
        to exceed 1.0 — an impossible normalized weight that placed
        probability mass at similarities no document can reach."""
        estimator = SubrangeEstimator(use_stored_max=False)
        stats = TermStats(probability=0.5, mean=0.9, std=0.5, max_weight=None)
        # Unclamped estimate would be 0.9 + 3.09 * 0.5 ~= 2.45.
        assert estimator._effective_max(stats) == 1.0

    def test_clamped_max_keeps_mass_in_reachable_similarities(self):
        estimator = SubrangeEstimator(use_stored_max=False)
        rep = DatabaseRepresentative(
            "hot",
            n_documents=50,
            term_stats={"spiky": TermStats(0.5, 0.9, 0.5, None)},
        )
        query = Query.from_terms(["spiky"])
        # Cosine similarity cannot exceed 1, so no estimated document may
        # sit above threshold 1.0...
        assert estimator.estimate(query, rep, 1.0).nodoc == 0.0
        expansion = estimator.expand(query, rep)
        assert expansion.max_exponent() <= 1.0 + 1e-12
        # ...while mass below 1.0 survives the clamp.
        assert estimator.estimate(query, rep, 0.2).nodoc > 0.0

    def test_triplet_overestimates_max_for_tight_distributions(self, rep):
        # Estimated 99.9th percentile generally != the true stored max;
        # this is exactly why Tables 10-12 degrade vs Tables 1-2.
        quad = SubrangeEstimator()
        trip = SubrangeEstimator(use_stored_max=False)
        query = Query.from_terms(["rare"])
        t = 0.56  # just above the true max weight 0.55
        assert quad.estimate(query, rep, t).nodoc == 0.0
        # Triplet mode believes some mass may lie above 0.55.
        assert trip.estimate(query, rep.as_triplets(), t).nodoc >= 0.0


class TestAgainstTruthOnRealIndex:
    def test_reasonable_accuracy_on_small_corpus(self, small_engine,
                                                 small_representative,
                                                 small_queries):
        estimator = SubrangeEstimator()
        total_err = 0.0
        count = 0
        for query in small_queries[:60]:
            truth = true_usefulness(small_engine, query, 0.2)
            est = estimator.estimate(query, small_representative, 0.2)
            total_err += abs(truth.nodoc - est.nodoc)
            count += 1
        # Mean absolute NoDoc error stays small relative to database size.
        assert total_err / count < small_engine.n_documents * 0.2

    def test_registry_names(self):
        from repro.core import get_estimator

        assert isinstance(get_estimator("subrange"), SubrangeEstimator)
        triplet = get_estimator("subrange-triplet")
        assert isinstance(triplet, SubrangeEstimator)
        assert not triplet.use_stored_max
