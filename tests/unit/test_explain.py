"""Unit tests for the estimate explanation API."""

import pytest

from repro.core import BasicEstimator, SubrangeEstimator
from repro.corpus import Query
from repro.representatives import DatabaseRepresentative, TermStats


@pytest.fixture
def rep():
    return DatabaseRepresentative(
        "db",
        n_documents=100,
        term_stats={
            "known": TermStats(0.3, 0.25, 0.08, 0.6),
            "other": TermStats(0.1, 0.40, 0.05, 0.5),
        },
    )


class TestExplain:
    def test_estimate_matches_plain_call(self, rep):
        estimator = SubrangeEstimator()
        query = Query.from_terms(["known", "other"])
        explanation = estimator.explain(query, rep, 0.2)
        plain = estimator.estimate(query, rep, 0.2)
        assert explanation.estimate.nodoc == pytest.approx(plain.nodoc)
        assert explanation.estimate.avgsim == pytest.approx(plain.avgsim)
        assert explanation.threshold == 0.2

    def test_terms_in_query_order(self, rep):
        explanation = SubrangeEstimator().explain(
            Query.from_terms(["other", "known"]), rep, 0.2
        )
        assert [t.term for t in explanation.terms] == ["other", "known"]

    def test_unmatched_term_flagged(self, rep):
        explanation = SubrangeEstimator().explain(
            Query.from_terms(["known", "zzz"]), rep, 0.2
        )
        by_term = {t.term: t for t in explanation.terms}
        assert by_term["known"].matched
        assert not by_term["zzz"].matched
        assert by_term["zzz"].polynomial_size == 0
        assert by_term["zzz"].occurrence_probability == 0.0

    def test_max_exponent_is_u_times_mw(self, rep):
        query = Query.from_terms(["known"])
        explanation = SubrangeEstimator().explain(query, rep, 0.2)
        (contribution,) = explanation.terms
        assert contribution.max_exponent == pytest.approx(0.6)  # u = 1

    def test_subrange_polynomial_size(self, rep):
        explanation = SubrangeEstimator().explain(
            Query.from_terms(["known"]), rep, 0.2
        )
        # max singleton + 5 subranges + zero term.
        assert explanation.terms[0].polynomial_size == 7

    def test_basic_polynomial_size(self, rep):
        explanation = BasicEstimator().explain(
            Query.from_terms(["known"]), rep, 0.2
        )
        assert explanation.terms[0].polynomial_size == 2

    def test_tail_mass_consistent_with_nodoc(self, rep):
        explanation = SubrangeEstimator().explain(
            Query.from_terms(["known", "other"]), rep, 0.3
        )
        assert explanation.estimate.nodoc == pytest.approx(
            explanation.tail_mass * rep.n_documents
        )

    def test_expansion_terms_positive(self, rep):
        explanation = SubrangeEstimator().explain(
            Query.from_terms(["known", "other"]), rep, 0.3
        )
        assert explanation.expansion_terms > 1

    def test_all_unmatched_query(self, rep):
        explanation = SubrangeEstimator().explain(
            Query.from_terms(["aa", "bb"]), rep, 0.2
        )
        assert explanation.estimate.nodoc == 0.0
        assert all(not t.matched for t in explanation.terms)
