"""Unit tests for the batched estimation kernel over (query, engine) rows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BasicEstimator,
    BinaryIndependenceEstimator,
    GlossDisjointEstimator,
    GlossHighCorrelationEstimator,
    PreviousMethodEstimator,
    SubrangeEstimator,
    fallback_count,
    fleet_usefulness_grid,
    fleet_usefulness_rows,
)
from repro.core.genfunc import BatchedGenFunc
from repro.corpus import Collection, Query
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker
from repro.representatives import (
    DatabaseRepresentative,
    FleetRepresentativeStore,
    SubrangeScheme,
    TermStats,
    build_representative,
)
from repro.vsm.normalization import NullNormalizer, PivotedNormalizer
from tests.oracle import HalvedSubrange

THRESHOLDS = [0.0, 0.2, 0.5, 1.0]


def make_rep(name, n=50, stats=None):
    if stats is None:
        stats = {
            "apple": TermStats(0.4, 0.3, 0.1, 0.7),
            "pear": TermStats(0.2, 0.5, 0.0, 0.5),
        }
    return DatabaseRepresentative(name, n_documents=n, term_stats=stats)


def make_store(*reps):
    store = FleetRepresentativeStore()
    for rep in reps:
        store.add(rep)
    return store


def bits(value):
    return float(value).hex()


def assert_cells_match_scalar(estimator, grid, reps, query, thresholds):
    """``grid`` — ``(nodoc, avgsim)`` of shape ``(T, E)`` — hex-equals the
    scalar estimator cell by cell."""
    nodoc, avgsim = grid
    assert nodoc.dtype == avgsim.dtype == np.float64
    assert nodoc.shape == avgsim.shape == (len(thresholds), len(reps))
    for t, threshold in enumerate(thresholds):
        for e, rep in enumerate(reps):
            want = estimator.estimate(query, rep, threshold)
            assert bits(nodoc[t, e]) == bits(want.nodoc)
            assert bits(avgsim[t, e]) == bits(want.avgsim)


def assert_grid_matches_scalar(estimator, store, reps, query, thresholds=THRESHOLDS):
    grid = fleet_usefulness_grid(estimator, store, query, thresholds)
    assert_cells_match_scalar(estimator, grid, reps, query, thresholds)
    return grid


class TestSupportsFleet:
    """Which estimators have a kernel: the six exact types; anything else —
    a subclass included — is a ``TypeError``, never a silent per-row
    fallback."""

    def test_exact_types_only(self):
        store = make_store(make_rep("d1"), make_rep("d2", n=9))
        query = Query.from_terms(["apple"])
        for estimator in (
            SubrangeEstimator(),
            BasicEstimator(),
            BinaryIndependenceEstimator(),
            PreviousMethodEstimator(),
            GlossHighCorrelationEstimator(),
            GlossDisjointEstimator(),
        ):
            calls = []
            estimator.estimate = estimator.estimate_many = (
                lambda *args: calls.append(args)
            )
            fleet_usefulness_grid(estimator, store, query, [0.2])
            assert calls == []

    def test_subclasses_are_type_errors(self):
        class Tweaked(BasicEstimator):
            def term_polynomial(self, u, stats, context):
                exponents, coeffs = super().term_polynomial(u, stats, context)
                return exponents * 0.5, coeffs

        store = make_store(make_rep("d1"), make_rep("d2", n=9))
        query = Query.from_terms(["apple", "pear"])
        for estimator in (Tweaked(), HalvedSubrange()):
            with pytest.raises(TypeError, match="no batched kernel"):
                fleet_usefulness_grid(estimator, store, query, THRESHOLDS)
            with pytest.raises(TypeError, match="no batched kernel"):
                fleet_usefulness_rows(estimator, store, [query], THRESHOLDS)
            with pytest.raises(TypeError, match="no batched kernel"):
                MetasearchBroker(estimator=estimator)
        # Even an empty fleet refuses it: the type, not the data, decides.
        with pytest.raises(TypeError):
            fleet_usefulness_grid(
                HalvedSubrange(), FleetRepresentativeStore(), query, [0.2]
            )


class TestQueryEngineRows:
    """``fleet_usefulness_rows``: one kernel call over (query, engine) rows,
    each query's block padded to the longest query."""

    ESTIMATORS = (
        SubrangeEstimator(),
        SubrangeEstimator(use_stored_max=False),
        BasicEstimator(),
        BinaryIndependenceEstimator(),
        PreviousMethodEstimator(),
        GlossHighCorrelationEstimator(),
        GlossDisjointEstimator(),
    )

    def test_rows_equal_per_query_grids_and_the_scalar_estimator(self):
        reps = [make_rep("d1"), make_rep("d2", n=9), make_rep("d3", n=0)]
        store = make_store(*reps)
        queries = [
            Query.from_terms(["apple"]),
            Query(terms=("pear", "ghost", "apple"), weights=(1.0, 3.0, 2.0)),
            Query.from_terms(["ghost"]),
            Query.from_terms(["pear", "apple"]),
        ]
        for estimator in self.ESTIMATORS:
            nodoc, avgsim = fleet_usefulness_rows(
                estimator, store, queries, THRESHOLDS
            )
            assert nodoc.shape == (len(queries), len(THRESHOLDS), len(reps))
            for q, query in enumerate(queries):
                grid = fleet_usefulness_grid(estimator, store, query, THRESHOLDS)
                assert nodoc[q].tobytes() == grid[0].tobytes()
                assert avgsim[q].tobytes() == grid[1].tobytes()
                assert_cells_match_scalar(
                    estimator, (nodoc[q], avgsim[q]), reps, query, THRESHOLDS
                )

    def test_one_kernel_call_for_many_queries(self, monkeypatch):
        calls = []
        product = BatchedGenFunc.product.__func__

        def counting(cls, n_rows, term_factors):
            calls.append(n_rows)
            return product(cls, n_rows, term_factors)

        monkeypatch.setattr(BatchedGenFunc, "product", classmethod(counting))
        store = make_store(make_rep("d1"), make_rep("d2", n=9))
        queries = [Query.from_terms(["apple"]), Query.from_terms(["pear"])]
        fleet_usefulness_rows(SubrangeEstimator(), store, queries, [0.0])
        assert calls == [4]  # 2 queries x 2 engines, one product
        calls.clear()
        fleet_usefulness_rows(PreviousMethodEstimator(), store, queries, [0.0, 0.1])
        assert calls == [8]  # x 2 thresholds: a prev row is one cell

    def test_no_queries_and_empty_store(self):
        store = make_store(make_rep("d1"))
        for got in fleet_usefulness_rows(BasicEstimator(), store, [], [0.1]):
            assert got.shape == (0, 1, 1)
        for got in fleet_usefulness_rows(
            BasicEstimator(), FleetRepresentativeStore(),
            [Query.from_terms(["apple"])] * 2, [0.1, 0.2],
        ):
            assert got.shape == (2, 2, 0)


class TestEdgeCases:
    def test_empty_store(self):
        grid = fleet_usefulness_grid(
            BasicEstimator(),
            FleetRepresentativeStore(),
            Query.from_terms(["apple"]),
            THRESHOLDS,
        )
        assert [a.shape for a in grid] == [(len(THRESHOLDS), 0)] * 2

    def test_zero_document_engine(self):
        reps = [make_rep("d0", n=0), make_rep("d1", n=50)]
        for estimator in (
            SubrangeEstimator(),
            BasicEstimator(),
            GlossHighCorrelationEstimator(),
        ):
            assert_grid_matches_scalar(
                estimator, make_store(*reps), reps,
                Query.from_terms(["apple", "pear"]),
            )

    def test_no_term_matches_any_engine(self):
        reps = [make_rep("d1"), make_rep("d2", n=9)]
        query = Query.from_terms(["ghost", "phantom"])
        for estimator in (
            SubrangeEstimator(),
            BasicEstimator(),
            BinaryIndependenceEstimator(),
            GlossHighCorrelationEstimator(),
            GlossDisjointEstimator(),
        ):
            grid = assert_grid_matches_scalar(
                estimator, make_store(*reps), reps, query
            )
            assert not grid[0].any() and not grid[1].any()

    def test_certain_term_probability_one(self):
        stats = {"apple": TermStats(1.0, 0.6, 0.0, 0.6)}
        reps = [make_rep("d1", stats=stats)]
        assert_grid_matches_scalar(
            BasicEstimator(), make_store(*reps), reps,
            Query.from_terms(["apple"]),
        )

    def test_subrange_modes(self):
        reps = [make_rep("d1"), make_rep("d2", n=7)]
        query = Query(terms=("apple", "pear"), weights=(2.0, 1.0))
        for scheme in (
            SubrangeScheme.equal(3, include_max=False),
            SubrangeScheme.equal(4, include_max=True),
        ):
            for use_stored_max in (True, False):
                assert_grid_matches_scalar(
                    SubrangeEstimator(
                        scheme=scheme, use_stored_max=use_stored_max
                    ),
                    make_store(*reps), reps, query,
                )


class TestWholeRowBound:
    """Engines whose summed largest factor exponents cannot pass the
    smallest threshold are answered ``(0.0, 0.0)`` without a kernel row."""

    def test_query_no_engine_holds_makes_no_kernel_call(self, monkeypatch):
        calls = []
        product = BatchedGenFunc.product.__func__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return product(cls, *args, **kwargs)

        monkeypatch.setattr(BatchedGenFunc, "product", classmethod(counting))
        reps = [make_rep("d1"), make_rep("d2", n=9)]
        query = Query.from_terms(["ghost", "phantom"])
        for estimator in (
            SubrangeEstimator(),
            BasicEstimator(),
            BinaryIndependenceEstimator(),
        ):
            assert_grid_matches_scalar(
                estimator, make_store(*reps), reps, query, [0.1, 0.5]
            )
        broker = MetasearchBroker()
        broker.register(SearchEngine(Collection.from_texts(
            "space", [("s0", "rocket orbit"), ("s1", "rocket")]
        )))
        broker.register(SearchEngine(Collection.from_texts(
            "food", [("f0", "recipe sauce")]
        )))
        assert broker.select(query, 0.1) == []
        assert calls == []


class TestWeightsAboveOne:
    """Normalized weights above 1 are legitimate input, not corruption: an
    engine without Cosine normalization (or with a pivoted one) builds
    them.  They stay far below the demotion ceiling, so the kernel answers
    them bit-identically without a single scalar demotion."""

    DOCS = [
        ("d0", "rocket rocket rocket rocket orbit"),
        ("d1", "rocket fuel"),
        ("d2", "orbit orbit fuel"),
    ]

    def test_grid_hex_equals_scalar_without_demotion(self):
        reps = []
        for i, normalizer in enumerate((NullNormalizer(), PivotedNormalizer(0.25))):
            engine = SearchEngine(
                Collection.from_texts(f"toy{i}", self.DOCS), normalizer=normalizer
            )
            reps.append(build_representative(engine))
        assert max(s.max_weight for __, s in reps[0].items()) == 4.0
        assert max(s.max_weight for __, s in reps[1].items()) > 1.0
        store = make_store(*reps)
        thresholds = [0.1, 0.5, 1.0, 2.0, 3.5]
        before = fallback_count()
        for estimator in (
            SubrangeEstimator(),
            SubrangeEstimator(use_stored_max=False),
            BasicEstimator(),
            BinaryIndependenceEstimator(),
            PreviousMethodEstimator(),
        ):
            for terms in (["rocket"], ["rocket", "orbit"], ["fuel", "orbit", "rocket"]):
                assert_grid_matches_scalar(
                    estimator, store, reps, Query.from_terms(terms), thresholds
                )
        assert fallback_count() == before


class TestGridShape:
    def test_rows_follow_engine_registration_order(self):
        reps = [make_rep("b"), make_rep("a", n=3)]
        store = make_store(*reps)
        grid = fleet_usefulness_grid(
            BasicEstimator(), store, Query.from_terms(["apple"]), [0.1]
        )
        assert store.engine_names == ["b", "a"]
        assert grid[0][0].tolist() == [
            BasicEstimator().estimate(
                Query.from_terms(["apple"]), rep, 0.1
            ).nodoc
            for rep in reps
        ]
