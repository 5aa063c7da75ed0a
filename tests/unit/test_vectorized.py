"""Unit tests for the engine-axis vectorized estimation path."""

from __future__ import annotations

import numpy as np

from repro.core import (
    BasicEstimator,
    BinaryIndependenceEstimator,
    GlossDisjointEstimator,
    GlossHighCorrelationEstimator,
    SubrangeEstimator,
    fleet_usefulness_grid,
)
from repro.corpus import Query
from repro.metasearch.cache import TermPolynomialCache
from repro.representatives import (
    DatabaseRepresentative,
    FleetRepresentativeStore,
    SubrangeScheme,
    TermStats,
)
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


def assert_grid_matches_scalar(estimator, store, reps, query, thresholds=THRESHOLDS):
    grid = fleet_usefulness_grid(estimator, store, query, thresholds)
    for row, threshold in zip(grid, thresholds):
        for got, rep in zip(row, reps):
            want = estimator.estimate(query, rep, threshold)
            assert bits(got.nodoc) == bits(want.nodoc)
            assert bits(got.avgsim) == bits(want.avgsim)
    return grid


class TestSupportsFleet:
    """Which estimators the batched kernels cover: the five exact types;
    anything else is evaluated per engine row by its own scalar code."""

    @staticmethod
    def per_row_calls(estimator, store, query, thresholds):
        """Grid for ``estimator`` plus how often the grid fell back to the
        estimator's own ``estimate_many`` (once per engine row, or never)."""
        calls = []
        scalar = estimator.estimate_many

        def spy(*args):
            calls.append(args)
            return scalar(*args)

        estimator.estimate_many = spy
        return fleet_usefulness_grid(estimator, store, query, thresholds), calls

    def test_exact_types_only(self):
        store = make_store(make_rep("d1"), make_rep("d2", n=9))
        for estimator in (
            SubrangeEstimator(),
            BasicEstimator(),
            BinaryIndependenceEstimator(),
            GlossHighCorrelationEstimator(),
            GlossDisjointEstimator(),
        ):
            __, calls = self.per_row_calls(
                estimator, store, Query.from_terms(["apple"]), [0.2]
            )
            assert calls == []

    def test_subclasses_fall_back_to_scalar(self):
        class Tweaked(BasicEstimator):
            def term_polynomial(self, u, stats, context):
                exponents, coeffs = super().term_polynomial(u, stats, context)
                return exponents * 0.5, coeffs

        reps = [make_rep("d1"), make_rep("d2", n=9)]
        query = Query.from_terms(["apple", "pear"])
        grid, calls = self.per_row_calls(
            Tweaked(), make_store(*reps), query, THRESHOLDS
        )
        assert len(calls) == len(reps)
        for row, threshold in zip(grid, THRESHOLDS):
            for got, rep in zip(row, reps):
                assert got == Tweaked().estimate(query, rep, threshold)
        # The override is honoured, not the batched BasicEstimator kernel.
        assert grid != fleet_usefulness_grid(
            BasicEstimator(), make_store(*reps), query, THRESHOLDS
        )


class TestEdgeCases:
    def test_empty_store(self):
        grid = fleet_usefulness_grid(
            BasicEstimator(),
            FleetRepresentativeStore(),
            Query.from_terms(["apple"]),
            THRESHOLDS,
        )
        assert grid == [[] for __ in THRESHOLDS]

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
            assert all(u.nodoc == 0 for row in grid for u in row)

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


class TestPolycacheIntegration:
    """The cache is used by estimators evaluated per engine row
    (``HalvedSubrange``) and by none of the batched kernels."""

    def test_warm_cache_returns_same_bits(self):
        reps = [make_rep("d1"), make_rep("d2", n=11)]
        store = make_store(*reps)
        query = Query.from_terms(["apple", "pear", "ghost"])
        estimator = HalvedSubrange()
        cache = TermPolynomialCache()
        cold = fleet_usefulness_grid(
            estimator, store, query, THRESHOLDS, polycache=cache
        )
        assert cache.misses == len(cache) == 6 and cache.hits == 0
        warm = fleet_usefulness_grid(
            estimator, store, query, THRESHOLDS, polycache=cache
        )
        assert cache.hits == 6 and cache.misses == 6
        for cold_row, warm_row in zip(cold, warm):
            for a, b in zip(cold_row, warm_row):
                assert bits(a.nodoc) == bits(b.nodoc)
                assert bits(a.avgsim) == bits(b.avgsim)
        assert_grid_matches_scalar(estimator, store, reps, query)

    def test_unmatched_terms_negatively_cached(self):
        reps = [make_rep("d1")]
        store = make_store(*reps)
        cache = TermPolynomialCache()
        query = Query.from_terms(["ghost", "apple"])
        fleet_usefulness_grid(
            HalvedSubrange(), store, query, [0.2], polycache=cache
        )
        hit, value = cache.lookup(
            HalvedSubrange().polynomial_config(),
            "d1",
            "ghost",
            query.normalized_weights()[0],
        )
        assert hit and value is None

    def test_batched_types_leave_the_cache_untouched(self):
        """The batched kernels build every factor in one numpy pass: a
        handed-in cache is neither consulted nor populated."""
        store = make_store(make_rep("d1"), make_rep("d2", n=11))
        query = Query.from_terms(["apple", "pear", "ghost"])
        for estimator in (
            SubrangeEstimator(),
            BasicEstimator(),
            BinaryIndependenceEstimator(),
            GlossHighCorrelationEstimator(),
            GlossDisjointEstimator(),
        ):
            cache = TermPolynomialCache()
            fleet_usefulness_grid(
                estimator, store, query, THRESHOLDS, polycache=cache
            )
            assert cache.hits == cache.misses == len(cache) == 0


class TestGridShape:
    def test_rows_follow_engine_registration_order(self):
        reps = [make_rep("b"), make_rep("a", n=3)]
        store = make_store(*reps)
        grid = fleet_usefulness_grid(
            BasicEstimator(), store, Query.from_terms(["apple"]), [0.1]
        )
        assert store.engine_names == ["b", "a"]
        assert [u.nodoc for u in grid[0]] == [
            BasicEstimator().estimate(
                Query.from_terms(["apple"]), rep, 0.1
            ).nodoc
            for rep in reps
        ]
