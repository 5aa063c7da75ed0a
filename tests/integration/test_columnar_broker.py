"""Differential suite: the broker vs the scalar oracle.

The broker keeps the fleet's representatives in the packed
:class:`FleetRepresentativeStore` and answers every estimator through the
engine-axis vectorized grid.  That path promises *exact* equality with the
paper's scalar estimators looped over dict representatives
(:class:`tests.oracle.ScalarOracle`) — same bits, same row order — so
every comparison here is ``==``, never ``approx``.

Covered: estimate_all/estimate_batch/search equality across all six
estimator families, the estimate cache in front of the grid (and the
zero-capacity cache that stands in for none), representative refresh via
re-registration, the ``TypeError`` for an estimator type without a
kernel, and the dict representative ``representative_of`` rebuilds from
the fleet store in place of one kept per engine.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BasicEstimator,
    BinaryIndependenceEstimator,
    GlossDisjointEstimator,
    GlossHighCorrelationEstimator,
    PreviousMethodEstimator,
    SubrangeEstimator,
)
from repro.corpus import Query
from repro.corpus.synth import NewsgroupModel, QueryLogModel
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker, ThresholdPolicy, merge_hits
from repro.representatives import (
    DatabaseRepresentative,
    SubrangeScheme,
    build_representative,
)
from tests.oracle import HalvedSubrange, ScalarOracle

N_QUERIES = 25
THRESHOLDS = (0.1, 0.3, 0.6)


@pytest.fixture(scope="module")
def fleet_model():
    return NewsgroupModel(
        vocab_size=2500,
        topic_size=100,
        topic_band=(40, 1000),
        mean_length=70,
        seed=2024,
        group_sizes=[35, 30, 25, 20],
    )


@pytest.fixture(scope="module")
def fleet_engines(fleet_model):
    return [
        SearchEngine(fleet_model.generate_group(group)) for group in range(4)
    ]


@pytest.fixture(scope="module")
def fleet_queries(fleet_model):
    return QueryLogModel(fleet_model, seed=77).generate(N_QUERIES)


def make_pair(engines, estimator_factory, **kwargs):
    """``(scalar oracle, broker)`` over the same engines."""
    pair = [
        ScalarOracle(estimator_factory()),
        MetasearchBroker(estimator=estimator_factory(), **kwargs),
    ]
    for backend in pair:
        for engine in engines:
            backend.register(engine)
    return pair


ESTIMATOR_FACTORIES = [
    pytest.param(SubrangeEstimator, id="subrange"),
    pytest.param(
        lambda: SubrangeEstimator(scheme=SubrangeScheme.equal(4, include_max=True)),
        id="subrange-max",
    ),
    pytest.param(BasicEstimator, id="basic"),
    pytest.param(BinaryIndependenceEstimator, id="binary"),
    pytest.param(PreviousMethodEstimator, id="prev"),
    pytest.param(GlossHighCorrelationEstimator, id="gloss-hc"),
    pytest.param(GlossDisjointEstimator, id="gloss-dj"),
]


class TestEquality:
    @pytest.mark.parametrize("estimator_factory", ESTIMATOR_FACTORIES)
    def test_estimate_all_exact(
        self, fleet_engines, fleet_queries, estimator_factory
    ):
        scalar, columnar = make_pair(fleet_engines, estimator_factory)
        for query in fleet_queries:
            for threshold in THRESHOLDS:
                assert columnar.estimate_all(
                    query, threshold
                ) == scalar.estimate_all(query, threshold)

    def test_estimate_batch_exact(self, fleet_engines, fleet_queries):
        scalar, columnar = make_pair(fleet_engines, SubrangeEstimator)
        queries = [q for q in fleet_queries for __ in THRESHOLDS]
        thresholds = [t for __ in fleet_queries for t in THRESHOLDS]
        assert columnar.estimate_batch(queries, thresholds) == (
            scalar.estimate_batch(queries, thresholds)
        )

    def test_search_exact(self, fleet_engines, fleet_queries):
        scalar, columnar = make_pair(fleet_engines, SubrangeEstimator)
        by_name = {engine.name: engine for engine in fleet_engines}
        for query in fleet_queries[:8]:
            estimates = scalar.estimate_all(query, 0.3)
            invoked = ThresholdPolicy().select(estimates)
            b = columnar.search(query, 0.3)
            assert b.estimates == estimates
            assert b.invoked == invoked
            assert b.hits == merge_hits(
                [by_name[name].search(query, 0.3) for name in invoked]
            )


class TestCacheInterplay:
    def test_estimate_cache_serves_fleet_rows(self, fleet_engines, fleet_queries):
        __, columnar = make_pair(fleet_engines, SubrangeEstimator)
        query = fleet_queries[0]
        cold = columnar.estimate_all(query, 0.3)
        misses = columnar.cache.misses
        warm = columnar.estimate_all(query, 0.3)
        assert warm == cold
        assert columnar.cache.hits >= len(fleet_engines)
        assert columnar.cache.misses == misses

    def test_disabled_caches_still_exact(self, fleet_engines, fleet_queries):
        scalar, columnar = make_pair(
            fleet_engines, SubrangeEstimator, cache_size=0
        )
        for query in fleet_queries[:6]:
            assert columnar.estimate_all(query, 0.3) == scalar.estimate_all(
                query, 0.3
            )

    @pytest.mark.parametrize(
        "estimator_factory",
        [SubrangeEstimator, PreviousMethodEstimator],
        ids=["batched", "per-cell"],
    )
    def test_unknown_query_terms_do_not_grow_the_vocabulary(
        self, fleet_engines, fleet_queries, estimator_factory
    ):
        """Estimating is read-only on the fleet: query terms no engine
        holds are not interned into the shared broker vocabulary — for a
        threshold-free expansion, and for the previous method, whose
        kernel rows are (threshold, query, engine) cells."""
        scalar, columnar = make_pair(fleet_engines, estimator_factory)
        known = fleet_queries[0].terms[0]
        queries = [Query.from_terms([f"zzjunk{i}", known]) for i in range(30)]
        size = len(columnar.fleet.vocab)
        for query in queries[:10]:
            assert columnar.estimate_all(query, 0.3) == scalar.estimate_all(
                query, 0.3
            )
        for query in queries[10:20]:
            columnar.search(query, 0.3)
        columnar.estimate_batch(queries[20:], 0.3)
        assert len(columnar.fleet.vocab) == size


class TestZeroCapacityCache:
    """``cache_size=0`` is an ``EstimateCache(0)`` that never holds an
    entry — the same rows as a caching broker, every read a counted miss."""

    def test_rows_equal_a_default_broker(self, fleet_engines, fleet_queries):
        __, default = make_pair(fleet_engines, SubrangeEstimator)
        __, disabled = make_pair(fleet_engines, SubrangeEstimator, cache_size=0)
        for query in fleet_queries:
            for threshold in THRESHOLDS:
                assert disabled.estimate_all(query, threshold) == (
                    default.estimate_all(query, threshold)
                )
                assert disabled.estimate_all_cached(query, threshold) is None
        assert disabled.estimate_batch(fleet_queries, 0.3) == (
            default.estimate_batch(fleet_queries, 0.3)
        )
        assert len(disabled.cache) == 0
        assert disabled.cache.hits == 0
        assert disabled.cache.misses > 0


class TestRegistration:
    def test_registration_keeps_read_through_ref(self, fleet_engines):
        __, columnar = make_pair(fleet_engines, SubrangeEstimator)
        name = fleet_engines[0].name
        rep = columnar.representative_of(name)
        assert isinstance(rep, DatabaseRepresentative)
        materialized = columnar.fleet.materialize(name)
        assert dict(rep.items()) == dict(materialized.items())

    def test_refresh_invalidates_and_stays_exact(
        self, fleet_model, fleet_queries
    ):
        engines = [
            SearchEngine(fleet_model.generate_group(group)) for group in range(3)
        ]
        scalar, columnar = make_pair(engines, SubrangeEstimator)
        query = fleet_queries[0]
        before = columnar.estimate_all(query, 0.3)
        assert before == scalar.estimate_all(query, 0.3)
        # Refresh one engine's registration with a replacement
        # representative (as a subscribing broker would after an update).
        donor = build_representative(SearchEngine(fleet_model.generate_group(3)))
        replacement = DatabaseRepresentative(
            name=engines[0].name,
            n_documents=donor.n_documents,
            term_stats=dict(donor.items()),
        )
        scalar.register(engines[0], representative=replacement)
        columnar.register(engines[0], representative=replacement)
        after = columnar.estimate_all(query, 0.3)
        assert after == scalar.estimate_all(query, 0.3)
        # The fleet store really swapped the representative in place.
        materialized = columnar.fleet.materialize(engines[0].name)
        assert materialized.n_documents == donor.n_documents
        assert dict(materialized.items()) == dict(donor.items())

    def test_unsupported_estimator_is_a_type_error(self, fleet_engines):
        """No batched kernel, no broker: a subclass's override would be
        silently ignored by the kernel, so construction refuses it."""
        with pytest.raises(TypeError, match="no batched kernel"):
            MetasearchBroker(estimator=HalvedSubrange())

    def test_constructor_has_no_backend_switch(self):
        import inspect

        assert "columnar" not in inspect.signature(MetasearchBroker.__init__).parameters
        with pytest.raises(TypeError):
            MetasearchBroker(columnar=False)
