"""Differential suite: the batch pipeline vs the serial per-query path.

The batch APIs (`estimate_batch` / `search_batch`) group queries, share one
grid call per group and read through the estimate cache; they promise
*exact* equality with per-query answers.  The estimate reference is the
scalar oracle (:class:`tests.oracle.ScalarOracle`: the paper's estimator
looped over dict representatives, query by query); the search reference is
a second broker answering one ``search`` at a time, whose estimates are
themselves pinned to the oracle.  Every comparison is ``==``, never
``approx``.

Covered: plain equivalence over a realistic query log, per-query
thresholds, injected engine failures (a broker whose backend is down),
mid-batch cache invalidation via re-registration, disabled caches, and
the threshold-dependent previous method (one kernel row per threshold).
"""

from __future__ import annotations

import pytest

from repro.core import PreviousMethodEstimator
from repro.corpus import Query
from repro.corpus.synth import NewsgroupModel, QueryLogModel
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker
from repro.representatives import build_representative
from tests.oracle import ScalarOracle

THRESHOLD = 0.25
N_QUERIES = 40


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


def make_broker(engines, **kwargs) -> MetasearchBroker:
    broker = MetasearchBroker(**kwargs)
    for engine in engines:
        broker.register(engine)
    return broker


def make_oracle(engines, estimator=None) -> ScalarOracle:
    oracle = ScalarOracle(estimator)
    for engine in engines:
        oracle.register(engine)
    return oracle


def response_signature(response):
    """Everything except timing: EngineFailure carries wall-clock fields,
    so failures compare by (engine, kind) instead of dataclass equality."""
    return (
        response.hits,
        response.invoked,
        response.estimates,
        [(f.engine, f.kind) for f in response.failures],
    )


class TestEstimateEquivalence:
    def test_batch_equals_serial_exactly(self, fleet_engines, fleet_queries):
        serial = make_oracle(fleet_engines)
        batch = make_broker(fleet_engines)
        expected = [
            serial.estimate_all(query, THRESHOLD) for query in fleet_queries
        ]
        assert batch.estimate_batch(fleet_queries, THRESHOLD) == expected

    def test_batch_with_caches_disabled(self, fleet_engines, fleet_queries):
        serial = make_oracle(fleet_engines)
        batch = make_broker(fleet_engines, cache_size=0)
        expected = [
            serial.estimate_all(query, THRESHOLD) for query in fleet_queries
        ]
        assert batch.estimate_batch(fleet_queries, THRESHOLD) == expected

    def test_per_query_thresholds(self, fleet_engines, fleet_queries):
        thresholds = [
            0.1 + 0.05 * (i % 6) for i in range(len(fleet_queries))
        ]
        serial = make_oracle(fleet_engines)
        batch = make_broker(fleet_engines)
        expected = [
            serial.estimate_all(query, threshold)
            for query, threshold in zip(fleet_queries, thresholds)
        ]
        assert batch.estimate_batch(fleet_queries, thresholds) == expected

    def test_same_query_at_many_thresholds_shares_expansion(
        self, fleet_engines, fleet_queries
    ):
        """Duplicating one query across a threshold grid exercises the
        shared-expansion path; answers still match serial exactly."""
        query = fleet_queries[0]
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        serial = make_oracle(fleet_engines)
        batch = make_broker(fleet_engines)
        expected = [serial.estimate_all(query, t) for t in grid]
        assert batch.estimate_batch([query] * len(grid), grid) == expected

    def test_repeated_batches_stay_equal(self, fleet_engines, fleet_queries):
        """A warm second batch (everything cached) returns the same rows."""
        batch = make_broker(fleet_engines)
        first = batch.estimate_batch(fleet_queries, THRESHOLD)
        second = batch.estimate_batch(fleet_queries, THRESHOLD)
        assert first == second
        assert batch.cache.hits > 0

    def test_threshold_count_mismatch_rejected(
        self, fleet_engines, fleet_queries
    ):
        batch = make_broker(fleet_engines)
        with pytest.raises(ValueError, match="thresholds"):
            batch.estimate_batch(fleet_queries, [0.1, 0.2])

    def test_non_expansion_estimator(self, fleet_engines, fleet_queries):
        """The threshold-dependent previous method: its kernel rows are
        (threshold, query, engine) cells; equality must still be exact."""
        serial = make_oracle(fleet_engines, PreviousMethodEstimator())
        batch = make_broker(fleet_engines, estimator=PreviousMethodEstimator())
        expected = [
            serial.estimate_all(query, THRESHOLD)
            for query in fleet_queries[:10]
        ]
        assert batch.estimate_batch(fleet_queries[:10], THRESHOLD) == expected


class TestSearchEquivalence:
    def test_search_batch_equals_serial(self, fleet_engines, fleet_queries):
        serial = make_broker(fleet_engines)
        batch = make_broker(fleet_engines)
        expected = [
            response_signature(serial.search(query, THRESHOLD))
            for query in fleet_queries
        ]
        got = [
            response_signature(response)
            for response in batch.search_batch(fleet_queries, THRESHOLD)
        ]
        assert got == expected
        oracle = make_oracle(fleet_engines)
        assert [sig[2] for sig in got] == [
            oracle.estimate_all(query, THRESHOLD) for query in fleet_queries
        ]

    def test_search_batch_concurrent_dispatch(
        self, fleet_engines, fleet_queries
    ):
        serial = make_broker(fleet_engines)
        batch = make_broker(fleet_engines, workers=4)
        expected = [
            response_signature(serial.search(query, THRESHOLD))
            for query in fleet_queries[:15]
        ]
        got = [
            response_signature(response)
            for response in batch.search_batch(fleet_queries[:15], THRESHOLD)
        ]
        assert got == expected

    def test_search_batch_with_broken_engine(
        self, fleet_engines, fleet_queries, engine_doubles
    ):
        """A downed backend degrades identically on both paths: same hits
        from the healthy engines, same (engine, kind) failure records."""

        def broken_fleet():
            broker = MetasearchBroker()
            broken = engine_doubles.BrokenEngine(fleet_engines[0])
            broker.register(
                broken, representative=build_representative(fleet_engines[0])
            )
            for engine in fleet_engines[1:]:
                broker.register(engine)
            return broker

        serial = broken_fleet()
        batch = broken_fleet()
        queries = fleet_queries[:15]
        expected = [
            response_signature(serial.search(query, THRESHOLD))
            for query in queries
        ]
        got = [
            response_signature(response)
            for response in batch.search_batch(queries, THRESHOLD)
        ]
        assert got == expected
        assert any(sig[3] for sig in got), "fault injection never fired"


class TestMidBatchInvalidation:
    """A re-registration between batches drops the engine's cached rows."""

    def test_reregistration_between_batches(self, fleet_model, fleet_queries):
        """Re-registering an engine with a different corpus must drop its
        cached estimates: the next batch answers from the new
        representative, identically to a fresh serial oracle."""
        original = SearchEngine(fleet_model.generate_group(0))
        other = SearchEngine(fleet_model.generate_group(1))
        queries = fleet_queries[:20]

        batch = MetasearchBroker()
        batch.register(original)
        batch.estimate_batch(queries, THRESHOLD)  # warm the estimate cache
        assert len(batch.cache) > 0

        # Same engine object, replacement representative — the refresh path.
        replacement = build_representative(other)
        replacement = type(replacement)(
            original.name,
            n_documents=replacement.n_documents,
            term_stats=dict(replacement.items()),
        )
        batch.register(original, representative=replacement)

        fresh = ScalarOracle()
        fresh.register(original, representative=replacement)
        expected = [fresh.estimate_all(query, THRESHOLD) for query in queries]
        assert batch.estimate_batch(queries, THRESHOLD) == expected

    def test_invalidation_drops_both_caches(self, fleet_model, fleet_queries):
        engine = SearchEngine(fleet_model.generate_group(0))
        broker = MetasearchBroker()
        broker.register(engine)
        broker.estimate_batch(fleet_queries[:10], THRESHOLD)
        assert len(broker.cache) > 0
        broker.register(engine)  # refresh rebuilds the representative
        assert len(broker.cache) == 0
        # Nothing fills the term-polynomial cache any more; it stays empty.
        assert len(broker.polycache) == 0
