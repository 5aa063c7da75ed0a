"""Unit tests for the estimate cache and its broker wiring."""

import contextlib
import sys
import threading
import time
from unittest import mock

import pytest

from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.metasearch import EstimateCache, MetasearchBroker
from repro.representatives import build_representative


def make_engine(name, docs):
    return SearchEngine(
        Collection.from_documents(
            name, [Document(f"{name}-{i}", terms=t) for i, t in enumerate(docs)]
        )
    )


#: Estimate-cache slots: an engine's (nodoc, avgsim) pair.
U1 = (1.0, 0.5)
U2 = (2.0, 0.25)


class TestEstimateCache:
    def test_get_put_roundtrip(self):
        cache = EstimateCache(maxsize=4)
        key = ("e", ("a",), (1.0,), 0.2)
        assert cache.get(key) is None
        cache.put(key, U1)
        assert cache.get(key) == U1
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = EstimateCache(maxsize=2)
        k1, k2, k3 = [("e", (t,), (1.0,), 0.2) for t in "abc"]
        cache.put(k1, U1)
        cache.put(k2, U1)
        cache.get(k1)  # refresh k1 -> k2 becomes least recently used
        cache.put(k3, U2)
        assert k1 in cache and k3 in cache
        assert k2 not in cache
        assert cache.evictions == 1

    def test_invalidate_engine_only_touches_that_engine(self):
        cache = EstimateCache(maxsize=8)
        cache.put(("a", ("t",), (1.0,), 0.2), U1)
        cache.put(("a", ("u",), (1.0,), 0.3), U1)
        cache.put(("b", ("t",), (1.0,), 0.2), U2)
        assert cache.invalidate_engine("a") == 2
        assert len(cache) == 1
        assert ("b", ("t",), (1.0,), 0.2) in cache

    def test_clear_keeps_counters(self):
        cache = EstimateCache(maxsize=4)
        key = ("e", ("a",), (1.0,), 0.2)
        cache.put(key, U1)
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_key_includes_weights_and_threshold(self):
        q1 = Query(terms=("a", "b"), weights=(1.0, 1.0))
        q2 = Query(terms=("a", "b"), weights=(1.0, 2.0))
        assert EstimateCache.key_for("e", q1, 0.2) != EstimateCache.key_for("e", q2, 0.2)
        assert EstimateCache.key_for("e", q1, 0.2) != EstimateCache.key_for("e", q1, 0.3)

    def test_key_normalizes_proportional_weights(self):
        """Regression: estimators only consume normalized weights, so raw
        weights (1, 1) and (2, 2) are the same query and must share one
        cache entry instead of fragmenting the cache."""
        q1 = Query(terms=("a", "b"), weights=(1.0, 1.0))
        q2 = Query(terms=("a", "b"), weights=(2.0, 2.0))
        q3 = Query(terms=("a", "b"), weights=(3.0, 3.0))
        key = EstimateCache.key_for("e", q1, 0.2)
        assert key == EstimateCache.key_for("e", q2, 0.2)
        assert key == EstimateCache.key_for("e", q3, 0.2)
        # Single-term queries always normalize to weight 1.0.
        s1 = Query(terms=("a",), weights=(1.0,))
        s2 = Query(terms=("a",), weights=(7.0,))
        assert EstimateCache.key_for("e", s1, 0.2) == EstimateCache.key_for("e", s2, 0.2)

    def test_maxsize_validation(self):
        with pytest.raises(ValueError, match="maxsize"):
            EstimateCache(maxsize=-1)

    def test_zero_capacity_holds_nothing_and_counts_misses(self):
        cache = EstimateCache(maxsize=0)
        key = EstimateCache.key_for("d1", Query.from_terms(["a"]), 0.1)
        cache.put(key, (1.0, 0.5))
        assert len(cache) == 0 and key not in cache
        assert cache.get(key) is None
        assert (cache.hits, cache.misses, cache.evictions) == (0, 1, 0)

    def test_hit_rate(self):
        cache = EstimateCache(maxsize=4)
        assert cache.hit_rate == 0.0
        key = ("e", ("a",), (1.0,), 0.2)
        cache.get(key)
        cache.put(key, U1)
        cache.get(key)
        assert cache.hit_rate == 0.5


QK = (("t", "u"), (0.6, 0.8))  # a query key: (terms, normalized weights)

FLEET = {
    "space": [["rocket", "orbit"], ["rocket"]],
    "food": [["recipe", "sauce"], ["sauce"]],
    "mixed": [["rocket", "sauce"], ["orbit", "recipe"]],
}


def make_broker(names=tuple(FLEET), cache_size=64):
    broker = MetasearchBroker(cache_size=cache_size)
    for name in names:
        broker.register(make_engine(name, FLEET[name]))
    return broker


class TestRowSemantics:
    """The unit of storage, recency and eviction is the fleet row; the unit
    of capacity and of every counter is the slot (one engine's estimate)."""

    def test_capacity_is_slots(self):
        cache = EstimateCache(maxsize=6)
        for threshold in (0.1, 0.2, 0.3):
            cache.put_row(QK, threshold, "abc", [U1, U1, U2])
        assert len(cache) == 6
        assert cache.evictions == 3
        assert not cache.peek_row(QK, 0.1, "abc")
        assert cache.peek_row(QK, 0.2, "abc") and cache.peek_row(QK, 0.3, "abc")

    def test_invalidate_terms_leaves_a_hole(self):
        cache = EstimateCache(maxsize=16)
        cache.put_row(QK, 0.2, "abc", [U1, U2, U1])
        cache.put_row((("v",), (1.0,)), 0.2, "abc", [U2, U2, U2])
        assert cache.invalidate_terms("b", {"t"}) == (1, 1)
        assert cache.get_row(QK, 0.2, "abc") == [U1, None, U1]
        assert (cache.hits, cache.misses) == (2, 1)
        assert len(cache) == 5 and cache.invalidations == 1
        # An emptied row is removed and unindexed, not left as a husk.
        for engine in "ac":
            cache.invalidate_terms(engine, {"u"})
        assert len(cache) == 3 and QK + (0.2,) not in cache._rows
        assert set(cache._by_term) == {"v"}

    def test_broker_refills_a_hole(self):
        broker, uncached = make_broker(), make_broker(cache_size=0)
        query = Query.from_terms(["rocket", "sauce"])
        broker.estimate_all(query, 0.1)
        evicted, __ = broker.cache.invalidate_terms("food", {"sauce"})
        assert evicted == 1 and len(broker.cache) == 2
        assert broker.estimate_all_cached(query, 0.1) is None
        hits, misses = broker.cache.hits, broker.cache.misses
        assert broker.estimate_all(query, 0.1) == uncached.estimate_all(query, 0.1)
        assert (broker.cache.hits, broker.cache.misses) == (hits + 2, misses + 1)
        assert len(broker.cache) == 3
        assert broker.estimate_all_cached(query, 0.1) is not None

    def test_row_wider_than_cache_is_not_retained(self):
        cache = EstimateCache(maxsize=2)
        cache.put_row(QK, 0.2, "abc", [U1, U1, U1])
        assert len(cache) == 0 and cache.evictions == 3
        assert cache.get_row(QK, 0.2, "abc") == [None, None, None]
        assert not cache._by_term

    def test_late_engine_makes_rows_partial(self):
        broker = make_broker(("space", "food"))
        query = Query.from_terms(["rocket"])
        broker.estimate_all(query, 0.1)
        broker.register(make_engine("mixed", FLEET["mixed"]))
        assert broker.estimate_all_cached(query, 0.1) is None
        row = broker.estimate_all(query, 0.1)
        assert row == make_broker(cache_size=0).estimate_all(query, 0.1)
        assert (broker.cache.hits, broker.cache.misses) == (2, 3)
        assert len(broker.cache) == 3

    def test_peek_row_moves_neither_counters_nor_recency(self):
        cache = EstimateCache(maxsize=4)
        cache.put_row(QK, 0.1, "ab", [U1, U1])
        cache.put_row(QK, 0.2, "ab", [U2, U2])
        assert cache.peek_row(QK, 0.1, "ab")
        assert not cache.peek_row(QK, 0.1, "abc")  # partial is not present
        assert not cache.peek_row(QK, 0.3, "ab")
        assert (cache.hits, cache.misses) == (0, 0)
        cache.put_row(QK, 0.3, "ab", [U1, U1])  # evicts the un-refreshed 0.1 row
        assert not cache.peek_row(QK, 0.1, "a") and cache.peek_row(QK, 0.2, "ab")

    def test_reads_race_invalidation_and_writes(self):
        """``get_row`` copies out under the lock while invalidation mutates
        row dicts in place: a reader racing a writer sees whole, right rows."""
        broker, uncached = make_broker(), make_broker(cache_size=0)
        query = Query.from_terms(["rocket", "sauce"])
        query_key = EstimateCache.query_key(query)
        expected = uncached.estimate_all(query, 0.1)
        by_engine = {
            e.engine: (e.usefulness.nodoc, e.usefulness.avgsim) for e in expected
        }
        stop, errors = threading.Event(), []

        def guarded(body):
            def run():
                try:
                    while not stop.is_set():
                        body()
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)
                    stop.set()
            return threading.Thread(target=run)

        def read():
            assert broker.estimate_all(query, 0.1) == expected

        def write():
            for name, value in by_engine.items():
                broker.cache.invalidate_terms(name, {"sauce"})
                broker.cache.put_row(query_key, 0.1, [name], [value])

        threads = [guarded(read), guarded(write)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.3)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert broker.cache.invalidations > 0 and broker.cache.hits > 0


class TestBrokerCaching:
    @pytest.fixture
    def broker(self):
        broker = MetasearchBroker(cache_size=64)
        broker.register(make_engine("space", [["rocket", "orbit"], ["rocket"]]))
        broker.register(make_engine("food", [["recipe", "sauce"], ["sauce"]]))
        return broker

    def test_repeated_estimates_hit_cache_and_agree(self, broker):
        query = Query.from_terms(["rocket"])
        first = broker.estimate_all(query, 0.2)
        assert broker.cache.hits == 0
        second = broker.estimate_all(query, 0.2)
        assert broker.cache.hits == 2  # both engines served from cache
        assert first == second

    def test_proportional_queries_share_cache_entries(self, broker):
        """Regression: scaling every weight by the same factor describes the
        same normalized query, so the second variant is a pure cache hit."""
        broker.estimate_all(Query(terms=("rocket", "sauce"), weights=(1.0, 1.0)), 0.2)
        misses = broker.cache.misses
        doubled = broker.estimate_all(
            Query(terms=("rocket", "sauce"), weights=(2.0, 2.0)), 0.2
        )
        assert broker.cache.misses == misses  # no new entries computed
        assert broker.cache.hits == 2  # both engines served from cache
        assert doubled == broker.estimate_all(
            Query(terms=("rocket", "sauce"), weights=(1.0, 1.0)), 0.2
        )

    def test_broker_entries_live_under_key_for_keys(self, broker):
        """The broker builds each key from the group's ``query_key`` computed
        once (not ``key_for`` per engine); the entries must be the very ones
        ``key_for`` names, or precise invalidation would miss them."""
        query = Query(terms=("rocket", "sauce"), weights=(3.0, 1.0))
        broker.estimate_all(query, 0.2)
        assert len(broker.cache) == 2
        for name in broker.engine_names:
            assert EstimateCache.key_for(name, query, 0.2) in broker.cache

    @pytest.mark.parametrize("width", [2, 32])
    def test_one_cache_round_trip_per_row(self, width):
        """The fleet row is the cache's unit: a cold ``estimate_all`` is one
        ``get_row`` + one ``put_row`` and a warm one a single ``get_row``,
        whatever the fleet width — not 2 W + per-engine calls."""
        broker = MetasearchBroker(cache_size=1024)
        for e in range(width):
            broker.register(make_engine(f"e{e:02d}", [["rocket", f"w{e}"]]))
        query = Query.from_terms(["rocket"])

        def calls(method, *args):
            """(get_row, put_row, peek_row) call counts of one broker call."""
            cache = broker.cache
            with contextlib.ExitStack() as stack:
                spies = [
                    stack.enter_context(
                        mock.patch.object(cache, name, wraps=getattr(cache, name))
                    )
                    for name in ("get_row", "put_row", "peek_row")
                ]
                method(*args)
            return tuple(spy.call_count for spy in spies)

        assert calls(broker.estimate_all_cached, query, 0.1) == (0, 0, 1)
        assert (broker.cache.hits, broker.cache.misses) == (0, 0)
        assert calls(broker.estimate_all, query, 0.1) == (1, 1, 0)
        assert calls(broker.estimate_all, query, 0.1) == (1, 0, 0)
        assert (broker.cache.hits, broker.cache.misses) == (width, width)

    def test_cache_disabled_with_zero_size(self):
        broker = MetasearchBroker(cache_size=0)
        assert broker.cache.maxsize == 0
        broker.register(make_engine("space", [["rocket"]]))
        estimates = broker.estimate_all(Query.from_terms(["rocket"]), 0.2)
        assert estimates[0].engine == "space"

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError, match="cache_size"):
            MetasearchBroker(cache_size=-1)

    def test_cached_equals_uncached(self, broker):
        uncached = MetasearchBroker(cache_size=0)
        uncached.register(make_engine("space", [["rocket", "orbit"], ["rocket"]]))
        uncached.register(make_engine("food", [["recipe", "sauce"], ["sauce"]]))
        for terms in (["rocket"], ["sauce"], ["rocket", "sauce"]):
            query = Query.from_terms(terms)
            for threshold in (0.1, 0.3):
                broker.estimate_all(query, threshold)  # warm
                assert broker.estimate_all(query, threshold) == uncached.estimate_all(
                    query, threshold
                )


class TestRegisterRefresh:
    def test_reregister_same_engine_rebuilds_representative(self):
        engine = make_engine("space", [["rocket"]])
        broker = MetasearchBroker()
        broker.register(engine)
        assert "orbit" not in broker.representative_of("space")
        # Simulate a corpus change by handing the refresh an updated
        # representative (real engines rebuild their index out of band).
        grown = build_representative(make_engine("space", [["rocket", "orbit"]]))
        broker.register(engine, representative=grown)
        assert "orbit" in broker.representative_of("space")
        assert len(broker) == 1

    def test_reregister_invalidates_cached_estimates(self):
        engine = make_engine("space", [["rocket"]])
        broker = MetasearchBroker(cache_size=64)
        broker.register(engine)
        query = Query.from_terms(["orbit"])
        before = broker.estimate_all(query, 0.1)
        assert before[0].usefulness.nodoc == 0.0  # "orbit" unknown
        assert broker.estimate_all(query, 0.1) == before  # cached
        grown = build_representative(
            make_engine("space", [["orbit", "orbit", "orbit"]])
        )
        broker.register(engine, representative=grown)
        after = broker.estimate_all(query, 0.1)
        assert after[0].usefulness.nodoc > 0.0  # stale estimate not served

    def test_different_engine_same_name_still_rejected(self):
        broker = MetasearchBroker()
        broker.register(make_engine("space", [["rocket"]]))
        with pytest.raises(ValueError, match="already registered"):
            broker.register(make_engine("space", [["other"]]))
