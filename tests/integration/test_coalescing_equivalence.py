"""Differential suite: the coalescing front door changes *when* work
runs, never *what* it answers.

Every test drives a coalescing-enabled :class:`GatewayApp` (or
:class:`CoordinatorApp`) with genuinely concurrent requests through the
full ``handle()`` policy — admission, deadlines, wire encoding — and
compares each response against a coalescing-off twin serving identical
collections:

* ``/estimate`` responses must match **byte-for-byte** across all five
  estimators, against both the coalescing-off twin and a gateway serving
  the scalar oracle (:class:`tests.oracle.ScalarOracle`).
* ``/search`` responses must match exactly after zeroing the wall-clock
  timing fields (``latencies`` values and ``failures[*].elapsed`` — the
  only nondeterministic bytes on the wire), including the per-engine
  ``EngineFailure`` records a broken backend produces and per-request
  ``limit`` truncation demuxed from the unlimited shared batch.
* The sharded topology: a gated fleet proves a flushed estimate window
  costs no shard RPC at all (the coordinator estimates from its own
  representatives) while duplicate queries dedup into one grid row, and
  a search round costs one ``/dispatch`` RPC per shard owning an invoked
  engine.
* Cache interplay: a warm estimate answers from the probe without
  joining any window, and invalidating the cache mid-window (between
  enqueue and flush) never poisons the flushed batch.
* A Hypothesis schedule drives random arrival jitter, duplicates, and
  window geometry to hunt ordering races the fixed choreographies miss.
"""

import json
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import get_estimator
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker
from repro.obs import MetricsRegistry
from repro.representatives import build_representative, partition_round_robin
from repro.serving import (
    CoordinatorApp,
    GatewayApp,
    ServingServer,
    ShardApp,
    ShardedFleet,
)
from repro.serving.wire import query_to_wire
from tests.oracle import ScalarOracle

pytestmark = pytest.mark.slow

ESTIMATORS = [
    "basic",
    "binary-independence",
    "gloss-hc",
    "gloss-disjoint",
    "subrange",
]

N_ENGINES = 4

VOCAB = ["rocket", "orbit", "engine", "fuel", "sauce", "basil", "kiwi", "plum"]


def fleet_collections():
    """Four small overlapping collections with deterministic contents."""
    collections = []
    for e in range(N_ENGINES):
        documents = []
        for d in range(6):
            terms = [
                VOCAB[(e + d + k) % len(VOCAB)]
                for k in range((e * 7 + d * 3) % 5 + 2)
            ]
            documents.append(Document(f"e{e}-d{d}", terms=terms))
        collections.append(Collection.from_documents(f"engine{e}", documents))
    return collections


QUERIES = [
    Query(terms=("rocket", "orbit"), weights=(2.0, 1.0)),
    Query(terms=("sauce",), weights=(1.0,)),
    Query(terms=("kiwi", "fuel", "basil"), weights=(1.0, 3.0, 0.5)),
    Query(terms=("nosuchterm",), weights=(1.0,)),
]

THRESHOLDS = (0.0, 0.2, 0.5)

#: Coalescing geometry used unless a test needs its own: a window long
#: enough that threads launched together genuinely coalesce, with
#: admission wide enough that the window (not the queue) is the batcher.
COALESCE_KWARGS = dict(
    coalesce_window=0.2,
    coalesce_max_batch=32,
    max_active=32,
    max_queued=64,
)


def make_broker(estimator_name, collections, wrap=None, **kwargs):
    """A broker over fresh engines for ``collections``; ``wrap`` maps an
    engine to its registered stand-in (representatives always build from
    the real engine, so estimates stay identical)."""
    broker = MetasearchBroker(
        estimator=get_estimator(estimator_name), **kwargs
    )
    for collection in collections:
        engine = SearchEngine(collection)
        registered = wrap(engine) if wrap is not None else engine
        broker.register(
            registered, representative=build_representative(engine)
        )
    return broker


def make_oracle(estimator_name, collections):
    oracle = ScalarOracle(get_estimator(estimator_name))
    for collection in collections:
        oracle.register(SearchEngine(collection))
    return oracle


def estimate_body(query, threshold):
    return json.dumps(
        {"query": query_to_wire(query), "threshold": threshold}
    ).encode("utf-8")


def search_body(query, threshold, limit=None):
    payload = {"query": query_to_wire(query), "threshold": threshold}
    if limit is not None:
        payload["limit"] = limit
    return json.dumps(payload).encode("utf-8")


def fire_concurrently(app, path, bodies, barrier_timeout=30):
    """POST every body from its own thread through the app's full
    ``handle`` policy; returns responses in submission order."""
    responses = [None] * len(bodies)
    barrier = threading.Barrier(len(bodies), timeout=barrier_timeout)

    def worker(i):
        barrier.wait()
        responses[i] = app.handle("POST", path, {}, bodies[i])

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(len(bodies))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "request thread hung"
    return responses


def serially(app, path, bodies):
    return [app.handle("POST", path, {}, body) for body in bodies]


def normalized(response):
    """Decode a ``/search`` response with its wall-clock-only fields
    (dispatch latencies, failure elapsed) zeroed; everything else must
    match exactly."""
    payload = json.loads(response.body_bytes())
    if isinstance(payload, dict):
        if isinstance(payload.get("latencies"), dict):
            payload["latencies"] = {
                name: 0.0 for name in payload["latencies"]
            }
        for failure in payload.get("failures", []) or []:
            if isinstance(failure, dict):
                failure["elapsed"] = 0.0
    return payload


class TestEstimateMatrix:
    """/estimate: byte-for-byte across estimators, against the
    coalescing-off twin and against the scalar oracle."""

    @pytest.mark.parametrize("estimator_name", ESTIMATORS)
    def test_coalesced_estimates_match_per_request_bytes(self, estimator_name):
        collections = fleet_collections()
        registry = MetricsRegistry()
        on = GatewayApp(
            make_broker(estimator_name, collections),
            registry=registry,
            **COALESCE_KWARGS,
        )
        off = GatewayApp(
            make_broker(estimator_name, collections),
            max_active=32,
            max_queued=64,
        )
        oracle = GatewayApp(make_oracle(estimator_name, collections))
        bodies = [
            estimate_body(query, threshold)
            for query in QUERIES
            for threshold in THRESHOLDS
        ]
        coalesced = fire_concurrently(on, "/estimate", bodies)
        reference = serially(off, "/estimate", bodies)
        scalar = serially(oracle, "/estimate", bodies)
        for got, want, exact in zip(coalesced, reference, scalar):
            assert got.status == want.status == exact.status == 200
            assert got.body_bytes() == want.body_bytes() == exact.body_bytes()
        assert registry.value(
            "serving.coalesce.requests", labels={"window": "estimate"}
        ) == len(bodies)


class TestSearchEquivalence:
    """/search: exact modulo timing, including failures and limits."""

    def test_search_with_broken_engine_and_limits(self, engine_doubles):
        collections = fleet_collections()

        def wrap(engine):
            if engine.name == "engine2":
                return engine_doubles.BrokenEngine(engine)
            return engine

        on = GatewayApp(
            make_broker("subrange", collections, wrap=wrap, workers=4),
            **COALESCE_KWARGS,
        )
        off = GatewayApp(
            make_broker("subrange", collections, wrap=wrap, workers=4),
            max_active=32,
            max_queued=64,
        )
        bodies = [
            search_body(query, threshold, limit)
            for query in QUERIES
            for threshold in (0.0, 0.2)
            for limit in (None, 3)
        ]
        coalesced = fire_concurrently(on, "/search", bodies)
        reference = serially(off, "/search", bodies)
        saw_failure = False
        for got, want in zip(coalesced, reference):
            assert got.status == 200 and want.status == 200
            got_payload, want_payload = normalized(got), normalized(want)
            assert got_payload == want_payload
            for failure in got_payload["failures"]:
                saw_failure = True
                assert failure["engine"] == "engine2"
                assert failure["failure_kind"] == "error"
        # The broken backend degraded at least one answer on both lanes,
        # so the equality above covered real EngineFailure records.
        assert saw_failure

    def test_duplicate_queries_share_one_estimate_row(self):
        """Identical concurrent estimates dedup into one grid row and
        still answer byte-for-byte."""
        collections = fleet_collections()
        registry = MetricsRegistry()
        broker = make_broker("subrange", collections)
        grid_rows = []
        original = broker.estimate_batch

        def counting_estimate_batch(queries, thresholds):
            queries = list(queries)
            grid_rows.append(len(queries))
            return original(queries, thresholds)

        broker.estimate_batch = counting_estimate_batch
        on = GatewayApp(broker, registry=registry, **COALESCE_KWARGS)
        off = GatewayApp(make_oracle("subrange", collections))
        body = estimate_body(QUERIES[0], 0.2)
        bodies = [body] * 8
        coalesced = fire_concurrently(on, "/estimate", bodies)
        want = off.handle("POST", "/estimate", {}, body)
        for got in coalesced:
            assert got.status == 200
            assert got.body_bytes() == want.body_bytes()
        deduped = registry.value(
            "serving.coalesce.deduped", labels={"window": "estimate"}
        )
        hits = registry.value(
            "serving.coalesce.cache_hits", labels={"window": "estimate"}
        )
        # Every duplicate was absorbed before reaching the grid: either
        # deduped inside a window or answered by the cache probe once
        # the first flush warmed the estimate cache.
        assert deduped + hits >= 1
        assert sum(grid_rows) + deduped + hits == len(bodies)


class TestCacheInterplay:
    def test_warm_estimate_answers_from_probe_without_batching(self):
        collections = fleet_collections()
        registry = MetricsRegistry()
        app = GatewayApp(
            make_broker("subrange", collections),
            registry=registry,
            **COALESCE_KWARGS,
        )
        body = estimate_body(QUERIES[0], 0.2)
        first = app.handle("POST", "/estimate", {}, body)
        assert first.status == 200
        flushes_before = registry.value(
            "serving.coalesce.flush",
            labels={"window": "estimate", "reason": "idle"},
        )
        again = fire_concurrently(app, "/estimate", [body] * 6)
        for got in again:
            assert got.status == 200
            assert got.body_bytes() == first.body_bytes()
        assert registry.value(
            "serving.coalesce.cache_hits", labels={"window": "estimate"}
        ) == 6
        # No new flush of any kind: the probe answered before the window.
        flush_total = sum(
            registry.value(
                "serving.coalesce.flush",
                labels={"window": "estimate", "reason": reason},
            )
            for reason in ("idle", "drain", "full", "timer")
        )
        assert flush_total == flushes_before

    def test_mid_window_cache_invalidation_never_poisons_the_batch(self):
        """Clear the estimate cache while members sit queued behind a
        stalled leader: the flushed batch recomputes and still answers
        byte-for-byte."""
        collections = fleet_collections()
        broker = make_broker("subrange", collections)
        entered = threading.Event()
        gate = threading.Event()
        original = broker.estimate_batch
        calls = []

        def gated_estimate_batch(queries, thresholds):
            calls.append(len(list(queries)))
            if len(calls) == 1:
                entered.set()
                assert gate.wait(20), "estimate gate never released"
            return original(queries, thresholds)

        broker.estimate_batch = gated_estimate_batch
        app = GatewayApp(broker, **COALESCE_KWARGS)
        off = GatewayApp(make_oracle("subrange", collections))
        leader_body = estimate_body(QUERIES[0], 0.0)
        member_bodies = [
            estimate_body(query, 0.2) for query in QUERIES[:3]
        ]

        leader_response = []
        leader = threading.Thread(
            target=lambda: leader_response.append(
                app.handle("POST", "/estimate", {}, leader_body)
            )
        )
        leader.start()
        assert entered.wait(10)

        member_responses = [None] * len(member_bodies)

        def member(i):
            member_responses[i] = app.handle(
                "POST", "/estimate", {}, member_bodies[i]
            )

        threads = [
            threading.Thread(target=member, args=(i,))
            for i in range(len(member_bodies))
        ]
        for thread in threads:
            thread.start()
        window = app._coalesce_estimate
        deadline = time.monotonic() + 10
        while window.queued < len(member_bodies):
            assert time.monotonic() < deadline, "members never queued"
            time.sleep(0.002)
        # The invalidation lands between enqueue and flush.
        broker.cache.clear()
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        leader.join(timeout=30)
        assert leader_response and leader_response[0].status == 200
        for body, got in zip(member_bodies, member_responses):
            want = off.handle("POST", "/estimate", {}, body)
            assert got.status == 200
            assert got.body_bytes() == want.body_bytes()
        # One solo leader batch, one coalesced member batch.
        assert calls == [1, len(member_bodies)]


class TestShardedCoordinator:
    """A flushed window costs no estimate RPC, and a search round one
    dispatch RPC per owning shard."""

    @pytest.fixture()
    def shard_servers(self):
        collections = fleet_collections()
        slices = partition_round_robin(collections, 2)
        servers = []
        try:
            for index, slice_collections in enumerate(slices):
                broker = MetasearchBroker()
                for collection in slice_collections:
                    engine = SearchEngine(collection)
                    broker.register(
                        engine, representative=build_representative(engine)
                    )
                server = ServingServer(ShardApp(
                    broker, shard_index=index, registry=MetricsRegistry()
                ))
                server.start_background()
                servers.append(server)
            yield servers
        finally:
            for server in servers:
                server.drain(timeout=10)

    def test_window_costs_one_rpc_per_shard_and_dedups(self, shard_servers):
        urls = [server.url for server in shard_servers]
        registry = MetricsRegistry()
        entered = threading.Event()
        gate = threading.Event()

        class GatedFleet(ShardedFleet):
            calls = 0

            def estimate_batch(self, queries, thresholds):
                GatedFleet.calls += 1
                if GatedFleet.calls == 1:
                    entered.set()
                    assert gate.wait(20), "fleet gate never released"
                return super().estimate_batch(queries, thresholds)

        fleet = GatedFleet(urls, registry=registry).attach()
        app = CoordinatorApp(
            fleet,
            registry=registry,
            coalesce_window=0.5,
            coalesce_max_batch=32,
            max_active=32,
            max_queued=64,
        )
        off = CoordinatorApp(ShardedFleet(urls).attach())

        leader_body = estimate_body(QUERIES[0], 0.0)
        # Distinct members plus one duplicate pair exercising dedup.
        member_specs = [
            (QUERIES[0], 0.2),
            (QUERIES[1], 0.2),
            (QUERIES[2], 0.5),
            (QUERIES[1], 0.2),  # duplicate of member 1
            (QUERIES[3], 0.0),
        ]
        member_bodies = [estimate_body(q, t) for q, t in member_specs]

        leader_response = []
        leader = threading.Thread(
            target=lambda: leader_response.append(
                app.handle("POST", "/estimate", {}, leader_body)
            )
        )
        leader.start()
        assert entered.wait(10)

        member_responses = [None] * len(member_bodies)

        def member(i):
            member_responses[i] = app.handle(
                "POST", "/estimate", {}, member_bodies[i]
            )

        threads = [
            threading.Thread(target=member, args=(i,))
            for i in range(len(member_bodies))
        ]
        for thread in threads:
            thread.start()
        window = app._coalesce_estimate
        deadline = time.monotonic() + 10
        while window.queued < len(member_bodies):
            assert time.monotonic() < deadline, "members never queued"
            time.sleep(0.002)
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        leader.join(timeout=30)

        assert leader_response and leader_response[0].status == 200
        for body, got in zip(member_bodies, member_responses):
            want = off.handle("POST", "/estimate", {}, body)
            assert got.status == 200
            assert got.body_bytes() == want.body_bytes()

        # Exactly two estimate batches reached the fleet: the solo leader
        # and the single flushed window holding every queued member.
        assert GatedFleet.calls == 2
        # Not one of them asked a shard: the coordinator estimates from
        # its own representatives.
        for server in shard_servers:
            assert server.app.registry.value("serving.shard.estimates") == 0
        assert registry.value(
            "coordinator.scatter.rpcs", labels={"phase": "estimate"}
        ) is None
        # The duplicate pair collapsed to one grid row inside the window.
        assert registry.value(
            "serving.coalesce.deduped", labels={"window": "estimate"}
        ) == 1

        # A search round asks each shard owning an invoked engine once.
        responses = fleet.search_batch(
            [query for query, __ in member_specs],
            [threshold for __, threshold in member_specs],
        )
        owners = {
            fleet.local.engine_of(name).host.url
            for response in responses
            for name in response.invoked
        }
        assert owners
        assert registry.value(
            "coordinator.scatter.fanouts", labels={"phase": "dispatch"}
        ) == 1
        assert registry.value(
            "coordinator.scatter.rpcs", labels={"phase": "dispatch"}
        ) == len(owners)


class TestArrivalJitter:
    """Hypothesis hunts ordering races the fixed choreographies miss."""

    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(QUERIES) - 1),
                st.sampled_from(THRESHOLDS),
                st.floats(min_value=0.0, max_value=0.03),
            ),
            min_size=2,
            max_size=8,
        ),
        window_ms=st.sampled_from([2.0, 10.0, 40.0]),
        max_batch=st.sampled_from([2, 4, 32]),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_arrival_schedule_answers_exactly(
        self, schedule, window_ms, max_batch
    ):
        collections = fleet_collections()
        on = GatewayApp(
            make_broker("basic", collections),
            coalesce_window=window_ms / 1000.0,
            coalesce_max_batch=max_batch,
            max_active=32,
            max_queued=64,
        )
        off = GatewayApp(make_oracle("basic", collections))
        bodies = [
            estimate_body(QUERIES[qi], threshold)
            for qi, threshold, __ in schedule
        ]
        responses = [None] * len(schedule)

        def worker(i, delay):
            time.sleep(delay)
            responses[i] = on.handle("POST", "/estimate", {}, bodies[i])

        threads = [
            threading.Thread(target=worker, args=(i, spec[2]))
            for i, spec in enumerate(schedule)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "jittered request hung"
        for body, got in zip(bodies, responses):
            want = off.handle("POST", "/estimate", {}, body)
            assert got.status == 200
            assert got.body_bytes() == want.body_bytes()
