"""Differential suite for the live-fleet delta pipeline.

The contract under test: a broker that catches up with a mutating engine
through :class:`RepresentativeDelta` application answers **exactly**
(``==``, never ``approx``) like the scalar oracle
(:class:`tests.oracle.ScalarOracle`) handed the engine's fresh canonical
representative — in one process and on the sharded topology, for all five
paper estimators — and so does the dict-form reference
:func:`tests.oracle.apply_delta`.  On top of the
bit-exactness story sit the safety properties: precise invalidation never
serves a stale cache entry while retaining entries for untouched terms,
version mismatches are rejected, and a compacted delta log, a restarted
engine or a shard's 409 resyncs through the full delta (from version 0),
which replaces whatever the receiver held.
"""

import dataclasses
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.metasearch.broker as broker_module
from repro.core import get_estimator
from repro.corpus import Collection, Document, Query, save_collection
from repro.engine import SearchEngine
from repro.fleet import LiveEngineServer, RepresentativeDelta
from repro.metasearch import MetasearchBroker
from repro.obs import MetricsRegistry
from repro.representatives import DatabaseRepresentative, TermStats
from repro.serving import (
    EngineApp,
    LiveEngineApp,
    RemoteEngine,
    RemoteServingError,
    ServingServer,
    ShardApp,
    ShardedFleet,
)
from tests.oracle import ScalarOracle, apply_delta

pytestmark = pytest.mark.slow

ESTIMATORS = [
    "basic",
    "binary-independence",
    "gloss-hc",
    "gloss-disjoint",
    "subrange",
]

VOCAB = [
    "rocket", "orbit", "engine", "fuel", "sauce", "basil",
    "kiwi", "plum", "gear", "lens", "prism", "dune",
]

N_ENGINES = 3

QUERIES = [
    Query(terms=("rocket", "orbit"), weights=(2.0, 1.0)),
    Query(terms=("sauce",), weights=(1.0,)),
    Query(terms=("kiwi", "fuel", "basil"), weights=(1.0, 3.0, 0.5)),
    Query(terms=("comet", "plum"), weights=(1.0, 1.0)),  # fresh + old term
    Query(terms=("nosuchterm",), weights=(1.0,)),
]

THRESHOLDS = (0.0, 0.2, 0.5)


def make_documents(e):
    documents = []
    for d in range(8):
        terms = [
            VOCAB[(e + d + k) % len(VOCAB)]
            for k in range((e * 7 + d * 3) % 5 + 2)
        ]
        documents.append(Document(f"e{e}-d{d}", terms=terms))
    return documents


def churn(live):
    """A deterministic mutation script covering removal, unknown-term
    ingestion, and remove-then-re-add of an original document."""
    first = live.doc_ids[0]
    original = make_documents(int(live.name[-1]))[0]
    live.remove_documents(live.doc_ids[1:3])
    live.add_documents(
        [
            Document(f"{live.name}-n0", ["comet", "rocket", "dune"]),
            Document(f"{live.name}-n1", ["comet", "plum"]),
        ]
    )
    live.remove_documents([first])
    live.add_documents([original])


def make_live_fleet():
    fleet = []
    for e in range(N_ENGINES):
        live = LiveEngineServer(f"engine{e}", make_documents(e))
        fleet.append((live, live.delta_since(0)))
    return fleet


def current(live):
    """The engine's whole representative: its full delta's."""
    return live.delta_since(0).as_representative()


def assert_rows_match(stale_broker_like, fresh_broker):
    for query in QUERIES:
        for threshold in THRESHOLDS:
            assert stale_broker_like.estimate_all(
                query, threshold
            ) == fresh_broker.estimate_all(query, threshold)


def fresh_oracle_for(fleet, estimator_name="subrange"):
    """The scalar oracle over every engine's fresh canonical representative."""
    oracle = ScalarOracle(get_estimator(estimator_name))
    for live, __ in fleet:
        oracle.register(live, representative=current(live))
    return oracle


class TestDifferentialBackends:
    """Delta catch-up == fresh representative, for every estimator and
    backend."""

    @pytest.fixture(scope="class")
    def churned_fleet(self):
        fleet = make_live_fleet()
        for live, __ in fleet:
            churn(live)
        return fleet

    @pytest.mark.parametrize("estimator_name", ESTIMATORS)
    def test_dict_backend_exact(self, churned_fleet, estimator_name):
        """The dict-form reference: ``apply_delta`` on the base
        representative estimates exactly like the fresh one."""
        patched = ScalarOracle(get_estimator(estimator_name))
        for live, base in churned_fleet:
            patched.register(
                live,
                representative=apply_delta(
                    base.as_representative(), live.delta_since(base.to_version)
                ),
            )
        assert_rows_match(patched, fresh_oracle_for(churned_fleet, estimator_name))

    @pytest.mark.parametrize("estimator_name", ESTIMATORS)
    def test_columnar_backend_exact(self, churned_fleet, estimator_name):
        broker = MetasearchBroker(estimator=get_estimator(estimator_name))
        for live, base in churned_fleet:
            broker.register(
                live, representative=base.as_representative(), version=base.to_version
            )
            report = broker.apply_representative_delta(
                live.delta_since(base.to_version)
            )
            assert report.to_version == live.version
            assert broker.representative_version(live.name) == live.version
        assert_rows_match(broker, fresh_oracle_for(churned_fleet, estimator_name))

    def test_sync_representative_uses_delta_path(self, churned_fleet):
        broker = MetasearchBroker(estimator=get_estimator("subrange"))
        live, base = churned_fleet[0]
        broker.register(
            live, representative=base.as_representative(), version=base.to_version
        )
        report = broker.sync_representative(live)
        assert report is not None and report.mode == "precise"
        assert broker.representative_version(live.name) == live.version
        assert_rows_match(broker, fresh_oracle_for([churned_fleet[0]]))


def serve_shards(fleet, app_class=ShardApp, versioned=True):
    """Two shard servers, each over a broker holding every other engine of
    ``fleet`` at its base version (none unless ``versioned``); returns the
    servers."""
    servers = []
    for index in range(2):
        shard_broker = MetasearchBroker()
        for live, base in fleet[index::2]:
            shard_broker.register(
                live,
                representative=base.as_representative(),
                version=base.to_version if versioned else None,
            )
        servers.append(ServingServer(app_class(shard_broker, shard_index=index)))
        servers[-1].start_background()
    return servers


def ship(servers, live, since):
    """Apply ``live``'s delta from ``since`` to the broker of the shard
    that owns it — the only place a shard's representatives change."""
    index = int(live.name[-1]) % len(servers)
    servers[index].app.broker.apply_representative_delta(live.delta_since(since))


@pytest.fixture
def no_report_age(monkeypatch):
    """Every request asks each host for its versions: the bound has always
    passed."""
    monkeypatch.setattr(broker_module, "REPORT_MAX_AGE", 0.0)


class TestShardedDeltaPropagation:
    """A delta applied on the shard that owns its engine reaches the
    coordinator by the coordinator's own pull, and stays exact."""

    @pytest.fixture
    def sharded(self, no_report_age):
        fleet = make_live_fleet()
        servers = serve_shards(fleet)
        try:
            registry = MetricsRegistry()
            sharded_fleet = ShardedFleet(
                [server.url for server in servers], registry=registry
            ).attach(timeout=30.0)
            try:
                yield fleet, sharded_fleet, servers, registry
            finally:
                sharded_fleet.close()
        finally:
            for server in servers:
                server.drain(timeout=10)

    def test_delta_routes_to_owning_shard_and_stays_exact(self, sharded):
        fleet, sharded_fleet, servers, registry = sharded
        for live, base in fleet:
            churn(live)
            ship(servers, live, base.to_version)
        local = fresh_oracle_for(fleet)
        for query in QUERIES:
            for threshold in THRESHOLDS:
                assert sharded_fleet.estimate_all(
                    query, threshold
                ) == local.estimate_all(query, threshold)
        assert registry.value("coordinator.pulls") == len(fleet)
        for live, __ in fleet:
            assert sharded_fleet.local.representative_version(
                live.name
            ) == live.version

    def test_a_malformed_pull_is_refused(self, sharded):
        fleet, sharded_fleet, servers, registry = sharded
        live, base = fleet[1]
        held = sharded_fleet.estimate_all(QUERIES[0], 0.2)
        churn(live)
        ship(servers, live, base.to_version)
        app = servers[1].app
        route = app._delta

        def from_documents(name, since):  # a full delta claiming a base
            return dataclasses.replace(route(name, since), from_n_documents=1)

        app._delta = from_documents
        generation = sharded_fleet.local._generation
        try:
            assert sharded_fleet.estimate_all(QUERIES[0], 0.2) == held
            assert registry.value("coordinator.pulls.failed") == 1
            assert sharded_fleet.local._generation == generation
        finally:
            del app._delta
        assert_rows_match(sharded_fleet, fresh_oracle_for(fleet))

    def test_unowned_engine_is_refused(self, sharded):
        """A version the shard reports for an engine the coordinator did
        not attach from it is not pulled."""
        __, sharded_fleet, servers, registry = sharded
        ghost = LiveEngineServer("ghost", [Document("g1", ["rocket"])])
        servers[0].app.broker.sync_representative(ghost)
        sharded_fleet.estimate_all(QUERIES[0], 0.2)
        assert "ghost" not in sharded_fleet.engine_names
        assert registry.value("coordinator.pulls") in (None, 0)


class DropsPullReplies:
    """A shard client whose ``GET /representative`` reaches the shard but
    whose reply is lost; with ``reads_fail`` every request fails before
    it is sent."""

    def __init__(self, client, reads_fail=False):
        self.client = client
        self.reads_fail = reads_fail

    def request(self, method, path, *args, **kwargs):
        if self.reads_fail:
            raise RemoteServingError("connection refused")
        answer = self.client.request(method, path, *args, **kwargs)
        if path.startswith("/representative"):
            raise RemoteServingError("connection reset by peer")
        return answer


class HangsOnPull(ShardApp):
    """A shard whose ``GET /representative``, once ``armed``, waits until
    ``release`` is set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.armed = threading.Event()
        self.entered = threading.Event()
        self.release = threading.Event()

    def _route_representative(self, params, payload):
        if self.armed.is_set():
            self.entered.set()
            self.release.wait(10)
        return super()._route_representative(params, payload)


class TestShardedDeltaRecovery:
    """The coordinator's copy catches up with its shard when a pull's
    reply is lost or the shard cannot be reached, and a hung shard holds
    up no pull from another shard."""

    @pytest.fixture
    def sharded(self, request, no_report_age):
        fleet = make_live_fleet()
        servers = serve_shards(
            fleet, HangsOnPull, versioned=getattr(request, "param", True)
        )
        try:
            sharded_fleet = ShardedFleet(
                [server.url for server in servers], shard_timeout=3.0
            ).attach(timeout=30.0)
            try:
                yield fleet, sharded_fleet, servers
            finally:
                sharded_fleet.close()
        finally:
            for server in servers:
                server.app.release.set()
                server.drain(timeout=10)

    def assert_exact(self, fleet, sharded_fleet):
        assert_rows_match(sharded_fleet, fresh_oracle_for(fleet))

    @pytest.mark.parametrize("sharded", [True, False], indirect=True)
    def test_a_lost_reply_is_healed_by_re_reading_the_shard(self, sharded):
        fleet, sharded_fleet, servers = sharded
        live, base = fleet[1]
        shard = sharded_fleet.local.engine_of(live.name).host
        held = sharded_fleet.estimate_all(QUERIES[0], 0.2)
        churn(live)
        ship(servers, live, base.to_version)
        shard.client = DropsPullReplies(shard.client)
        try:
            assert sharded_fleet.estimate_all(QUERIES[0], 0.2) == held
        finally:
            shard.client = shard.client.client
        self.assert_exact(fleet, sharded_fleet)

    @pytest.mark.parametrize("sharded", [True, False], indirect=True)
    def test_a_lost_reply_not_re_read_is_re_read_by_the_next_delta(
        self, sharded
    ):
        fleet, sharded_fleet, servers = sharded
        live, base = fleet[1]
        shard = sharded_fleet.local.engine_of(live.name).host
        churn(live)
        ship(servers, live, base.to_version)
        shard.client = DropsPullReplies(shard.client, reads_fail=True)
        try:
            sharded_fleet.estimate_all(QUERIES[0], 0.2)
        finally:
            shard.client = shard.client.client
        applied = live.version
        live.add_documents([Document("after-lost", ["comet", "kiwi", "kiwi"])])
        ship(servers, live, applied)
        self.assert_exact(fleet, sharded_fleet)

    def test_a_delta_sent_to_the_shard_directly_is_read_at_the_next(
        self, sharded
    ):
        fleet, sharded_fleet, servers = sharded
        live, base = fleet[1]
        churn(live)
        ship(servers, live, base.to_version)
        self.assert_exact(fleet, sharded_fleet)
        applied = live.version
        live.add_documents([Document("after-direct", ["comet", "lens"])])
        ship(servers, live, applied)
        self.assert_exact(fleet, sharded_fleet)

    def test_a_hung_shard_holds_up_no_delta_to_another(self, sharded):
        fleet, sharded_fleet, servers = sharded
        (hung_live, hung_base), (live, base) = fleet[0], fleet[1]
        churn(hung_live)
        churn(live)
        servers[0].app.armed.set()
        ship(servers, hung_live, hung_base.to_version)
        ship(servers, live, base.to_version)
        hung = threading.Thread(
            target=sharded_fleet.estimate_all, args=(QUERIES[0], 0.2),
            daemon=True,
        )
        hung.start()
        try:
            assert servers[0].app.entered.wait(10)
            started = time.monotonic()
            sharded_fleet.estimate_all(QUERIES[0], 0.2)
            elapsed = time.monotonic() - started
            caught_up = sharded_fleet.local.representative_version(live.name)
        finally:
            servers[0].app.release.set()
            hung.join(10)
        assert caught_up == live.version
        # Well inside the 3 s shard timeout the hung pull is waiting out.
        assert elapsed < 1.5
        self.assert_exact(fleet, sharded_fleet)


class TestPreciseInvalidation:
    def make_broker(self, live, base, estimator_name="subrange"):
        broker = MetasearchBroker(estimator=get_estimator(estimator_name))
        broker.register(
            live, representative=base.as_representative(), version=base.to_version
        )
        return broker

    def test_never_serves_stale_after_single_term_mutation(self):
        live = LiveEngineServer("db", make_documents(0))
        base = live.delta_since(0)
        broker = self.make_broker(live, base)
        touched = Query(terms=("rocket",), weights=(1.0,))
        untouched = Query(terms=("plum",), weights=(1.0,))
        for query in (touched, untouched):
            broker.estimate_all(query, 0.2)

        # Swap one document for another of the same size so n is constant:
        # the composed delta touches only the documents' own terms and the
        # broker may keep every other term's cache rows.
        doomed = live.doc_ids[0]
        live.remove_documents([doomed])
        live.add_documents([Document("db-swap", ["rocket", "rocket"])])
        delta = live.delta_since(base.to_version)
        assert delta.from_n_documents == delta.n_documents
        assert "plum" not in delta.terms

        report = broker.apply_representative_delta(delta)
        assert report.mode == "precise"
        assert report.cache_retained >= 1

        fresh = fresh_oracle_for([(live, base)])
        assert broker.estimate_all(touched, 0.2) == fresh.estimate_all(
            touched, 0.2
        )

        hits_before = broker.cache.hits
        assert broker.estimate_all(untouched, 0.2) == fresh.estimate_all(
            untouched, 0.2
        )
        assert broker.cache.hits > hits_before

    def test_document_count_change_widens_eviction(self):
        live = LiveEngineServer("db", make_documents(0))
        base = live.delta_since(0)
        broker = self.make_broker(live, base)
        untouched = Query(terms=("plum",), weights=(1.0,))
        broker.estimate_all(untouched, 0.2)
        live.add_documents([Document("db-new", ["rocket"])])
        report = broker.apply_representative_delta(live.delta_since(base.to_version))
        # n changed: every present term's probability rescaled, so the
        # untouched-term entry must go too.
        assert report.mode == "precise"
        fresh = fresh_oracle_for([(live, base)])
        assert broker.estimate_all(untouched, 0.2) == fresh.estimate_all(
            untouched, 0.2
        )

    def test_non_term_local_estimator_falls_back_to_full_eviction(self):
        live = LiveEngineServer("db", make_documents(0))
        base = live.delta_since(0)
        broker = self.make_broker(live, base, "binary-independence")
        query = Query(terms=("plum",), weights=(1.0,))
        broker.estimate_all(query, 0.2)
        doomed = live.doc_ids[0]
        live.remove_documents([doomed])
        live.add_documents([Document("db-swap", ["rocket", "rocket"])])
        report = broker.apply_representative_delta(live.delta_since(base.to_version))
        # The binary baseline folds every term's mean into one database
        # weight, so a single-term mutation still invalidates everything.
        assert report.mode == "full"
        fresh = fresh_oracle_for([(live, base)], "binary-independence")
        assert broker.estimate_all(query, 0.2) == fresh.estimate_all(query, 0.2)

    def test_version_mismatch_is_rejected(self):
        live = LiveEngineServer("db", make_documents(0))
        base = live.delta_since(0)
        broker = self.make_broker(live, base)
        live.add_documents([Document("db-new", ["rocket"])])
        delta = live.delta_since(base.to_version)
        broker.apply_representative_delta(delta)
        with pytest.raises(ValueError):
            broker.apply_representative_delta(delta)


class TestLivenessFollowsTheStore:
    """The whole-row bound that keeps an engine out of the kernel is
    computed from the store on every call: a delta that raises a term's
    max weight makes the engine selectable at once, and one that lowers
    it again rules the engine back out — liveness is never stale low."""

    def test_delta_moves_an_engine_across_the_bound_both_ways(self):
        registry = MetricsRegistry()
        broker = MetasearchBroker(
            estimator=get_estimator("subrange"), registry=registry
        )
        low = LiveEngineServer("low", [
            Document("low-d0", ["rocket", "orbit", "fuel", "gear", "lens"]),
            Document("low-d1", ["orbit", "fuel"]),
            Document("low-d2", ["dune", "kiwi"]),
        ])
        high = LiveEngineServer("high", [Document("high-d0", ["rocket"])])
        fleet = [(live, live.delta_since(0)) for live in (low, high)]
        for live, base in fleet:
            broker.register(
                live, representative=base.as_representative(), version=base.to_version
            )
        query, threshold = Query(terms=("rocket",), weights=(1.0,)), 0.5
        skipped = registry.counter("estimator.rows.skipped")

        def step():
            """Selection and the skipped-row count of one estimate, after
            checking the row against a fresh scalar oracle."""
            before = skipped.value
            assert broker.estimate_all(query, threshold) == fresh_oracle_for(
                fleet
            ).estimate_all(query, threshold)
            return broker.select(query, threshold), skipped.value - before

        # "rocket" weighs 1/sqrt(5) < T in "low": its singleton bound rules
        # it out before any expansion.
        assert step() == (["high"], 1.0)

        # Same document count, so the delta is precise: only the swapped
        # documents' terms are touched, and "rocket" now weighs 1.0.
        version = low.version
        low.remove_documents(["low-d2"])
        low.add_documents([Document("low-hot", ["rocket"])])
        report = broker.apply_representative_delta(low.delta_since(version))
        assert report.mode == "precise"
        selected, newly_skipped = step()
        assert sorted(selected) == ["high", "low"]
        assert newly_skipped == 0.0

        version = low.version
        low.remove_documents(["low-hot"])
        low.add_documents([Document("low-d2", ["dune", "kiwi"])])
        broker.apply_representative_delta(low.delta_since(version))
        assert step() == (["high"], 1.0)


class TestEstimatesRacingDeltas:
    """Readers estimating while deltas land: once the writes stop, the
    broker's rows equal a broker synced afresh, and no reader raised.  A
    row gathered before a write must not reach the cache after the write's
    invalidation (the broker's generation), and two readers must not pack
    the store's pending engines at once (the store's lock)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_readers_beside_deltas_leave_no_stale_row(self, seed):
        rng = random.Random(seed)
        lives = [
            LiveEngineServer(f"engine{e}", make_documents(e)) for e in range(4)
        ]
        estimator = "binary-independence"
        broker = MetasearchBroker(estimator=get_estimator(estimator))
        for live in lives:
            broker.sync_representative(live)
        terms = VOCAB + ["comet"]
        queries = [
            Query(terms=tuple(rng.sample(terms, 2)), weights=(1.0, 1.0))
            for __ in range(12)
        ]
        stop, errors = threading.Event(), []
        running = [threading.Event() for __ in range(4)]
        # Together, so the first passes all find the synced engines
        # pending and pack at once.
        start = threading.Barrier(len(running), timeout=30)

        def reader(running):
            try:
                start.wait()
                while not stop.is_set():
                    for query in queries:
                        broker.estimate_all(query, 0.2)
                    running.set()
            except Exception as exc:  # reported below
                errors.append(exc)
            finally:
                running.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [
            threading.Thread(target=reader, args=(event,)) for event in running
        ]
        try:
            for thread in threads:
                thread.start()
            for event in running:  # every reader is past its first pass
                event.wait(timeout=30)
            for i in range(30):
                live = lives[rng.randrange(len(lives))]
                since = live.version
                live.add_documents([Document(f"race-{i}", rng.sample(terms, 3))])
                broker.apply_representative_delta(live.delta_since(since))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        fresh = MetasearchBroker(estimator=get_estimator(estimator))
        for live in lives:
            fresh.sync_representative(live)
        for query in queries:
            assert broker.estimate_all(query, 0.2) == fresh.estimate_all(query, 0.2)


class TestARowRacingAWrite:
    """Two schedules of the race, pinned: a reader gathers from the old
    representative while a write edits the store, invalidates and bumps
    the generation.  The reader's row must not be cached."""

    def test_a_row_gathered_before_a_write_never_lands_after_it(
        self, monkeypatch
    ):
        import repro.metasearch.broker as broker_module

        live = LiveEngineServer("db", make_documents(0))
        broker = MetasearchBroker(estimator=get_estimator("subrange"))
        broker.sync_representative(live)
        query = Query(terms=("rocket",), weights=(1.0,))
        gathered, resume_reader = threading.Event(), threading.Event()
        invalidated, resume_writer = threading.Event(), threading.Event()
        grid = broker_module.fleet_usefulness_grid
        invalidate_terms = broker.cache.invalidate_terms

        def paused_grid(*args):
            rows = grid(*args)
            gathered.set()
            resume_reader.wait(timeout=30)
            return rows

        def paused_invalidate(*args):
            counts = invalidate_terms(*args)
            invalidated.set()
            resume_writer.wait(timeout=30)
            return counts

        monkeypatch.setattr(broker_module, "fleet_usefulness_grid", paused_grid)
        monkeypatch.setattr(broker.cache, "invalidate_terms", paused_invalidate)
        reader = threading.Thread(target=broker.estimate_all, args=(query, 0.2))
        reader.start()
        assert gathered.wait(timeout=30)  # a row of the old representative
        since = live.version
        live.remove_documents([live.doc_ids[0]])
        live.add_documents([Document("db-hot", ["rocket", "rocket"])])
        writer = threading.Thread(
            target=broker.apply_representative_delta,
            args=(live.delta_since(since),),
        )
        writer.start()
        assert invalidated.wait(timeout=30)  # edited and invalidated
        resume_reader.set()
        time.sleep(0.05)  # the reader reaches its cache put meanwhile
        resume_writer.set()
        reader.join(timeout=30)
        writer.join(timeout=30)
        monkeypatch.undo()
        fresh = MetasearchBroker(estimator=get_estimator("subrange"))
        fresh.sync_representative(live)
        assert broker.estimate_all(query, 0.2) == fresh.estimate_all(query, 0.2)


    def test_a_row_gathered_during_a_write_never_lands_after_it(
        self, monkeypatch
    ):
        """The reader starts while the write holds the lock but has not
        edited the store yet: it reads the generation, gathers the old
        representative, and waits to cache its row until the write is
        done — when the generation has moved."""
        live = LiveEngineServer("db", make_documents(0))
        broker = MetasearchBroker(estimator=get_estimator("subrange"))
        broker.sync_representative(live)
        query = Query(terms=("rocket",), weights=(1.0,))
        editing, resume_writer = threading.Event(), threading.Event()
        apply_delta = broker.fleet.apply_delta

        def paused_apply(delta):
            editing.set()
            resume_writer.wait(timeout=30)
            return apply_delta(delta)

        monkeypatch.setattr(broker.fleet, "apply_delta", paused_apply)
        since = live.version
        live.remove_documents([live.doc_ids[0]])
        live.add_documents([Document("db-hot", ["rocket", "rocket"])])
        writer = threading.Thread(
            target=broker.apply_representative_delta,
            args=(live.delta_since(since),),
        )
        writer.start()
        assert editing.wait(timeout=30)
        reader = threading.Thread(target=broker.estimate_all, args=(query, 0.2))
        reader.start()
        time.sleep(0.05)  # the reader gathers and reaches its cache put
        resume_writer.set()
        writer.join(timeout=30)
        reader.join(timeout=30)
        monkeypatch.undo()
        fresh = MetasearchBroker(estimator=get_estimator("subrange"))
        fresh.sync_representative(live)
        assert broker.estimate_all(query, 0.2) == fresh.estimate_all(query, 0.2)


class TestCompactionFallback:
    def test_compacted_log_degrades_to_snapshot_resync(self):
        live = LiveEngineServer("db", make_documents(0), log_limit=1)
        base = live.delta_since(0)
        live.add_documents([Document("db-n0", ["comet"])])
        live.add_documents([Document("db-n1", ["comet", "plum"])])
        # The log kept only the latest mutation: a base below it gets the
        # full delta, the same one version 0 gets.
        fallback = live.sync_representative(base.to_version)
        assert fallback.is_full and fallback == live.delta_since(0)
        assert fallback.to_version == live.version

        broker = MetasearchBroker(estimator=get_estimator("subrange"))
        broker.register(
            live, representative=base.as_representative(), version=base.to_version
        )
        report = broker.sync_representative(live)
        assert (report.from_version, report.mode) == (0, "full")  # a replace
        assert broker.representative_version(live.name) == live.version
        assert_rows_match(broker, fresh_oracle_for([(live, base)]))


class TestFullDeltaReplaces:
    """A full delta replaces what the receiver holds: applied over a
    representative that diverged from the engine (a term the engine never
    had, other statistics, another document count), no stale term or count
    survives — a merge would keep the extra term."""

    @pytest.mark.parametrize("estimator_name", ESTIMATORS)
    def test_full_delta_over_a_diverged_representative(self, estimator_name):
        live = LiveEngineServer("db", make_documents(0))
        truth = current(live)
        diverged = {term: stats for term, stats in truth.items()}
        diverged["ghostterm"] = next(iter(truth.items()))[1]
        first = next(iter(diverged))
        diverged[first] = TermStats(0.5, 0.25, 0.125, 0.5)
        broker = MetasearchBroker(estimator=get_estimator(estimator_name))
        broker.register(
            live,
            representative=DatabaseRepresentative("db", 11, diverged),
            version=5,
        )
        queries = QUERIES + [Query(terms=("ghostterm",), weights=(1.0,))]
        for query in queries:  # warm the caches on the diverged copy
            broker.estimate_all(query, 0.2)
        report = broker.apply_representative_delta(live.delta_since(0))
        assert report.mode == "full"
        assert broker.representative_version("db") == live.version
        held = broker.representative_of("db").materialize()
        assert held == truth and list(held.items()) == list(truth.items())
        fresh = fresh_oracle_for([(live, None)], estimator_name)
        for query in queries:
            for threshold in THRESHOLDS:
                assert broker.estimate_all(query, threshold) == (
                    fresh.estimate_all(query, threshold)
                )

    def test_a_del_record_in_a_full_delta_is_a_no_op(self):
        # Composing the version-0 entry of an engine that started empty
        # with a later removal can leave a ``del``: its base is empty.
        live = LiveEngineServer("db")
        first = live.add_documents(make_documents(0)[:3])
        doomed = live.doc_ids[0]
        second = live.remove_documents([doomed])
        composed = first.compose(second)
        assert composed.is_full and composed.n_dels
        assert composed.as_representative() == current(live)
        broker = MetasearchBroker()
        broker.sync_representative(live)
        assert broker.apply_representative_delta(composed).mode == "full"
        assert broker.representative_of("db").materialize() == current(live)

    def test_a_full_delta_needs_zero_base_documents(self):
        payload = LiveEngineServer("db", make_documents(0)).delta_since(0)
        payload = payload.to_json_dict()
        payload["from_n_documents"] = 3
        with pytest.raises(ValueError, match="from_n_documents must be 0"):
            RepresentativeDelta.from_json_dict(payload)


class TestHTTPDeltaLoop:
    """LiveEngineApp + RemoteEngine + broker.sync_representative, end to end."""

    @pytest.fixture()
    def remote_engine(self):
        """``RemoteEngine(url)``, its pooled connections closed after the
        test."""
        opened = []

        def remote_engine(url):
            opened.append(RemoteEngine(url))
            return opened[-1]

        yield remote_engine
        for remote in opened:
            remote.close()

    @pytest.fixture()
    def served(self):
        live = LiveEngineServer("engine0", make_documents(0))
        server = ServingServer(LiveEngineApp(live))
        server.start_background()
        try:
            yield live, server.url
        finally:
            server.drain(timeout=10)

    @staticmethod
    def post_mutate(url, payload):
        request = urllib.request.Request(
            f"{url}/mutate",
            data=json.dumps(payload).encode("ascii"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def test_broker_catches_up_over_http(self, served, remote_engine):
        live, url = served
        remote = remote_engine(url)
        broker = MetasearchBroker(estimator=get_estimator("subrange"))
        # An unregistered engine's first sync enters it with its full delta.
        assert broker.sync_representative(remote).mode == "full"
        assert broker.representative_version(remote.name) == 1

        answer = self.post_mutate(
            url,
            {
                "remove": [live.doc_ids[0]],
                "add": [
                    {"doc_id": "engine0-n0", "terms": ["comet", "rocket"]},
                    {"doc_id": "engine0-n1", "terms": ["comet", "plum"]},
                ],
            },
        )
        assert answer["kind"] == "engine.mutated"
        assert answer["version"] == 3

        report = broker.sync_representative(remote)
        assert report.mode == "precise"
        assert report.from_version == 1 and report.to_version == 3
        assert_rows_match(broker, fresh_oracle_for([(live, None)]))

    def test_live_engine_process_catches_up_like_a_fresh_snapshot(
        self, tmp_path, remote_engine
    ):
        """A real ``repro serve engine --live`` process: ``/healthz``
        reports it live, ``POST /mutate`` churns it, the broker's delta
        catch-up estimates like one registered with a fresh full delta, and
        SIGTERM drains it to exit 0."""
        path = tmp_path / "live.jsonl.gz"
        save_collection(Collection.from_texts("live", [
            ("d1", "the rocket engine ignited toward orbit"),
            ("d2", "a telescope mirror focuses distant galaxies"),
            ("d3", "rocket fuel and tomato sauce"),
            ("d4", "plum and kiwi in basil sauce"),
        ]), path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "engine", "--live",
             "--collection", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            for line in proc.stdout:  # a banner line comes first
                announced = re.search(r"serving engine at (http://\S+)", line)
                if announced:
                    break
            else:
                pytest.fail("the live engine exited without serving")
            url = announced.group(1)
            with urllib.request.urlopen(f"{url}/healthz", timeout=10) as reply:
                assert json.loads(reply.read())["live"] is True

            remote = remote_engine(url)
            broker = MetasearchBroker()
            assert broker.sync_representative(remote).from_version == 0
            mutated = self.post_mutate(url, {
                "remove": ["d2"],
                "add": [{"doc_id": "d5", "terms": ["comet", "rocket"]}],
            })
            assert mutated["version"] == 3
            report = broker.sync_representative(remote)
            assert report.mode == "precise" and report.to_version == 3

            fresh = MetasearchBroker()
            fresh.register(
                remote,
                representative=remote.sync_representative().as_representative(),
            )
            for text in ("rocket orbit", "comet", "plum sauce"):
                query = Query.from_text(text)
                for threshold in THRESHOLDS:
                    assert broker.estimate_all(query, threshold) == \
                        fresh.estimate_all(query, threshold)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0

    def test_static_engine_syncs_from_any_since(self, remote_engine):
        """A static ``EngineApp``: its version is its document count; it
        answers the empty delta for that version and the full delta for
        any other, built once."""
        engine = SearchEngine(
            Collection.from_documents("static0", make_documents(2))
        )
        app = EngineApp(engine)
        server = ServingServer(app)
        server.start_background()
        try:
            remote = remote_engine(server.url)
            broker = MetasearchBroker(estimator=get_estimator("subrange"))
            first = broker.sync_representative(remote)
            assert (first.from_version, first.to_version) == (0, 8)
            again = broker.sync_representative(remote)
            assert (again.from_version, again.terms_touched) == (8, 0)
            broker.register(
                remote, representative=DatabaseRepresentative("static0", 3, {}),
                version=5,
            )
            assert broker.sync_representative(remote).mode == "full"
            assert app.registry.value("serving.engine.delta.fallbacks") == 1
            local = MetasearchBroker(estimator=get_estimator("subrange"))
            local.register(engine)
            assert_rows_match(broker, local)
        finally:
            server.drain(timeout=10)

    def test_compaction_over_http_falls_back_to_snapshot(self, remote_engine):
        live = LiveEngineServer("engine0", make_documents(0), log_limit=1)
        server = ServingServer(LiveEngineApp(live))
        server.start_background()
        try:
            remote = remote_engine(server.url)
            broker = MetasearchBroker(estimator=get_estimator("subrange"))
            assert broker.sync_representative(remote).mode == "full"
            self.post_mutate(server.url, {"add": [{"doc_id": "n0", "terms": ["comet"]}]})
            self.post_mutate(server.url, {"add": [{"doc_id": "n1", "terms": ["comet"]}]})
            # The log kept only the latest mutation; the sync must come
            # back as the full delta, which replaces the representative.
            assert broker.sync_representative(remote).from_version == 0
            assert broker.representative_version(remote.name) == live.version
            assert_rows_match(broker, fresh_oracle_for([(live, None)]))
        finally:
            server.drain(timeout=10)

    def test_engine_restart_over_http_falls_back_to_snapshot(self, remote_engine):
        app = LiveEngineApp(LiveEngineServer("engine0", make_documents(0)))
        server = ServingServer(app)
        server.start_background()
        try:
            remote = remote_engine(server.url)
            broker = MetasearchBroker(estimator=get_estimator("subrange"))
            assert broker.sync_representative(remote).mode == "full"
            self.post_mutate(server.url, {"add": [{"doc_id": "n0", "terms": ["comet"]}]})
            self.post_mutate(server.url, {"add": [{"doc_id": "n1", "terms": ["comet"]}]})
            assert broker.sync_representative(remote).to_version == 3
            # The engine process restarts: same name, another corpus, its
            # mutation counter back at 1 — *behind* the broker's version 3.
            restarted = LiveEngineServer("engine0", make_documents(1))
            app.server = app.engine = restarted
            assert broker.sync_representative(remote).from_version == 0
            assert app.registry.value("serving.engine.delta.fallbacks") == 1
            assert broker.representative_version(remote.name) == 1
            assert_rows_match(broker, fresh_oracle_for([(restarted, None)]))
            # Malformed base versions are still the client's error.
            for bad in ("-1", "two"):
                with pytest.raises(urllib.error.HTTPError) as caught:
                    urllib.request.urlopen(
                        f"{server.url}/representative?since={bad}",
                        timeout=10,
                    )
                assert caught.value.code == 400
                caught.value.close()  # the error holds the response
        finally:
            server.drain(timeout=10)
