"""A served broker keeps up with the engines it serves.

The engines own their data, and the broker pulls: every ``/dispatch`` and
``/healthz`` reply of an engine host (an engine server, or a shard)
reports the version of every engine it serves, and the broker's catch-up
step pulls each engine whose reported version differs from the one it
holds.  A host that has reported nothing for
:data:`~repro.metasearch.broker.REPORT_MAX_AGE` seconds is asked for its
``/healthz`` on the request path, once at a time.  So after a write, once
that bound has passed, a served gateway selects like a broker built from
every engine's current documents (the paper's single-term guarantee
included); and a quiet fleet costs no pull.
"""

import contextlib
import json
import threading
import time
import unittest.mock
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.metasearch.broker as broker_module
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.fleet import LiveEngineServer
from repro.metasearch import MetasearchBroker, ThresholdPolicy
from repro.obs import MetricsRegistry
from repro.serving import (
    EngineApp,
    GatewayApp,
    GatewayClient,
    LiveEngineApp,
    RemoteEngine,
    ServingServer,
    ShardApp,
    ShardedFleet,
)
from tests.oracle import ScalarOracle

pytestmark = pytest.mark.slow

ZEBRA = Query(terms=("zebra",), weights=(1.0,))
ROCKET = Query(terms=("rocket",), weights=(1.0,))


def documents(prefix, term_lists):
    return [Document(f"{prefix}{i}", terms) for i, terms in enumerate(term_lists)]


def mutate(url, payload):
    request = urllib.request.Request(
        f"{url}/mutate",
        data=json.dumps(payload).encode("ascii"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def add_zebra(url):
    return mutate(url, {"add": [{"doc_id": "d3", "terms": ["zebra"]}]})


def requests_to(app, route):
    """``route`` requests ``app`` has answered."""
    return app.registry.value(
        "serving.requests", {"app": app.role, "route": route}
    ) or 0


def let_the_bound_pass():
    time.sleep(broker_module.REPORT_MAX_AGE + 0.05)


@contextlib.contextmanager
def serving(*apps):
    """Each app on a background server; yields their URLs."""
    servers = [ServingServer(app) for app in apps]
    for server in servers:
        server.start_background()
    try:
        yield [server.url for server in servers]
    finally:
        for server in servers:
            server.drain(timeout=10)


@contextlib.contextmanager
def served_gateway(urls):
    """A gateway over the engine servers at ``urls``, registered as ``repro
    serve gateway --engines`` registers them; yields (broker, client)."""
    broker = MetasearchBroker(workers=8, registry=MetricsRegistry())
    remotes = [RemoteEngine(url) for url in urls]
    try:
        for remote in remotes:
            broker.sync_representative(remote)
        with serving(GatewayApp(broker, registry=broker.registry)) as (url,):
            client = GatewayClient(url)
            try:
                yield broker, client
            finally:
                client.close()
    finally:
        for remote in remotes:
            remote.close()


@pytest.fixture
def engine0():
    """``engine0``, a live engine server of two documents."""
    app = LiveEngineApp(LiveEngineServer(
        "engine0", documents("d", [["rocket", "orbit"], ["rocket"]])
    ))
    with serving(app) as (url,):
        yield app, url


class TestAServedGatewayKeepsUp:
    """The reproduction: a write of a new term at a live engine server
    reaches the gateway's selection within the bound, with no library
    call."""

    def test_a_written_term_is_selected_once_the_bound_passes(self, engine0):
        app, url = engine0
        with served_gateway([url]) as (broker, client):
            assert add_zebra(url)["version"] == 2
            # Invoked right after the write: its reply reports version 2.
            assert client.search(ROCKET, 0.1).invoked == ["engine0"]
            let_the_bound_pass()
            response = client.search(ZEBRA, 0.1)
            assert response.invoked == ["engine0"]
            assert response.invoked == broker.true_selection(ZEBRA, 0.1)
            assert [hit.doc_id for hit in response.hits] == ["d3"]

    def test_an_engine_never_invoked_is_caught_by_the_probe(self, engine0):
        app, url = engine0
        with served_gateway([url]) as (broker, client):
            probes = requests_to(app, "/healthz")
            add_zebra(url)
            let_the_bound_pass()
            assert client.search(ZEBRA, 0.1).invoked == ["engine0"]
            assert requests_to(app, "/healthz") == probes + 1
            assert requests_to(app, "/dispatch") == 1  # the zebra search
            assert broker.registry.value("broker.pulls") == 1

    def test_a_dispatch_reply_reports_the_write(self, engine0, monkeypatch):
        """Without a probe, the reply of a search that invokes the engine
        is what tells the broker; the next search pulls."""
        monkeypatch.setattr(broker_module, "REPORT_MAX_AGE", 3600.0)
        app, url = engine0
        with served_gateway([url]) as (broker, client):
            add_zebra(url)
            assert client.search(ZEBRA, 0.1).invoked == []  # not yet seen
            client.search(ROCKET, 0.1)
            assert client.search(ZEBRA, 0.1).invoked == ["engine0"]
            assert requests_to(app, "/healthz") == 1  # the registration's

    def test_a_restarted_engine_reporting_a_lower_version_is_pulled(
        self, engine0
    ):
        """The rule is ``!=``: an engine that restarted reports a version
        below the one held, and the broker re-reads all of it."""
        app, url = engine0
        with served_gateway([url]) as (broker, client):
            add_zebra(url)
            mutate(url, {"remove": ["d0"]})
            let_the_bound_pass()
            assert client.search(ZEBRA, 0.1).invoked == ["engine0"]
            assert broker.representative_version("engine0") == 3
            restarted = LiveEngineServer("engine0", documents("r", [["orbit"]]))
            app.server = app.engine = restarted
            let_the_bound_pass()
            assert client.search(ZEBRA, 0.1).invoked == []
            assert broker.representative_version("engine0") == 1
            oracle = ScalarOracle()
            oracle.register(restarted, restarted.delta_since(0).as_representative())
            for query in (ZEBRA, ROCKET, Query(terms=("orbit",), weights=(1.0,))):
                assert client.estimate(query, 0.1) == oracle.estimate_all(query, 0.1)


class TestAPullThatWouldFindNothingIsNotMade:
    def test_a_library_sync_leaves_nothing_to_pull(self, engine0, monkeypatch):
        """A ``/representative`` reply is the host's newest word on its
        engine.  After a library sync past the host's last report, the
        catch-up step finds the version it holds: it pulls nothing, and
        the generation (which estimates in flight put under) stays."""
        monkeypatch.setattr(broker_module, "REPORT_MAX_AGE", 3600.0)
        app, url = engine0
        broker = MetasearchBroker(registry=MetricsRegistry())
        remote = RemoteEngine(url)
        try:
            broker.sync_representative(remote)  # its name probe reports 1
            add_zebra(url)
            assert broker.sync_representative(remote).to_version == 2
            generation = broker._generation
            assert broker.estimate_all(ZEBRA, 0.1).names == ["engine0"]
            assert broker.registry.value("broker.pulls") in (None, 0)
            assert broker._generation == generation
        finally:
            remote.close()

    def test_a_report_that_lands_during_a_pull_is_kept(self, engine0, monkeypatch):
        """A pull answered before a write, whose reply is read only after a
        ``/dispatch`` reply reported that write, must not record its older
        version over the report: the next request pulls the write."""
        monkeypatch.setattr(broker_module, "REPORT_MAX_AGE", 3600.0)
        app, url = engine0
        broker = MetasearchBroker(registry=MetricsRegistry())
        remote = RemoteEngine(url)
        host = remote.host
        request, raced = host.client.request, []

        def write_during_the_pull(method, path, *args, **kwargs):
            answer = request(method, path, *args, **kwargs)
            if path.startswith("/representative") and not raced:
                raced.append(add_zebra(url))
                host.dispatch([(ROCKET, 0.0, ["engine0"])])()
            return answer

        try:
            broker.sync_representative(remote)  # its name probe reports 1
            monkeypatch.setattr(host.client, "request", write_during_the_pull)
            assert broker.sync_representative(remote).to_version == 1
            assert raced and host.versions == {"engine0": 2}
            assert broker.estimate_all(ZEBRA, 0.1).names == ["engine0"]
            assert broker.registry.value("broker.pulls") == 1
            assert broker.representative_version("engine0") == 2
        finally:
            remote.close()

    def test_an_empty_delta_at_the_held_version_changes_nothing(self):
        live = LiveEngineServer("live0", documents("d", [["rocket"]]))
        broker = MetasearchBroker()
        broker.sync_representative(live)
        broker.estimate_all(ROCKET, 0.1)
        generation, cached = broker._generation, len(broker.cache)
        report = broker.sync_representative(live)
        assert (report.from_version, report.to_version) == (1, 1)
        assert (report.terms_touched, report.cache_evicted) == (0, 0)
        assert (broker._generation, len(broker.cache)) == (generation, cached)


class SlowHealthz(EngineApp):
    """An engine server whose ``/healthz`` takes ``delay`` seconds."""

    delay = 0.0

    def health_info(self):
        time.sleep(self.delay)
        return super().health_info()


def static_engines(n):
    return [
        SearchEngine(Collection.from_documents(
            f"static{e}",
            documents(f"s{e}-", [["rocket", f"t{e}"], ["rocket", "orbit"], [f"t{e}"]]),
        ))
        for e in range(n)
    ]


QUIET_QUERIES = [
    ROCKET,
    Query(terms=("orbit", "rocket"), weights=(1.0, 2.0)),
    Query(terms=("t1",), weights=(1.0,)),
    Query(terms=("nosuchterm",), weights=(1.0,)),
]


class TestAQuietFleetCostsNothing:
    def test_a_static_gateway_pulls_nothing(self, monkeypatch):
        """Probes come every bound, and find nothing to pull."""
        monkeypatch.setattr(broker_module, "REPORT_MAX_AGE", 0.01)
        apps = [EngineApp(engine) for engine in static_engines(3)]
        with serving(*apps) as urls, served_gateway(urls) as (broker, client):
            pulled = [requests_to(app, "/representative") for app in apps]
            for i in range(120):
                client.search(QUIET_QUERIES[i % 4], (0.0, 0.2, 0.5)[i % 3])
                if i % 20 == 0:
                    let_the_bound_pass()
            assert [requests_to(app, "/representative") for app in apps] == pulled
            assert broker.registry.value("broker.probes") > 0
            assert broker.registry.value("broker.pulls") in (None, 0)

    def test_a_coordinator_pulls_nothing(self, monkeypatch):
        monkeypatch.setattr(broker_module, "REPORT_MAX_AGE", 0.01)
        shards = []
        for index, members in enumerate([[0, 2], [1]]):
            broker = MetasearchBroker()
            for engine in static_engines(3):
                if int(engine.name[-1]) in members:
                    broker.register(engine)
            shards.append(ShardApp(broker, shard_index=index))
        with serving(*shards) as urls:
            registry = MetricsRegistry()
            fleet = ShardedFleet(urls, registry=registry).attach()
            try:
                pulled = [requests_to(app, "/representative") for app in shards]
                for i in range(120):
                    fleet.search(QUIET_QUERIES[i % 4], (0.0, 0.2, 0.5)[i % 3])
                    if i % 20 == 0:
                        let_the_bound_pass()
                assert [
                    requests_to(app, "/representative") for app in shards
                ] == pulled
                assert registry.value("coordinator.probes") > 0
                assert registry.value("coordinator.pulls") in (None, 0)
            finally:
                fleet.close()

    def test_a_host_that_answered_a_dispatch_is_not_probed(self, monkeypatch):
        monkeypatch.setattr(broker_module, "REPORT_MAX_AGE", 0.3)
        apps = [EngineApp(engine) for engine in static_engines(2)]
        with serving(*apps) as urls, served_gateway(urls) as (broker, client):
            probed = [requests_to(app, "/healthz") for app in apps]
            until = time.monotonic() + 1.0
            while time.monotonic() < until:
                assert client.search(ROCKET, 0.0).invoked == ["static0", "static1"]
                time.sleep(0.02)
            assert [requests_to(app, "/healthz") for app in apps] == probed

    def test_in_process_engines_are_synced_by_their_callers(self):
        """An engine with no host has nothing to report: the step is one
        check, starts no thread, and the caller syncs it."""
        live = LiveEngineServer("live0", documents("d", [["rocket"]]))
        broker = MetasearchBroker()
        broker.sync_representative(live)
        live.add_documents(documents("n", [["zebra"]]))
        threads = threading.active_count()
        broker.catch_up()
        assert threading.active_count() == threads
        assert broker.search(ZEBRA, 0.1).invoked == []
        broker.sync_representative(live)
        assert broker.search(ZEBRA, 0.1).invoked == ["live0"]


class TestTheProbeIsSingleFlight:
    def test_concurrent_requests_probe_a_stale_host_once(self, monkeypatch):
        # A probe's budget is the bound: 1 s outlasts the 0.5 s /healthz.
        monkeypatch.setattr(broker_module, "REPORT_MAX_AGE", 1.0)
        [engine] = static_engines(1)
        app = SlowHealthz(engine)
        with serving(app) as (url,):
            broker = MetasearchBroker()  # serial: its dispatch starts none
            remote = RemoteEngine(url)
            try:
                broker.sync_representative(remote)
                app.delay = 0.5
                let_the_bound_pass()
                probes = requests_to(app, "/healthz")
                threads = set(threading.enumerate())
                start = threading.Barrier(4, timeout=10)

                def search():
                    start.wait()
                    broker.search(ROCKET, 0.1)

                searchers = [threading.Thread(target=search) for __ in range(4)]
                for thread in searchers[1:]:
                    thread.start()
                search_started = time.monotonic()
                searchers[0].run()  # this thread is one of the four
                for thread in searchers[1:]:
                    thread.join(10)
                assert time.monotonic() - search_started >= app.delay
                assert requests_to(app, "/healthz") == probes + 1
                # The server's per-connection threads aside, no thread
                # outlives the searches: the probe ran on a request's own.
                started = {
                    thread for thread in set(threading.enumerate()) - threads
                    if "process_request" not in thread.name
                }
                assert started == set()
            finally:
                remote.close()


class TestAHungProbeHoldsARequestNoLongerThanTheBound:
    def test_a_probe_gives_up_at_the_bound_and_backs_off(self):
        """A ``/healthz`` that takes 3 s behind a gateway whose engines
        have a 10 s budget: the probing ``/search`` answers within
        :data:`REPORT_MAX_AGE` (plus slack), the probe counts as failed,
        and no request probes the host again within the bound."""
        bound = broker_module.REPORT_MAX_AGE
        [engine] = static_engines(1)
        app = SlowHealthz(engine)
        with serving(app) as (url,), served_gateway([url]) as (broker, client):
            app.delay = 3.0
            let_the_bound_pass()
            started = time.monotonic()
            assert client.search(ROCKET, 0.1).invoked == ["static0"]
            assert time.monotonic() - started < bound + 0.75
            assert broker.registry.value("broker.probes") == 1
            assert broker.registry.value("broker.probes.failed") == 1
            until = started + bound * 0.9
            while time.monotonic() < until:  # no /dispatch reply reports
                assert client.search(QUIET_QUERIES[3], 0.1).invoked == []
                time.sleep(0.05)
            assert broker.registry.value("broker.probes") == 1


class TestOneLimitRule:
    def test_a_round_past_256_queries_is_served_by_a_shard(self):
        """A shard's ``/dispatch`` takes a round of any size its body cap
        admits, like an engine server's: one call per round, never a 413."""
        engines = static_engines(2)
        broker = MetasearchBroker()
        for engine in engines:
            broker.register(engine)
        local = MetasearchBroker()
        for engine in engines:
            local.register(engine)
        queries = [
            Query(terms=("rocket", "orbit"), weights=(1.0, 1.0 + i / 1000))
            for i in range(257)
        ]
        with serving(ShardApp(broker)) as urls:
            fleet = ShardedFleet(urls).attach()
            try:
                responses = fleet.search_batch(queries, 0.0)
            finally:
                fleet.close()
        want = local.search_batch(queries, 0.0)
        assert not any(response.degraded for response in responses)
        assert [(r.hits, r.invoked, list(r.estimates)) for r in responses] == [
            (r.hits, r.invoked, list(r.estimates)) for r in want
        ]


class TestEveryEngineOfAHostIsReported:
    def test_a_reply_for_one_engine_reports_its_neighbour(self, monkeypatch):
        """A shard's ``/dispatch`` reply reports every engine it serves,
        not just the invoked ones: a delta applied to an engine that no
        query invokes is pulled after its neighbour's next search."""
        monkeypatch.setattr(broker_module, "REPORT_MAX_AGE", 3600.0)
        lives = [
            LiveEngineServer("live0", documents("a", [["rocket"], ["orbit"]])),
            LiveEngineServer("live1", documents("b", [["orbit"], ["kiwi"]])),
        ]
        shard_broker = MetasearchBroker()
        for live in lives:
            shard_broker.sync_representative(live)
        with serving(ShardApp(shard_broker)) as urls:
            registry = MetricsRegistry()
            fleet = ShardedFleet(urls, registry=registry).attach()
            try:
                lives[1].add_documents(documents("n", [["zebra"]]))
                shard_broker.sync_representative(lives[1])
                assert fleet.search(ZEBRA, 0.1).invoked == []
                assert fleet.search(ROCKET, 0.1).invoked == ["live0"]
                assert fleet.search(ZEBRA, 0.1).invoked == ["live1"]
                assert registry.value("coordinator.probes") in (None, 0)
            finally:
                fleet.close()


VOCAB = ["rocket", "orbit", "kiwi", "plum", "zebra"]
QUERIES = [Query(terms=(term,), weights=(1.0,)) for term in VOCAB] + [
    Query(terms=("rocket", "kiwi"), weights=(2.0, 1.0)),
]
THRESHOLDS = (0.0, 0.2, 0.5)

term_lists = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4)
writes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.lists(term_lists, max_size=2),  # documents added
        st.integers(min_value=0, max_value=2),  # oldest documents removed
    ),
    min_size=1,
    max_size=4,
)


class TestRandomWritesBehindAServedGateway:
    @settings(max_examples=15, deadline=None)
    @given(writes=writes)
    def test_selections_and_rows_equal_the_oracle_once_the_bound_passed(
        self, writes
    ):
        """Random ``/mutate`` sequences on two live engine servers: once the
        bound has passed (here 0 s, so every request asks), the gateway's
        rows and selections equal the scalar oracle over each engine's
        current documents."""
        lives = [
            LiveEngineServer(f"engine{e}", documents(f"e{e}-", [["rocket", "orbit"]]))
            for e in range(2)
        ]
        added = iter(range(10**6))
        with unittest.mock.patch.object(broker_module, "REPORT_MAX_AGE", 0.0), \
                serving(*map(LiveEngineApp, lives)) as urls, \
                served_gateway(urls) as (broker, client):
            for e, added_terms, removed in writes:
                doomed = lives[e].doc_ids[: min(removed, lives[e].n_documents - 1)]
                mutate(urls[e], {
                    "remove": doomed,
                    "add": [
                        {"doc_id": f"n{next(added)}", "terms": terms}
                        for terms in added_terms
                    ],
                })
                oracle = ScalarOracle()
                for live in lives:
                    oracle.register(live, live.delta_since(0).as_representative())
                for query in QUERIES:
                    for threshold in THRESHOLDS:
                        want = oracle.estimate_all(query, threshold)
                        assert client.estimate(query, threshold) == want
                        assert client.search(query, threshold).invoked == (
                            ThresholdPolicy().select(want)
                        )
