"""Engine servers and shards as engine hosts, over real sockets.

A broker asks every engine host — an engine server for its one engine, a
shard worker for its slice — with one split ``POST /dispatch`` per round:
a batch costs one RPC per engine server, no fan-out without a deadline
starts a thread (remote engines, in-process ones or both), and a gateway
mixing engine servers with in-process engines answers exactly like an
in-process broker, a hung server failing only its own engines.  A host
reply that does not answer exactly the engines it was asked for is
refused.
"""

import json
import threading
import time

import pytest

from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker
from repro.serving import (
    EngineApp,
    GatewayApp,
    RemoteEngine,
    ServingServer,
    ShardApp,
    ShardedFleet,
)

pytestmark = pytest.mark.slow

VOCAB = ["rocket", "orbit", "engine", "fuel", "sauce", "basil"]

QUERIES = [
    Query(terms=("rocket", "orbit"), weights=(2.0, 1.0)),
    Query(terms=("sauce",), weights=(1.0,)),
    Query(terms=("fuel", "basil"), weights=(1.0, 3.0)),
    Query(terms=("engine",), weights=(1.0,)),
    Query(terms=("orbit", "sauce"), weights=(1.0, 1.0)),
]


def collections(n):
    """``n`` small overlapping collections, ``e0`` ... ``e<n-1>``."""
    out = []
    for e in range(n):
        documents = [
            Document(
                f"e{e}-d{d}",
                terms=[VOCAB[(e + d + k) % len(VOCAB)] for k in range(d % 3 + 2)],
            )
            for d in range(5)
        ]
        out.append(Collection.from_documents(f"e{e}", documents))
    return out


def in_process(collections_):
    broker = MetasearchBroker()
    for collection in collections_:
        broker.register(SearchEngine(collection))
    return broker


def dispatches(app):
    """``POST /dispatch`` requests ``app`` has answered."""
    return app.registry.value(
        "serving.requests", labels={"app": app.role, "route": "/dispatch"}
    ) or 0


class HangsOnDispatch(EngineApp):
    """An engine server that holds every ``/dispatch`` until released."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()

    def handle(self, method, path, headers, body):
        if path == "/dispatch":
            self.release.wait(timeout=30)
        return super().handle(method, path, headers, body)


@pytest.fixture
def serve():
    """``serve(app) -> url``; every server drains (every hung one
    released first) and every remote engine closes after the test."""
    servers, remotes = [], []

    def serve(app):
        server = ServingServer(app)
        server.start_background()
        servers.append(server)
        return server.url

    serve.remotes = remotes
    yield serve
    for remote in remotes:
        remote.close()
    for server in servers:
        release = getattr(server.app, "release", None)
        if release is not None:
            release.set()
        server.drain(timeout=10)


def gateway_broker(serve, remote_collections, local_collections=(), **kwargs):
    """A broker over an engine server per remote collection and the
    in-process engines of the local ones; returns ``(broker, apps)``."""
    broker = MetasearchBroker(**kwargs)
    apps = []
    for collection in remote_collections:
        apps.append(EngineApp(SearchEngine(collection)))
        remote = RemoteEngine(serve(apps[-1]))
        serve.remotes.append(remote)
        broker.sync_representative(remote)
    for collection in local_collections:
        broker.register(SearchEngine(collection))
    return broker, apps


class TestGatewayOverEngineServers:
    K = 3

    def test_a_batch_costs_one_dispatch_per_engine_server(self, serve):
        fleet = collections(self.K)
        broker, apps = gateway_broker(serve, fleet, workers=4)
        responses = broker.search_batch(QUERIES, 0.0)
        expected = in_process(fleet).search_batch(QUERIES, 0.0)
        asked = 0
        for app in apps:
            name = app.engine.name
            invoked = sum(name in response.invoked for response in responses)
            assert dispatches(app) == (1 if invoked else 0)
            assert app.registry.value("serving.engine.searches") == (
                invoked or None
            )
            asked += bool(invoked)
        assert asked >= 2
        for got, want in zip(responses, expected):
            assert got.hits == want.hits
            assert got.invoked == want.invoked
            assert got.estimates == want.estimates
            assert not got.failures

    def test_an_all_remote_gateway_starts_no_fan_out_thread(self, serve):
        broker, apps = gateway_broker(serve, collections(self.K), workers=8)
        gateway = GatewayApp(broker, default_deadline=None)
        for query in QUERIES:
            body = {
                "query": {"kind": "query", "terms": list(query.terms),
                          "weights": list(query.weights)},
                "threshold": 0.0,
            }
            response = gateway.handle(
                "POST", "/search", {}, json.dumps(body).encode("utf-8")
            )
            assert response.status == 200
            assert response.payload["invoked"]
        broker.search_batch(QUERIES, 0.0)
        assert sum(map(dispatches, apps)) >= len(QUERIES)
        assert broker.dispatcher._threads._idle == []


def dispatch_threads():
    """Idents of the live ``repro-dispatch`` (fan-out) threads."""
    return {
        thread.ident for thread in threading.enumerate()
        if thread.name == "repro-dispatch"
    }


def serve_searches(gateway, n):
    """``n`` ``/search`` requests through ``gateway.handle``; returns how
    many invoked an engine."""
    invoked = 0
    for i in range(n):
        query = QUERIES[i % len(QUERIES)]
        body = {
            "query": {"kind": "query", "terms": list(query.terms),
                      "weights": list(query.weights)},
            "threshold": (0.0, 0.2)[i % 2],
        }
        response = gateway.handle(
            "POST", "/search", {}, json.dumps(body).encode("utf-8")
        )
        assert response.status == 200
        invoked += bool(response.payload["invoked"])
    return invoked


class TestNoFanOutThreadWithoutADeadline:
    """Without a ``timeout`` no fan-out starts a thread, whatever
    ``workers`` is: a gateway's in-process engines, a shard's
    ``/dispatch`` and a mixed gateway all run their engine calls on the
    request's thread."""

    def test_a_gateway_over_in_process_engines(self):
        before = dispatch_threads()
        broker = MetasearchBroker(workers=8)
        for collection in collections(4):
            broker.register(SearchEngine(collection))
        gateway = GatewayApp(broker, default_deadline=None)
        assert serve_searches(gateway, 24) >= 20
        assert broker.dispatcher._threads._idle == []
        assert dispatch_threads() <= before

    def test_a_shards_dispatch(self, serve):
        before = dispatch_threads()
        fleet = collections(4)
        brokers = [MetasearchBroker(workers=4) for __ in range(2)]
        for i, collection in enumerate(fleet):
            brokers[i % 2].register(SearchEngine(collection))
        shards = [ShardApp(b, shard_index=i) for i, b in enumerate(brokers)]
        sharded = ShardedFleet([serve(shard) for shard in shards]).attach()
        serve.remotes.append(sharded)
        for i in range(24):
            assert not sharded.search(QUERIES[i % len(QUERIES)], 0.0).failures
        assert sum(map(dispatches, shards)) >= 20
        for broker in brokers:
            assert broker.dispatcher._threads._idle == []
        assert dispatch_threads() <= before

    def test_a_mixed_gateway(self, serve):
        before = dispatch_threads()
        fleet = collections(4)
        broker, apps = gateway_broker(serve, fleet[:2], fleet[2:], workers=8)
        gateway = GatewayApp(broker, default_deadline=None)
        assert serve_searches(gateway, 24) >= 20
        assert sum(map(dispatches, apps)) >= 1
        assert broker.dispatcher._threads._idle == []
        assert dispatch_threads() <= before


class TestMixedGateway:
    """Engine servers and in-process engines in one broker.  Without a
    ``timeout`` the engine servers' requests are sent before the local
    engines run, all on the request's thread; with one, the fan-out runs
    on pooled threads, its split calls as plain ones."""

    def test_answers_equal_an_in_process_broker(self, serve):
        fleet = collections(4)
        broker, __ = gateway_broker(serve, fleet[:2], fleet[2:], workers=4)
        expected = in_process(fleet)
        for query in QUERIES:
            for threshold in (0.0, 0.2, 0.5):
                got = broker.search(query, threshold)
                want = expected.search(query, threshold)
                assert got.hits == want.hits
                assert got.invoked == want.invoked
                assert got.estimates == want.estimates
                assert not got.failures
        got = broker.search_batch(QUERIES, 0.0)
        want = expected.search_batch(QUERIES, 0.0)
        assert [r.hits for r in got] == [r.hits for r in want]
        assert [r.invoked for r in got] == [r.invoked for r in want]

    def test_a_hung_server_fails_only_its_engines_within_the_deadline(
        self, serve
    ):
        timeout = 0.3
        fleet = collections(4)
        hung = HangsOnDispatch(SearchEngine(fleet[0]))
        broker = MetasearchBroker(workers=4, timeout=timeout)
        for app in (hung, EngineApp(SearchEngine(fleet[1]))):
            remote = RemoteEngine(serve(app))
            serve.remotes.append(remote)
            broker.sync_representative(remote)
        for collection in fleet[2:]:
            broker.register(SearchEngine(collection))
        expected = in_process(fleet)
        invoked_hung = 0
        for query in QUERIES:
            started = time.monotonic()
            got = broker.search(query, 0.0)
            assert time.monotonic() - started < timeout + 1.0
            want = expected.search(query, 0.0)
            assert got.invoked == want.invoked
            failed = [f.engine for f in got.failures]
            assert failed == [name for name in got.invoked if name == "e0"]
            assert all(f.kind == "timeout" for f in got.failures)
            assert got.hits == [h for h in want.hits if h.engine != "e0"]
            invoked_hung += len(failed)
        assert invoked_hung, "no query invoked the hung server's engine"


def misreporting(broker, edit):
    """``broker``, its dispatch reports each edited by ``edit(report)``."""
    reports = broker.reports

    def edited(*args):
        answered = reports(*args)
        for report in answered:
            edit(report)
        return answered

    broker.reports = edited
    return broker


class TestHostRepliesMustCoverTheirAsk:
    """A host reply whose results and failures do not name exactly the
    engines asked of it is malformed: every engine asked of that host
    fails with kind ``"error"``, and no other engine's answer changes."""

    def fleet(self, serve, edit):
        fleet = collections(3)
        lying = ShardApp(misreporting(in_process(fleet[:2]), edit), shard_index=0)
        honest = ShardApp(in_process(fleet[2:]), shard_index=1)
        sharded = ShardedFleet([serve(lying), serve(honest)]).attach()
        serve.remotes.append(sharded)
        return sharded, in_process(fleet)

    @pytest.mark.parametrize("edit", [
        lambda report: report.results.pop("e1", None),
        lambda report: report.results.update({
            "e2": [], "unasked": [],
        }),
    ], ids=["drops-an-asked-engine", "adds-unasked-engines"])
    def test_a_reply_not_covering_its_ask_fails_the_host(self, serve, edit):
        sharded, expected = self.fleet(serve, edit)
        query = Query(terms=("rocket", "orbit", "engine"), weights=(1.0,) * 3)
        got = sharded.search(query, 0.0)
        want = expected.search(query, 0.0)
        assert got.invoked == want.invoked
        assert {"e0", "e1", "e2"} <= set(got.invoked)
        assert [f.engine for f in got.failures] == [
            name for name in got.invoked if name in ("e0", "e1")
        ]
        for failure in got.failures:
            assert failure.kind == "error"
            assert failure.message.startswith("shard 0 at ")
            assert "malformed answer" in failure.message
        assert got.hits == [h for h in want.hits if h.engine == "e2"]
