"""Integration tests for the sharded fleet topology.

The headline contract: a fleet partitioned across shard-worker
*processes* behind the scatter-gather coordinator answers every query
**exactly** (``==``) like an in-process broker over the same
collections — same merged hits, same estimate rows, same invoked
engines — at 2 shards and at 4, with the estimate rows pinned to the
scalar oracle (:class:`tests.oracle.ScalarOracle`).  Plus the degradation story: a shard
killed mid-flight becomes per-engine ``EngineFailure`` records naming
the shard, while the surviving shards' answers merge exactly as the
in-process broker restricted to the surviving engines would.  A
coalescing coordinator process answers concurrent requests exactly like a
per-request one over the same shard processes.  The HTTP frontend's
framing policy (keep-alive reuse, one write per response, 411/413/400) and
the coordinator's kept-alive shard connections are covered here too.
"""

import http.client
import io
import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import types
import urllib.request
from pathlib import Path

import pytest

from repro.corpus import Collection, Document, Query, save_collection
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker
from repro.obs import MetricsRegistry
from repro.representatives import partition_round_robin
from repro.serving import (
    CoordinatorApp,
    GatewayApp,
    GatewayClient,
    RemoteServingError,
    ServingServer,
    ShardApp,
    ShardedFleet,
)
from repro.serving.http import ServingApp, _AppRequestHandler
from repro.serving.remote_engine import _HTTPJsonClient
from tests.oracle import ScalarOracle

pytestmark = pytest.mark.slow

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


def save_fleet(tmp, collections):
    paths = []
    for collection in collections:
        path = tmp / f"{collection.name}.jsonl.gz"
        save_collection(collection, path)
        paths.append(str(path))
    return paths


def spawn_servers(role, argvs):
    """Launch one ``repro serve <role> <argv>`` process per argv; returns
    ``(processes, urls)`` in argv order, each url read off the process's
    "serving <role> at <url>" announcement."""
    processes, urls = [], []
    try:
        for argv in argvs:
            processes.append(subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", role, *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            ))
        for proc in processes:
            url = None
            deadline = time.time() + 60
            while time.time() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                match = re.search(rf"serving {role} at (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url, f"{role} process did not announce its URL"
            urls.append(url)
    except BaseException:
        stop_processes(processes)
        raise
    return processes, urls


def spawn_shard_workers(paths, n_shards):
    """Launch one ``repro serve shard`` process per round-robin slice;
    returns ``(processes, urls)`` with urls in shard-index order."""
    slices = [s for s in partition_round_robin(paths, n_shards) if s]
    return spawn_servers("shard", [
        ["--shard-index", str(index), "--collections", *slice_paths]
        for index, slice_paths in enumerate(slices)
    ])


def stop_processes(processes):
    """SIGTERM every process still running and reap them all; a SIGTERM'd
    ``repro serve`` process drains gracefully, so it must exit 0."""
    terminated = [proc for proc in processes if proc.poll() is None]
    for proc in terminated:
        proc.send_signal(signal.SIGTERM)
    for proc in processes:
        try:
            proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    assert [proc.returncode for proc in terminated] == [0] * len(terminated)


def local_broker_for(collections, make_backend=MetasearchBroker):
    broker = make_backend()
    for collection in collections:
        broker.register(SearchEngine(collection))
    return broker


class TestShardedExactness:
    """2- and 4-shard topologies vs the in-process broker (hits, invoked,
    failures) and the scalar oracle (estimate rows)."""

    @pytest.fixture(scope="class", params=[2, 4])
    def topology(self, request, tmp_path_factory):
        n_shards = request.param
        tmp = tmp_path_factory.mktemp(f"sharded-{n_shards}")
        collections = fleet_collections()
        paths = save_fleet(tmp, collections)
        processes, urls = spawn_shard_workers(paths, n_shards)
        fleet = ShardedFleet(urls, retries=1).attach(timeout=30.0)
        try:
            yield collections, fleet, urls
        finally:
            fleet.close()
            stop_processes(processes)

    @pytest.fixture(scope="class")
    def local_broker(self, topology):
        collections, __, __urls = topology
        return local_broker_for(collections)

    @pytest.fixture(scope="class")
    def oracle(self, topology):
        collections, __, __urls = topology
        return local_broker_for(collections, ScalarOracle)

    def test_every_engine_is_owned_exactly_once(self, topology):
        __, fleet, urls = topology
        assert fleet.n_shards == len(urls)
        assert fleet.engine_names == sorted(f"engine{e}" for e in range(N_ENGINES))

    def test_search_matches_in_process_broker_exactly(
        self, topology, local_broker
    ):
        __, fleet, __urls = topology
        for query in QUERIES:
            for threshold in THRESHOLDS:
                sharded = fleet.search(query, threshold)
                local = local_broker.search(query, threshold)
                assert sharded.hits == local.hits
                assert sharded.estimates == local.estimates
                assert sharded.invoked == local.invoked
                assert sharded.failures == local.failures

    def test_estimates_match_in_process_broker_exactly(
        self, topology, local_broker, oracle
    ):
        __, fleet, __urls = topology
        for query in QUERIES:
            for threshold in THRESHOLDS:
                assert (
                    fleet.estimate_all(query, threshold)
                    == local_broker.estimate_all(query, threshold)
                    == oracle.estimate_all(query, threshold)
                )

    def test_batch_matches_in_process_broker_exactly(
        self, topology, local_broker
    ):
        __, fleet, __urls = topology
        sharded = fleet.search_batch(QUERIES, 0.2, limit=5)
        local = local_broker.search_batch(QUERIES, 0.2, limit=5)
        assert [r.hits for r in sharded] == [r.hits for r in local]
        assert [r.estimates for r in sharded] == [r.estimates for r in local]
        assert [r.invoked for r in sharded] == [r.invoked for r in local]
        assert [r.failures for r in sharded] == [r.failures for r in local]

    def test_per_query_thresholds_match(self, topology, local_broker, oracle):
        __, fleet, __urls = topology
        thresholds = [0.1, 0.3, 0.0, 0.5]
        assert (
            fleet.estimate_batch(QUERIES, thresholds)
            == local_broker.estimate_batch(QUERIES, thresholds)
            == oracle.estimate_batch(QUERIES, thresholds)
        )

    def test_coordinator_app_serves_the_fleet(self, topology, local_broker):
        """The coordinator behind the HTTP frontend answers the PR 4
        wire schema exactly like a single-broker gateway would."""
        __, fleet, urls = topology
        app = CoordinatorApp(fleet, max_active=8, max_queued=16)
        server = ServingServer(app)
        server.start_background()
        client = GatewayClient(server.url)
        try:
            health = client.healthz()
            assert health["role"] == "coordinator"
            assert len(health["shards"]) == len(urls)
            assert len(health["engines"]) == N_ENGINES
            for query in QUERIES:
                remote = client.search(query, 0.2)
                local = local_broker.search(query, 0.2)
                assert remote.hits == local.hits
                assert remote.estimates == local.estimates
                assert remote.invoked == local.invoked
            remote_batch = client.search_batch(QUERIES, 0.2, limit=5)
            local_batch = local_broker.search_batch(QUERIES, 0.2, limit=5)
            assert [r.hits for r in remote_batch] == [
                r.hits for r in local_batch
            ]
            metrics = client.metrics_text()
            assert "repro_serving_requests_total" in metrics
        finally:
            client.close()
            assert server.drain(timeout=15)
        assert server.final_metrics is not None


class TestPartialShardFailure:
    """A dead shard degrades to per-engine failures, never a failed query."""

    @pytest.fixture
    def degraded(self, tmp_path):
        collections = fleet_collections()
        paths = save_fleet(tmp_path, collections)
        processes, urls = spawn_shard_workers(paths, 2)
        fleet = ShardedFleet(urls, shard_timeout=5.0)
        try:
            fleet.attach(timeout=30.0)
            # Learn the ownership map from the workers themselves, then
            # kill shard 1 outright (SIGKILL: no graceful drain, the
            # socket just dies under the coordinator).
            with urllib.request.urlopen(urls[1] + "/healthz", timeout=5) as r:
                dead_engines = json.loads(r.read())["engines"]
            processes[1].kill()
            processes[1].wait(timeout=15)
            survivors = [
                c for c in collections if c.name not in set(dead_engines)
            ]
            yield fleet, survivors, dead_engines
        finally:
            fleet.close()
            stop_processes(processes)

    def test_search_degrades_to_surviving_engines(self, degraded):
        fleet, survivors, dead_engines = degraded
        local = local_broker_for(survivors)
        for query in QUERIES[:2]:
            sharded = fleet.search(query, 0.2)
            expected = local.search(query, 0.2)
            # The merged ranking is exactly the in-process broker
            # restricted to the surviving engines...
            assert sharded.hits == expected.hits
            assert sharded.estimates == expected.estimates
            assert sharded.invoked == expected.invoked
            # ...plus one failure record per engine the dead shard owned,
            # naming the shard so the topology fault is diagnosable.
            assert sorted(f.engine for f in sharded.failures) == sorted(
                dead_engines
            )
            for failure in sharded.failures:
                assert "shard 1" in failure.message
                assert failure.kind in ("error", "timeout")
            assert sharded.degraded

    def test_estimates_degrade_to_surviving_engines(self, degraded):
        fleet, survivors, dead_engines = degraded
        local = local_broker_for(survivors)
        query = QUERIES[0]
        assert fleet.estimate_all(query, 0.2) == local.estimate_all(query, 0.2)


class HangsOnScatter(ShardApp):
    """A shard that answers ``/healthz`` but, once a scatter reaches it,
    reads the request and sends nothing until :attr:`release` is set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()

    def handle(self, method, path, headers, body):
        if path in ("/estimate", "/dispatch"):
            self.release.wait(timeout=30)
        return super().handle(method, path, headers, body)


class TestHungShardUnderScatterDeadline:
    """``ShardedFleet(timeout=...)`` bounds a scatter: a shard that never
    answers costs the deadline, not the shard client's socket budget, and
    holds up no other shard — wherever it sits in the scatter."""

    TIMEOUT = 0.3
    N_SHARDS = 3

    @pytest.fixture(params=[0, N_SHARDS - 1], ids=["hung-first", "hung-last"])
    def hung(self, request):
        hung_index = request.param
        collections = fleet_collections()
        parts = partition_round_robin(collections, self.N_SHARDS)
        apps = [
            (HangsOnScatter if index == hung_index else ShardApp)(
                local_broker_for(part), shard_index=index
            )
            for index, part in enumerate(parts)
        ]
        servers = [ServingServer(app) for app in apps]
        for server in servers:
            server.start_background()
        fleet = ShardedFleet(
            [server.url for server in servers],
            timeout=self.TIMEOUT,
            shard_timeout=5.0,
        )
        try:
            fleet.attach(timeout=30.0)
            hung_engines = [c.name for c in parts[hung_index]]
            survivors = [c for c in collections if c.name not in hung_engines]
            yield fleet, survivors, hung_engines, hung_index
        finally:
            fleet.close()
            apps[hung_index].release.set()
            for server in servers:
                server.drain(timeout=10)

    def test_search_returns_within_the_deadline_with_the_survivors(self, hung):
        fleet, survivors, hung_engines, hung_index = hung
        local = local_broker_for(survivors)
        for query in QUERIES:
            started = time.monotonic()
            sharded = fleet.search(query, 0.0)
            assert time.monotonic() - started < self.TIMEOUT + 1.0
            expected = local.search(query, 0.0)
            assert sharded.estimates == expected.estimates
            assert sharded.hits == expected.hits
            assert sharded.invoked == expected.invoked
            assert sorted(f.engine for f in sharded.failures) == sorted(
                hung_engines
            )
            for failure in sharded.failures:
                assert failure.kind == "timeout"
                assert f"shard {hung_index} " in failure.message


class TestCoalescingCoordinatorProcesses:
    """Continuous micro-batching end to end as real processes: two
    ``repro serve shard`` workers behind two ``repro serve coordinator``
    processes, one with ``--coalesce-window-ms``, one without."""

    TEXTS = {
        "c0a": [("a1", "the rocket engine ignited toward orbit"),
                ("a2", "rocket fuel and tomato sauce")],
        "c0b": [("b1", "a telescope mirror focuses distant galaxies"),
                ("b2", "galaxies of basil in tomato orbit")],
        "c1a": [("c1", "fuel pumps and engine turbines"),
                ("c2", "a sauce of plum and kiwi")],
        "c1b": [("d1", "orbit insertion requires engine restarts"),
                ("d2", "kiwi telescope rocket basil")],
    }

    def test_concurrent_coalesced_requests_equal_the_per_request_coordinator(
        self, tmp_path
    ):
        paths = save_fleet(tmp_path, [
            Collection.from_texts(name, docs) for name, docs in self.TEXTS.items()
        ])
        shards, shard_urls = spawn_shard_workers(paths, 2)
        coordinators = []
        try:
            coordinators, (on_url, off_url) = spawn_servers("coordinator", [
                ["--shard-urls", *shard_urls, "--coalesce-window-ms", "20",
                 "--coalesce-max-batch", "32"],
                ["--shard-urls", *shard_urls],
            ])
            on, off = GatewayClient(on_url), GatewayClient(off_url)
            assert on.healthz()["coalesce"] == {
                "window_seconds": 0.02, "max_batch": 32,
            }
            assert "coalesce" not in off.healthz()

            requests = [
                (Query.from_text(text), threshold)
                for text in ("rocket orbit", "tomato sauce",
                             "telescope galaxies engine", "kiwi plum basil")
                for threshold in (0.0, 0.2, 0.5)
            ]
            results = [None] * len(requests)

            def fire(i):
                client = GatewayClient(on_url)
                query, threshold = requests[i]
                results[i] = (
                    client.estimate(query, threshold),
                    client.search(query, threshold),
                )
                client.close()

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(len(requests))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "coalesced request hung"
            for (query, threshold), (estimates, response) in zip(
                requests, results
            ):
                assert estimates == off.estimate(query, threshold)
                reference = off.search(query, threshold)
                assert response.hits == reference.hits
                assert response.estimates == reference.estimates
                assert response.invoked == reference.invoked
                assert response.failures == reference.failures
            metrics = on.metrics_text()
            assert "repro_serving_coalesce_requests_total" in metrics
            assert "repro_serving_coalesce_flush_total" in metrics
            on.close()
            off.close()
        finally:
            stop_processes(coordinators)
            stop_processes(shards)


class TestShardAppValidation:
    """Shard route policy, exercised directly against the app."""

    @pytest.fixture(scope="class")
    def shard_app(self):
        broker = local_broker_for(fleet_collections()[:2])
        return ShardApp(broker, shard_index=3, max_batch=2)

    def post(self, app, path, payload):
        return app.handle(
            "POST", path, {}, json.dumps(payload).encode("utf-8")
        )

    def test_healthz_names_shard_and_engines(self, shard_app):
        response = shard_app.handle("GET", "/healthz", {}, b"")
        assert response.status == 200
        assert response.payload["shard"] == 3
        assert response.payload["engines"] == ["engine0", "engine1"]

    def test_estimate_batch_answers_per_query_rows(self, shard_app):
        from repro.serving.wire import query_to_wire

        response = self.post(
            shard_app,
            "/estimate",
            {
                "queries": [query_to_wire(q) for q in QUERIES[:2]],
                "thresholds": 0.2,
            },
        )
        assert response.status == 200
        assert response.payload["kind"] == "shard.estimates"
        assert response.payload["shard"] == 3
        assert len(response.payload["rows"]) == 2
        assert all(len(row) == 2 for row in response.payload["rows"])

    def test_non_list_batch_is_400(self, shard_app):
        assert self.post(shard_app, "/estimate", {"queries": "nope"}).status == 400

    def test_oversized_batch_is_413(self, shard_app):
        from repro.serving.wire import query_to_wire

        wire = [query_to_wire(q) for q in QUERIES[:3]]
        response = self.post(
            shard_app, "/estimate", {"queries": wire, "thresholds": 0.2}
        )
        assert response.status == 413

    def test_unknown_engine_in_dispatch_is_400(self, shard_app):
        from repro.serving.wire import query_to_wire

        response = self.post(
            shard_app,
            "/dispatch",
            {
                "entries": [
                    {
                        "query": query_to_wire(QUERIES[0]),
                        "threshold": 0.2,
                        "engines": ["engine7"],
                    }
                ]
            },
        )
        assert response.status == 400
        assert "engine7" in response.payload["error"]


class TestFrontendFraming:
    """The HTTP frontend's body/keep-alive policy."""

    @pytest.fixture(scope="class")
    def gateway_server(self):
        broker = local_broker_for(fleet_collections())
        registry = MetricsRegistry()
        app = GatewayApp(
            broker, max_active=4, max_queued=8, registry=registry,
            max_body=4096,
        )
        server = ServingServer(app)
        server.start_background()
        yield server
        server.drain(timeout=10)

    def request_raw(self, server, payload: bytes, conn=None, extra=()):
        own = conn is None
        if own:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
        headers = {"Content-Type": "application/json"}
        headers.update(dict(extra))
        conn.request("POST", "/search", body=payload, headers=headers)
        response = conn.getresponse()
        body = response.read()
        if own:
            conn.close()
        return response, body

    SEARCH = json.dumps(
        {
            "query": {"kind": "query", "terms": ["rocket"], "weights": [1.0]},
            "threshold": 0.1,
        }
    ).encode("utf-8")

    def test_keep_alive_reuses_one_connection(self, gateway_server):
        conn = http.client.HTTPConnection(
            gateway_server.host, gateway_server.port, timeout=10
        )
        try:
            first, __ = self.request_raw(gateway_server, self.SEARCH, conn)
            assert first.status == 200
            sock = conn.sock
            second, body = self.request_raw(gateway_server, self.SEARCH, conn)
            assert second.status == 200
            assert conn.sock is sock, "server closed a keep-alive connection"
            assert json.loads(body)["kind"] == "response"
        finally:
            conn.close()

    def test_chunked_body_is_411(self, gateway_server):
        conn = http.client.HTTPConnection(
            gateway_server.host, gateway_server.port, timeout=10
        )
        try:
            conn.putrequest("POST", "/search")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 411
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_oversized_body_is_413_and_closes(self, gateway_server):
        response, body = self.request_raw(gateway_server, b"x" * 8192)
        assert response.status == 413
        assert response.getheader("Connection") == "close"
        assert "exceeds" in json.loads(body)["error"]

    class RecordingConnection:
        """A socket stand-in: the handler reads ``incoming`` and every
        ``sendall`` is one recorded write."""

        def __init__(self, incoming: bytes):
            self.incoming = io.BytesIO(incoming)
            self.writes = []

        def makefile(self, mode, buffering=None):
            return self.incoming

        def sendall(self, data):
            self.writes.append(bytes(data))

        def settimeout(self, timeout):
            pass

    def writes_for(self, app, incoming: bytes):
        connection = self.RecordingConnection(incoming)
        _AppRequestHandler(
            connection, ("127.0.0.1", 0), types.SimpleNamespace(app=app)
        )
        return connection.writes

    @staticmethod
    def split_response(framed: bytes):
        head, __, body = framed.partition(b"\r\n\r\n")
        lines = head.decode("iso-8859-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert int(headers["Content-Length"]) == len(body)
        return lines[0], headers, body

    def test_each_response_is_one_write(self, gateway_server):
        """Head and body leave in one write — no segment waits out the
        peer's delayed ACK — for app answers and stdlib errors alike."""
        app = gateway_server.app
        [ok] = self.writes_for(app, (
            b"POST /search HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(self.SEARCH)
        ) + self.SEARCH)
        status, __, body = self.split_response(ok)
        assert status == "HTTP/1.1 200 OK"
        assert json.loads(body)["kind"] == "response"

        [refused] = self.writes_for(
            app, b"POST /search HTTP/1.1\r\nContent-Length: 8192\r\n\r\n"
        )
        status, headers, body = self.split_response(refused)
        assert status.startswith("HTTP/1.1 413")
        assert headers["Connection"] == "close"
        assert "exceeds" in json.loads(body)["error"]

        [metrics] = self.writes_for(app, b"GET /metrics HTTP/1.1\r\n\r\n")
        status, headers, body = self.split_response(metrics)
        assert status == "HTTP/1.1 200 OK"
        assert headers["Content-Type"].startswith("text/plain")
        assert b"repro_serving_requests_total" in body

        [malformed] = self.writes_for(
            app, b"GET /healthz extra HTTP/1.1\r\n\r\n"
        )
        status, headers, body = self.split_response(malformed)
        assert status.startswith("HTTP/1.1 400")
        assert b"Bad request syntax" in body

        [unsupported] = self.writes_for(app, b"PUT /search HTTP/1.1\r\n\r\n")
        assert self.split_response(unsupported)[0].startswith("HTTP/1.1 501")

        # An HTTP/0.9 request line is answered with the body alone.
        [simple] = self.writes_for(app, b"GET /healthz\r\n\r\n")
        assert json.loads(simple)["status"] == "ok"

    def test_bad_content_length_is_400(self, gateway_server):
        with socket.create_connection(
            (gateway_server.host, gateway_server.port), timeout=10
        ) as raw:
            raw.sendall(
                b"POST /search HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: banana\r\n\r\n"
            )
            answer = raw.recv(4096)
        assert answer.startswith(b"HTTP/1.1 400")

    def test_deadline_header_is_honored_case_insensitively(self, gateway_server):
        response, body = self.request_raw(
            gateway_server, self.SEARCH, extra=[("x-repro-deadline", "0.0")]
        )
        assert response.status == 504

    def test_unknown_route_is_404(self, gateway_server):
        conn = http.client.HTTPConnection(
            gateway_server.host, gateway_server.port, timeout=10
        )
        try:
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
        finally:
            conn.close()


class CountsConnections:
    """Wraps a :class:`ServingServer`'s accept and close hooks, so a test
    can read how many connections it accepted and how many are open."""

    def __init__(self, server: ServingServer):
        httpd = server._httpd
        self.accepted = 0
        self.closed = 0
        self._lock = threading.Lock()
        get_request, shutdown_request = httpd.get_request, httpd.shutdown_request

        def counted_get_request():
            request = get_request()
            with self._lock:
                self.accepted += 1
            return request

        def counted_shutdown_request(request):
            shutdown_request(request)
            with self._lock:
                self.closed += 1

        httpd.get_request = counted_get_request
        httpd.shutdown_request = counted_shutdown_request

    @property
    def open(self) -> int:
        with self._lock:
            return self.accepted - self.closed


class TestKeptAliveShardConnections:
    """Shard connections are pooled per shard client and outlive the
    scatter: sequential requests, from any thread, dial no new connection,
    and :meth:`ShardedFleet.close` leaves none open."""

    N_REQUESTS = 24

    @pytest.fixture
    def counted_fleet(self):
        collections = fleet_collections()
        servers, counters, urls = [], [], []
        for index, part in enumerate(partition_round_robin(collections, 2)):
            server = ServingServer(
                ShardApp(local_broker_for(part), shard_index=index)
            )
            counters.append(CountsConnections(server))
            server.start_background()
            servers.append(server)
            urls.append(server.url)
        fleet = ShardedFleet(urls).attach(timeout=30.0)
        try:
            yield fleet, counters
        finally:
            fleet.close()
            for server in servers:
                server.drain(timeout=10)

    def test_sequential_scatters_reuse_one_connection_per_shard(
        self, counted_fleet
    ):
        fleet, counters = counted_fleet
        for i in range(self.N_REQUESTS):
            response = fleet.search(QUERIES[i % len(QUERIES)], 0.0)
            assert not response.failures
        # The connection attach() dialed for /healthz carries every
        # scatter after it; 2 RPCs per request would have dialed
        # 2 * N_REQUESTS connections per shard.
        for counter in counters:
            assert counter.accepted == 1

    def test_fresh_client_connections_do_not_dial_the_shards(
        self, counted_fleet
    ):
        """The coordinator's frontend runs a thread per client connection;
        the shard connections are the fleet's, so a client that opens a
        new connection per request costs the shards no new dial."""
        fleet, counters = counted_fleet
        server = ServingServer(CoordinatorApp(fleet))
        server.start_background()
        try:
            for i in range(self.N_REQUESTS):
                client = GatewayClient(server.url)
                try:
                    response = client.search(QUERIES[i % len(QUERIES)], 0.0)
                finally:
                    client.close()
                assert not response.failures
        finally:
            assert server.drain(timeout=10)
        for counter in counters:
            assert counter.accepted <= 2

    def test_close_leaves_no_open_connection(self, counted_fleet):
        fleet, counters = counted_fleet
        for query in QUERIES:
            fleet.search(query, 0.0)
        assert all(counter.open > 0 for counter in counters)
        fleet.close()
        deadline = time.monotonic() + 10
        while any(counter.open for counter in counters):
            assert time.monotonic() < deadline, [c.open for c in counters]
            time.sleep(0.01)

    def test_client_close_reaches_connections_of_live_threads(self):
        """``close()`` closes every pooled connection: the idle ones and
        those that threads, still alive, hold checked out mid-exchange."""
        server = ServingServer(ServingApp())
        counter = CountsConnections(server)
        server.start_background()
        client = _HTTPJsonClient(server.url)
        release = threading.Event()
        holding = threading.Barrier(4)
        outcomes = []

        def hold():
            receive = client.start("GET", "/healthz")  # checked out
            holding.wait(timeout=10)
            release.wait(timeout=10)
            try:
                outcomes.append(receive())
            except RemoteServingError as exc:
                outcomes.append(exc)

        threads = [threading.Thread(target=hold) for __ in range(3)]
        try:
            for thread in threads:
                thread.start()
            holding.wait(timeout=10)
            assert client.request("GET", "/healthz")["status"] == "ok"
            assert len(client._idle) == 1
            deadline = time.monotonic() + 10
            while counter.open < 4:
                assert time.monotonic() < deadline, counter.open
                time.sleep(0.01)
            client.close()
            deadline = time.monotonic() + 10
            while counter.open:
                assert time.monotonic() < deadline, counter.open
                time.sleep(0.01)
            assert all(thread.is_alive() for thread in threads)
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=10)
            server.drain(timeout=10)
        assert len(outcomes) == 3
        assert all(isinstance(o, RemoteServingError) for o in outcomes)

    def test_listen_backlog_absorbs_a_burst_of_dials(self):
        """Fan-out threads starting together dial together.  Nothing is
        accepted here, so every connection waits in the listen backlog; a
        dial that finds it full would stall for the 1 s SYN retransmit."""
        server = ServingServer(ServingApp())  # bound and listening, not serving
        dials = []
        try:
            for __ in range(64):
                dials.append(socket.create_connection(
                    (server.host, server.port), timeout=0.5
                ))
        finally:
            for sock in dials:
                sock.close()
            server.drain(timeout=1)
        assert len(dials) == 64
