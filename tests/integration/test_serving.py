"""Integration tests for the serving layer.

The headline contract: a fleet of engine-server *processes* behind the
HTTP gateway answers every query **exactly** (``==``) like an in-process
broker over the same collections — same merged hits, same estimates, same
invoked engines.  Plus the operational behaviors: load shedding under
burst (503 + ``Retry-After``, never a hang), graceful drain (in-flight
requests finish, new ones are refused, final metrics are flushed), and
server-side deadline enforcement (504).
"""

import json
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.corpus import Collection, Document, Query, save_collection
from repro.corpus.synth import NewsgroupModel, QueryLogModel
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker
from repro.obs import MetricsRegistry
from repro.representatives import build_representative
from repro.serving import (
    CoordinatorApp,
    EngineApp,
    GatewayApp,
    GatewayClient,
    RemoteEngine,
    RemoteServingError,
    ServingServer,
    ShardApp,
    ShardedFleet,
    estimate_to_wire,
    query_to_wire,
)
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


def post_json(url, payload, headers=None, timeout=10.0):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


class TestSubprocessFleet:
    """The acceptance contract, over real processes."""

    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serving-fleet")
        collections = fleet_collections()
        processes, urls = [], []
        try:
            for collection in collections:
                path = tmp / f"{collection.name}.jsonl.gz"
                save_collection(collection, path)
                proc = subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.cli",
                        "serve",
                        "engine",
                        "--collection",
                        str(path),
                    ],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                )
                processes.append(proc)
            for proc in processes:
                url = None
                deadline = time.time() + 30
                while time.time() < deadline:
                    line = proc.stdout.readline()
                    if not line:
                        break
                    match = re.search(r"serving engine at (http://\S+)", line)
                    if match:
                        url = match.group(1)
                        break
                assert url, "engine server did not announce its URL"
                urls.append(url)
            yield collections, urls
        finally:
            for proc in processes:
                proc.send_signal(signal.SIGTERM)
            for proc in processes:
                try:
                    proc.communicate(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
            # SIGTERM is a graceful drain: a ``repro serve`` process exits 0.
            assert [proc.returncode for proc in processes] == [0] * len(processes)

    @pytest.fixture(scope="class")
    def gateway(self, fleet):
        __, urls = fleet
        broker = MetasearchBroker(workers=N_ENGINES)
        remotes = [RemoteEngine(url) for url in urls]
        for remote in remotes:
            broker.sync_representative(remote)
        server = ServingServer(GatewayApp(broker, max_active=8, max_queued=16))
        server.start_background()
        client = GatewayClient(server.url)
        yield client
        client.close()
        server.drain(timeout=10)
        for remote in remotes:
            remote.close()

    @pytest.fixture(scope="class")
    def local_broker(self, fleet):
        collections, __ = fleet
        broker = MetasearchBroker()
        for collection in collections:
            broker.register(SearchEngine(collection))
        return broker

    @pytest.fixture(scope="class")
    def oracle(self, fleet):
        collections, __ = fleet
        oracle = ScalarOracle()
        for collection in collections:
            oracle.register(SearchEngine(collection))
        return oracle

    def test_fleet_is_at_least_four_processes(self, fleet):
        __, urls = fleet
        assert len(urls) >= 4
        assert len(set(urls)) == len(urls)

    def test_search_matches_in_process_broker_exactly(
        self, gateway, local_broker, oracle
    ):
        for query in QUERIES:
            for threshold in (0.0, 0.2, 0.5):
                remote = gateway.search(query, threshold)
                local = local_broker.search(query, threshold)
                assert remote.hits == local.hits
                assert (
                    remote.estimates
                    == local.estimates
                    == oracle.estimate_all(query, threshold)
                )
                assert remote.invoked == local.invoked
                assert remote.failures == local.failures

    def test_estimates_match_in_process_broker_exactly(self, gateway, oracle):
        for query in QUERIES:
            assert gateway.estimate(query, 0.2) == oracle.estimate_all(
                query, 0.2
            )

    def test_batch_matches_in_process_broker_exactly(
        self, gateway, local_broker, oracle
    ):
        remote = gateway.search_batch(QUERIES, 0.2, limit=5)
        local = local_broker.search_batch(QUERIES, 0.2, limit=5)
        assert [r.hits for r in remote] == [r.hits for r in local]
        assert (
            [r.estimates for r in remote]
            == [r.estimates for r in local]
            == oracle.estimate_batch(QUERIES, 0.2)
        )
        assert [r.invoked for r in remote] == [r.invoked for r in local]

    def test_limit_respected_over_the_wire(self, gateway, local_broker):
        query = QUERIES[0]
        remote = gateway.search(query, 0.0, limit=3)
        local = local_broker.search(query, 0.0, limit=3)
        assert len(remote.hits) <= 3
        assert remote.hits == local.hits

    def test_quantized_representative_matches_local_quantization(
        self, fleet, tmp_path
    ):
        """``repro serve gateway --quantize 256`` quantizes the full delta
        each engine sent, so it estimates exactly like a broker holding
        ``quantize_representative`` of the same representatives (in the
        delta's canonical term order: a grid's per-interval means sum in
        term order).  A pull after a live engine's ``/mutate`` re-reads
        and quantizes the whole representative the same way."""
        from repro.fleet import LiveEngineServer, canonicalize
        from repro.metasearch.broker import REPORT_MAX_AGE
        from repro.representatives.quantized import quantize_representative

        collections, urls = fleet
        live_path = tmp_path / "live.jsonl.gz"
        live_documents = [
            Document("l0", ["rocket", "orbit", "orbit"]),
            Document("l1", ["kiwi", "plum", "rocket"]),
            Document("l2", ["sauce", "basil"]),
        ]
        save_collection(Collection.from_documents("live", live_documents), live_path)
        mirror = LiveEngineServer("live", live_documents)

        def quantized_local():
            local = MetasearchBroker()
            for collection in collections:
                engine = SearchEngine(collection)
                local.register(engine, representative=quantize_representative(
                    canonicalize(build_representative(engine)), levels=256
                ))
            local.register(mirror, representative=quantize_representative(
                canonicalize(mirror.delta_since(0).as_representative()),
                levels=256,
            ))
            return local

        def announced(proc, role):
            for line in proc.stdout:
                found = re.search(rf"serving {role} at (http://\S+)", line)
                if found:
                    return found.group(1)
            pytest.fail(f"the {role} exited without serving")

        procs, client = [], None
        try:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "engine", "--live",
                 "--collection", str(live_path)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            ))
            live_url = announced(procs[-1], "engine")
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "gateway",
                 "--engines", *urls, live_url, "--quantize", "256"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            ))
            client = GatewayClient(announced(procs[-1], "gateway"))
            queries = [*QUERIES, Query(terms=("zebra",), weights=(1.0,))]
            local = quantized_local()
            for query in queries:
                for threshold in (0.0, 0.2, 0.5):
                    assert client.estimate(query, threshold) == (
                        local.estimate_all(query, threshold)
                    )
            status, answer = post_json(f"{live_url}/mutate", {
                "remove": ["l2"],
                "add": [{"doc_id": "l3", "terms": ["zebra", "rocket", "kiwi"]}],
            })
            assert (status, answer["version"]) == (200, 3)
            mirror.remove_documents(["l2"])
            mirror.add_documents([Document("l3", ["zebra", "rocket", "kiwi"])])
            time.sleep(REPORT_MAX_AGE + 0.2)
            local = quantized_local()
            for query in queries:
                for threshold in (0.0, 0.2, 0.5):
                    assert client.estimate(query, threshold) == (
                        local.estimate_all(query, threshold)
                    )
        finally:
            if client is not None:
                client.close()
            for proc in reversed(procs):
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.communicate(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
        assert [proc.returncode for proc in procs] == [0, 0]

    def test_healthz_and_metrics(self, gateway):
        health = gateway.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "gateway"
        assert len(health["engines"]) == N_ENGINES
        metrics = gateway.metrics_text()
        assert "repro_serving_requests_total" in metrics
        assert "repro_serving_admission_admitted_total" in metrics


class SlowLocalEngine:
    """A local engine whose search sleeps — drives shed/drain tests."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.delay = delay

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def search(self, query, threshold=0.0):
        time.sleep(self.delay)
        return self.inner.search(query, threshold)


def slow_gateway(delay, **gateway_kwargs):
    collection = Collection.from_documents(
        "slowdb", [Document("d1", terms=["rocket", "orbit"])]
    )
    engine = SearchEngine(collection)
    broker = MetasearchBroker()
    broker.register(
        SlowLocalEngine(engine, delay),
        representative=build_representative(engine),
    )
    registry = MetricsRegistry()
    app = GatewayApp(broker, registry=registry, **gateway_kwargs)
    server = ServingServer(app)
    server.start_background()
    return server, registry


SEARCH_BODY = {
    "query": {"kind": "query", "terms": ["rocket"], "weights": [1.0]},
    "threshold": 0.1,
}


class TestLoadShedding:
    def test_burst_sheds_with_retry_after_and_never_hangs(self):
        server, registry = slow_gateway(0.3, max_active=1, max_queued=0)
        statuses, retry_afters = [], []
        lock = threading.Lock()

        def fire():
            try:
                status, __ = post_json(
                    server.url + "/search", SEARCH_BODY, timeout=15
                )
                with lock:
                    statuses.append(status)
            except urllib.error.HTTPError as err:
                with lock:
                    statuses.append(err.code)
                    retry_afters.append(err.headers.get("Retry-After"))

        threads = [threading.Thread(target=fire) for __ in range(6)]
        started = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert all(not t.is_alive() for t in threads), "a request hung"
        assert time.monotonic() - started < 20
        assert statuses.count(200) >= 1
        assert statuses.count(503) >= 1
        assert all(ra is not None for ra in retry_afters)
        assert registry.value("serving.admission.shed") >= 1
        # The gateway survived the burst and still answers.
        status, __ = post_json(server.url + "/search", SEARCH_BODY)
        assert status == 200
        server.drain(timeout=10)

    def test_queued_requests_wait_then_run(self):
        server, registry = slow_gateway(0.15, max_active=1, max_queued=4)
        statuses = []
        lock = threading.Lock()

        def fire():
            status, __ = post_json(
                server.url + "/search", SEARCH_BODY, timeout=30
            )
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=fire) for __ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert statuses == [200, 200, 200]
        assert registry.value("serving.admission.shed") in (None, 0)
        server.drain(timeout=10)


class TestGracefulDrain:
    def test_inflight_completes_new_work_refused_metrics_flushed(self):
        server, __ = slow_gateway(0.5, max_active=2, max_queued=2)
        results = {}

        def long_request():
            try:
                status, payload = post_json(
                    server.url + "/search", SEARCH_BODY, timeout=30
                )
                results["status"] = status
                results["payload"] = payload
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                results["error"] = exc

        thread = threading.Thread(target=long_request)
        thread.start()
        time.sleep(0.15)  # let the request get in flight
        drainer = threading.Thread(target=lambda: server.drain(timeout=30))
        drainer.start()
        time.sleep(0.05)
        # New work is refused while draining...
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(server.url + "/search", SEARCH_BODY, timeout=10)
        assert excinfo.value.code == 503
        excinfo.value.close()  # the error holds the response
        thread.join(timeout=30)
        drainer.join(timeout=30)
        # ...but the in-flight request completed normally,
        assert results.get("status") == 200
        assert results["payload"]["hits"]
        # and the final metrics flush captured the request counter.
        assert server.final_metrics is not None
        assert "repro_serving_requests_total" in server.final_metrics

    def test_drain_is_idempotent(self):
        server, __ = slow_gateway(0.0)
        assert server.drain(timeout=5)
        assert server.drain(timeout=5)  # second call returns, no deadlock


class TestDeadlines:
    def test_exhausted_deadline_rejected_with_504(self):
        server, __ = slow_gateway(0.0)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(
                server.url + "/search",
                SEARCH_BODY,
                headers={"X-Repro-Deadline": "0.0"},
            )
        assert excinfo.value.code == 504
        excinfo.value.close()  # the error holds the response
        server.drain(timeout=5)

    def test_deadline_exceeded_mid_request_reported(self):
        server, __ = slow_gateway(0.3, max_active=2, max_queued=2)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(
                server.url + "/search",
                SEARCH_BODY,
                headers={"X-Repro-Deadline": "0.05"},
                timeout=15,
            )
        assert excinfo.value.code == 504
        excinfo.value.close()  # the error holds the response
        server.drain(timeout=10)

    def test_bad_deadline_header_is_400(self):
        server, __ = slow_gateway(0.0)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(
                server.url + "/search",
                SEARCH_BODY,
                headers={"X-Repro-Deadline": "soon"},
            )
        assert excinfo.value.code == 400
        excinfo.value.close()  # the error holds the response
        server.drain(timeout=5)

    def test_client_budget_propagates_to_engine_failure(self):
        """A gateway under deadline pressure maps engine slowness onto the
        broker's standard degradation path rather than an error page."""
        collection = Collection.from_documents(
            "slow", [Document("d1", terms=["rocket"])]
        )
        engine = SearchEngine(collection)
        engine_server = ServingServer(EngineApp(engine))
        engine_server.start_background()
        remote = RemoteEngine(engine_server.url, timeout=1e-6)
        with pytest.raises(RemoteServingError):
            remote.host.dispatch([(Query.from_terms(["rocket"]), 0.1, ["slow"])])()
        engine_server.drain(timeout=5)


class RecordsDeadline:
    """Mixin for a served app: records ``(path, X-Repro-Deadline)`` of every
    POST it answers (``None`` when the header is absent), holding the
    request at ``gate`` first."""

    def __init__(self, *args, **kwargs):
        self.seen = []
        self.gate = threading.Event()
        self.gate.set()
        super().__init__(*args, **kwargs)

    def handle(self, method, path, headers, body):
        if method == "POST":
            self.seen.append((path, headers.get("X-Repro-Deadline")))
            self.gate.wait(timeout=30)
        return super().handle(method, path, headers, body)

    def budgets(self, path):
        return [
            None if raw is None else float(raw)
            for seen_path, raw in self.seen
            if seen_path == path
        ]


class RecordingEngineApp(RecordsDeadline, EngineApp):
    pass


class RecordingShardApp(RecordsDeadline, ShardApp):
    pass


def rocket_engine(name):
    """A one-document engine that every ``SEARCH_BODY`` request selects."""
    return SearchEngine(
        Collection.from_documents(
            name, [Document(f"{name}-d1", terms=["rocket", "orbit"])]
        )
    )


def wait_until(predicate, timeout=10.0):
    expires = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < expires, "condition not reached in time"
        time.sleep(0.005)


class TestDeadlinePropagation:
    """``X-Repro-Deadline`` reaches every downstream call, whichever thread
    the dispatcher runs it on (``workers=1`` inline, ``workers=8`` pooled)."""

    @pytest.fixture
    def engine_apps(self):
        apps, servers = [], []
        for name in ("left", "right"):
            app = RecordingEngineApp(rocket_engine(name))
            server = ServingServer(app)
            server.start_background()
            apps.append(app)
            servers.append(server)
        yield apps, [server.url for server in servers]
        for server in servers:
            server.drain(timeout=5)

    @pytest.fixture
    def gateway_over(self):
        """``gateway_over(urls, workers, **gateway_kwargs)``: a gateway
        app over remote engines, whose connections close after the test."""
        remotes = []

        def gateway_over(urls, workers, **gateway_kwargs):
            broker = MetasearchBroker(workers=workers)
            for url in urls:
                # No client timeout: the only budget is the request's own.
                remotes.append(RemoteEngine(url, timeout=None))
                broker.sync_representative(remotes[-1])
            return GatewayApp(broker, default_deadline=None, **gateway_kwargs)

        yield gateway_over
        for remote in remotes:
            remote.close()

    @pytest.mark.parametrize("workers", [1, 8])
    def test_gateway_forwards_the_header_to_every_engine(
        self, engine_apps, gateway_over, workers
    ):
        apps, urls = engine_apps
        gateway = gateway_over(urls, workers)
        body = json.dumps(SEARCH_BODY).encode("utf-8")
        response = gateway.handle(
            "POST", "/search", {"X-Repro-Deadline": "5.0"}, body
        )
        assert response.status == 200
        assert len(response.payload["invoked"]) == 2
        for app in apps:
            [budget] = app.budgets("/dispatch")
            assert budget is not None and 0.0 < budget <= 5.0
        response = gateway.handle("POST", "/search", {}, body)
        assert response.status == 200
        for app in apps:
            assert app.budgets("/dispatch")[1:] == [None]

    @pytest.mark.parametrize("workers", [1, 8])
    def test_coalesced_batch_runs_under_its_loosest_member_deadline(
        self, engine_apps, gateway_over, workers
    ):
        """Two members with different budgets, queued behind a request held
        in flight and flushed as *one* batch: the one engine call of that
        batch carries the loosest member's budget, not the leader's own."""
        apps, urls = engine_apps
        gateway = gateway_over(urls, workers, coalesce_window=30.0)
        body = json.dumps(SEARCH_BODY).encode("utf-8")
        statuses = []

        def request(budget):
            response = gateway.handle(
                "POST", "/search", {"X-Repro-Deadline": budget}, body
            )
            statuses.append(response.status)

        for app in apps:
            app.gate.clear()
        threads = [threading.Thread(target=request, args=("120.0",))]
        threads[0].start()
        wait_until(lambda: any(app.seen for app in apps))  # held in flight
        for budget in ("20.0", "60.0"):
            threads.append(threading.Thread(target=request, args=(budget,)))
            threads[-1].start()
        wait_until(lambda: gateway._coalesce_search.queued == 2)
        for app in apps:
            app.gate.set()
        for thread in threads:
            thread.join(timeout=30)
        assert statuses == [200, 200, 200]
        for app in apps:
            # The flushed batch of two asks each engine server once.
            first, *batch = app.budgets("/dispatch")
            assert 60.0 < first <= 120.0
            assert len(batch) == 1
            assert all(b is not None and 20.0 < b <= 60.0 for b in batch)

    @pytest.mark.parametrize("shard_workers", [1, 4])
    def test_coordinator_forwards_the_header_through_the_shard(
        self, engine_doubles, shard_workers
    ):
        """Coordinator -> shard -> engine: the shard sees the header on its
        one call, the dispatch, and its engines' calls see the ambient
        deadline.  The coordinator estimates locally: no /estimate call."""
        probes, apps, servers = [], [], []
        for index, name in enumerate(("left", "right")):
            probe = engine_doubles.DeadlineProbe(rocket_engine(name))
            broker = MetasearchBroker(workers=shard_workers)
            broker.register(
                probe, representative=build_representative(probe.inner)
            )
            app = RecordingShardApp(broker, shard_index=index)
            server = ServingServer(app)
            server.start_background()
            probes.append(probe)
            apps.append(app)
            servers.append(server)
        fleet = ShardedFleet(
            [server.url for server in servers], shard_timeout=None
        ).attach()
        coordinator = CoordinatorApp(fleet, default_deadline=None)
        body = json.dumps(SEARCH_BODY).encode("utf-8")
        try:
            response = coordinator.handle(
                "POST", "/search", {"X-Repro-Deadline": "5.0"}, body
            )
            assert response.status == 200
            assert len(response.payload["invoked"]) == 2
            for app, probe in zip(apps, probes):
                assert app.budgets("/estimate") == []
                [budget] = app.budgets("/dispatch")
                assert budget is not None and 0.0 < budget <= 5.0
                [deadline] = probe.observed
                assert deadline is not None and 0.0 < deadline.remaining() <= 5.0
            response = coordinator.handle("POST", "/search", {}, body)
            assert response.status == 200
            for app, probe in zip(apps, probes):
                assert app.budgets("/estimate") == []
                assert app.budgets("/dispatch")[1:] == [None]
                assert probe.observed[1:] == [None]
        finally:
            fleet.close()
            for server in servers:
                server.drain(timeout=5)


class TestRemoteEngineErrors:
    def test_unreachable_server_raises_connection_error(self):
        remote = RemoteEngine("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(RemoteServingError):
            remote.host.dispatch([(Query.from_terms(["x"]), 0.1, ["x"])])()

    def test_dispatcher_degrades_on_dead_remote(self):
        """A dead remote engine becomes an EngineFailure, not a crash."""
        collection = Collection.from_documents(
            "live", [Document("d1", terms=["rocket"])]
        )
        engine = SearchEngine(collection)
        broker = MetasearchBroker(workers=2)
        broker.register(engine)
        dead = RemoteEngine("http://127.0.0.1:9", timeout=0.3, name="dead")
        broker.register(
            dead, representative=build_representative(engine)
        )
        response = broker.search(Query.from_terms(["rocket"]), 0.1)
        assert [f.engine for f in response.failures] == ["dead"]
        assert response.failures[0].kind == "error"
        assert any(h.engine == "live" for h in response.hits)


class TestColumnarSnapshot:
    """A whole representative over HTTP is the engine's full delta; the
    broker holds it in its columnar store, bit-exactly."""

    @pytest.fixture
    def engine_server(self):
        collection = Collection.from_documents(
            "colnpz",
            [
                Document("d1", terms=["rocket", "orbit", "rocket", "fuel"]),
                Document("d2", terms=["sauce", "basil", "orbit"]),
                Document("d3", terms=["kiwi", "plum", "rocket"]),
            ],
        )
        engine = SearchEngine(collection)
        server = ServingServer(EngineApp(engine))
        server.start_background()
        yield engine, server
        server.drain(timeout=5)

    def test_columnar_snapshot_is_bit_exact(self, engine_server):
        engine, server = engine_server
        remote = RemoteEngine(server.url)
        try:
            broker = MetasearchBroker()
            report = broker.sync_representative(remote)
        finally:
            remote.close()
        local = build_representative(engine)
        assert (report.from_version, report.to_version) == (0, engine.n_documents)
        held = broker.representative_of("colnpz").materialize()
        assert held.name == local.name
        assert held.n_documents == local.n_documents
        assert dict(held.items()) == dict(local.items())

    def test_columnar_snapshot_registers_into_columnar_broker(self, engine_server):
        engine, server = engine_server
        remote = RemoteEngine(server.url)
        try:
            broker = MetasearchBroker()
            broker.sync_representative(remote)
        finally:
            remote.close()
        local = ScalarOracle()
        local.register(engine)
        query = Query.from_terms(["rocket", "orbit"])
        assert [
            (e.engine, e.usefulness) for e in broker.estimate_all(query, 0.1)
        ] == [
            (e.engine, e.usefulness) for e in local.estimate_all(query, 0.1)
        ]


class TestEstimateRowBytes:
    """The gateway, the shard and ``response_to_wire`` encode an estimate
    row straight from its arrays, and so does the coordinator over the
    representatives it read off the shards; the bytes must be those of
    encoding estimate *objects* one by
    one — ``[estimate_to_wire(e) for e in row]`` over the scalar oracle's
    row — on a bench-style fleet (newsgroup groups, a 1-6 term query log,
    thresholds 0.0-0.6)."""

    @pytest.fixture(scope="class")
    def fleet(self):
        model = NewsgroupModel(
            vocab_size=1500, topic_size=60, topic_band=(30, 600),
            mean_length=50, seed=1999, group_sizes=[12] * 8,
        )
        engines = [SearchEngine(model.generate_group(g)) for g in range(8)]
        queries = QueryLogModel(model, seed=2000).generate(28)
        pool = [(q, 0.1 * (i % 7)) for i, q in enumerate(queries)]
        return engines, pool

    @staticmethod
    def object_bytes(estimates):
        return json.dumps([estimate_to_wire(e) for e in estimates])

    @staticmethod
    def post(app, route, query, threshold):
        body = {"query": query_to_wire(query), "threshold": threshold}
        response = app.handle(
            "POST", route, {}, json.dumps(body).encode("utf-8")
        )
        assert response.status == 200
        return json.dumps(response.payload["estimates"])

    def test_estimate_and_search_bodies_equal_the_object_encoding(self, fleet):
        engines, pool = fleet
        broker, oracle = MetasearchBroker(), ScalarOracle()
        for engine in engines:
            broker.register(engine)
            oracle.register(engine)
        servers, shards = [], []
        for index, names in enumerate((engines[0::2], engines[1::2])):
            shard = MetasearchBroker()
            for engine in names:
                shard.register(engine)
            servers.append(ServingServer(ShardApp(shard, shard_index=index)))
            servers[-1].start_background()
        sharded = ShardedFleet([s.url for s in servers]).attach()
        apps = (GatewayApp(broker), CoordinatorApp(sharded))
        try:
            for query, threshold in pool:
                want = self.object_bytes(oracle.estimate_all(query, threshold))
                for app in apps:
                    assert self.post(app, "/estimate", query, threshold) == want
                    assert self.post(app, "/search", query, threshold) == want
        finally:
            sharded.close()
            for server in servers:
                server.drain(timeout=5)
