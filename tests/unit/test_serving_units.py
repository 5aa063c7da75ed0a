"""Unit tests for the serving support pieces: deadlines and admission."""

import json
import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.serving import AdmissionQueue, Deadline, ambient_deadline, deadline_scope
from repro.serving.admission import ADMITTED, CLOSED, EXPIRED, SHED


class TestDeadline:
    def test_remaining_counts_down(self):
        deadline = Deadline(10.0)
        assert 9.0 < deadline.remaining() <= 10.0
        assert not deadline.expired

    def test_zero_budget_is_expired(self):
        assert Deadline(0.0).expired

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-0.1)

    def test_header_roundtrip(self):
        deadline = Deadline(5.0)
        # What the client writes: the remaining budget's repr.
        parsed = Deadline.parse_header(repr(deadline.remaining()))
        assert abs(parsed.remaining() - deadline.remaining()) < 0.1

    @pytest.mark.parametrize("bad", ["soon", "", "nan", "inf"])
    def test_bad_header_rejected(self, bad):
        with pytest.raises(ValueError):
            Deadline.parse_header(bad)


class TestDeadlineScope:
    def test_no_ambient_by_default(self):
        assert ambient_deadline() is None

    def test_scope_sets_and_clears(self):
        deadline = Deadline(10.0)
        with deadline_scope(deadline):
            assert ambient_deadline() is deadline
        assert ambient_deadline() is None

    def test_none_scope_is_noop(self):
        with deadline_scope(None):
            assert ambient_deadline() is None

    def test_tightest_scope_wins(self):
        loose, tight = Deadline(100.0), Deadline(1.0)
        with deadline_scope(loose):
            with deadline_scope(tight):
                assert ambient_deadline() is tight
            assert ambient_deadline() is loose

    def test_inner_scope_cannot_extend(self):
        tight, loose = Deadline(1.0), Deadline(100.0)
        with deadline_scope(tight):
            with deadline_scope(loose):
                assert ambient_deadline() is tight

    def test_thread_isolation(self):
        seen = []
        with deadline_scope(Deadline(10.0)):
            thread = threading.Thread(
                target=lambda: seen.append(ambient_deadline())
            )
            thread.start()
            thread.join()
        assert seen == [None]


class TestAdmissionQueue:
    def test_admit_under_capacity(self):
        queue = AdmissionQueue(max_active=2, max_queued=0)
        assert queue.acquire() == ADMITTED
        assert queue.acquire() == ADMITTED
        assert queue.active == 2

    def test_shed_beyond_queue(self):
        queue = AdmissionQueue(max_active=1, max_queued=0)
        assert queue.acquire() == ADMITTED
        assert queue.acquire(timeout=0.1) == SHED

    def test_release_admits_waiter(self):
        queue = AdmissionQueue(max_active=1, max_queued=1)
        assert queue.acquire() == ADMITTED
        outcomes = []
        waiter = threading.Thread(
            target=lambda: outcomes.append(queue.acquire(timeout=5.0))
        )
        waiter.start()
        deadline = time.monotonic() + 2.0
        while queue.queued == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        queue.release()
        waiter.join(timeout=5.0)
        assert outcomes == [ADMITTED]

    def test_queued_wait_expires(self):
        queue = AdmissionQueue(max_active=1, max_queued=1)
        assert queue.acquire() == ADMITTED
        started = time.monotonic()
        assert queue.acquire(timeout=0.05) == EXPIRED
        assert time.monotonic() - started < 2.0
        assert queue.queued == 0

    def test_closed_refuses_new_work(self):
        queue = AdmissionQueue(max_active=1, max_queued=1)
        queue.close()
        assert queue.acquire() == CLOSED

    def test_close_lets_active_finish(self):
        queue = AdmissionQueue(max_active=1, max_queued=0)
        assert queue.acquire() == ADMITTED
        queue.close()
        queue.release()  # no error: held slots stay valid through close
        assert queue.wait_idle(timeout=1.0)

    def test_wait_idle_times_out_while_busy(self):
        queue = AdmissionQueue(max_active=1, max_queued=0)
        assert queue.acquire() == ADMITTED
        assert not queue.wait_idle(timeout=0.05)
        queue.release()
        assert queue.wait_idle(timeout=1.0)

    def test_unbalanced_release_rejected(self):
        queue = AdmissionQueue(max_active=1, max_queued=0)
        with pytest.raises(RuntimeError):
            queue.release()

    def test_metrics_exported(self):
        registry = MetricsRegistry()
        queue = AdmissionQueue(max_active=1, max_queued=0, registry=registry)
        queue.acquire()
        queue.acquire(timeout=0.01)  # shed
        assert registry.value("serving.admission.admitted") == 1
        assert registry.value("serving.admission.shed") == 1
        assert registry.value("serving.admission.active") == 1

    @pytest.mark.parametrize("active,queued", [(0, 0), (1, -1)])
    def test_bad_limits_rejected(self, active, queued):
        with pytest.raises(ValueError):
            AdmissionQueue(max_active=active, max_queued=queued)

    def test_contended_admission_never_exceeds_max_active(self):
        queue = AdmissionQueue(max_active=3, max_queued=32)
        peak = []
        lock = threading.Lock()
        current = [0]

        def worker():
            if queue.acquire(timeout=5.0) != ADMITTED:
                return
            with lock:
                current[0] += 1
                peak.append(current[0])
            time.sleep(0.002)
            with lock:
                current[0] -= 1
            queue.release()

        threads = [threading.Thread(target=worker) for __ in range(20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert max(peak) <= 3
        assert queue.wait_idle(timeout=1.0)


class TestRetryAfterHeader:
    """Shed responses advertise an *integral* Retry-After (RFC 9110
    delta-seconds), rounded up so clients never come back early."""

    @pytest.mark.parametrize(
        "hint,expected",
        [(1.2, "2"), (1.0, "1"), (0.2, "1"), (0.0, "1"), (4.0, "4"), (4.5, "5")],
    )
    def test_hint_rounds_up_to_whole_seconds(self, hint, expected):
        from repro.serving import HTTPError

        response = HTTPError(503, "shed", retry_after=hint).to_response()
        assert response.headers["Retry-After"] == expected

    def test_header_absent_without_hint(self):
        from repro.serving import HTTPError

        response = HTTPError(503, "shed").to_response()
        assert "Retry-After" not in response.headers

    def test_gateway_shed_carries_configured_hint(self):
        """End to end through the app: a shed /search answers 503 with the
        ceil()ed Retry-After of the configured float hint."""
        import json

        from repro.corpus import Collection, Document
        from repro.engine import SearchEngine
        from repro.metasearch import MetasearchBroker
        from repro.serving import GatewayApp

        broker = MetasearchBroker()
        broker.register(
            SearchEngine(
                Collection.from_documents(
                    "db", [Document("d1", terms=["rocket"])]
                )
            )
        )
        app = GatewayApp(
            broker, max_active=1, max_queued=0, retry_after=2.5
        )
        app.admission.acquire()  # occupy the only active slot
        try:
            body = json.dumps(
                {
                    "query": {
                        "kind": "query",
                        "terms": ["rocket"],
                        "weights": [1.0],
                    },
                    "threshold": 0.1,
                }
            ).encode("utf-8")
            response = app.handle("POST", "/search", {}, body)
        finally:
            app.admission.release()
        assert response.status == 503
        assert response.headers["Retry-After"] == "3"


class TestExtremeQueryWeights:
    @pytest.mark.parametrize("weight", [1e200, 1e-170])
    def test_search_answer_is_scale_invariant(self, weight):
        """Cosine ignores the query's scale: a weight whose square leaves
        the double range selects and returns exactly what weight 1.0 does."""
        import json

        from repro.corpus import Collection, Document
        from repro.engine import SearchEngine
        from repro.metasearch import MetasearchBroker
        from repro.serving import GatewayApp

        broker = MetasearchBroker()
        broker.register(SearchEngine(Collection.from_documents("db", [
            Document("d1", terms=["rocket", "engine"]),
            Document("d2", terms=["rocket"]),
        ])))
        broker.register(SearchEngine(Collection.from_documents(
            "other", [Document("e1", terms=["orbit"])]
        )))
        app = GatewayApp(broker)

        def search(w):
            body = json.dumps({
                "query": {"kind": "query", "terms": ["rocket"], "weights": [w]},
                "threshold": 0.1,
            }).encode("utf-8")
            response = app.handle("POST", "/search", {}, body)
            assert response.status == 200
            return {key: response.payload[key]
                    for key in ("hits", "invoked", "estimates")}

        want = search(1.0)
        assert want["invoked"] == ["db"] and want["hits"]
        assert search(weight) == want


class TestConnectionPoolForkSafety:
    """The per-client pool is keyed on pid: a pool inherited across
    fork() is closed and redialed, never written to."""

    def make_client(self):
        from repro.serving.remote_engine import _HTTPJsonClient

        return _HTTPJsonClient("http://127.0.0.1:9", timeout=1.0)

    class FakeConnection:
        sock = None

        def __init__(self):
            self.closed = False

        def close(self):
            self.closed = True

    class FakeSocket:
        """Records every socket timeout set on it; answers nothing."""

        def __init__(self):
            self.timeouts = []

        def settimeout(self, timeout):
            self.timeouts.append(timeout)

        def sendall(self, data):
            pass

        def close(self):
            pass

    def test_same_pid_reuses_pooled_connection(self):
        import io

        client = self.make_client()
        conn = client._checkout()
        conn.sock = sock = self.FakeSocket()
        conn._rfile = io.BufferedReader(
            io.BytesIO(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
        )
        client._checkin(conn)
        client.timeout = 0.5
        assert client.request("GET", "/healthz") == {}
        assert client._checkout() is conn
        # budget refreshed on reuse: the send and the read both ran under
        # the new one
        assert len(sock.timeouts) == 2
        assert all(0 < timeout <= 0.5 for timeout in sock.timeouts)

    def test_pid_change_closes_and_redials(self):
        import os

        client = self.make_client()
        stale = self.FakeConnection()
        client._idle.append(stale)
        client._pid = os.getpid() + 1  # as if inherited across fork()
        fresh = client._checkout()
        assert stale.closed, "inherited connection must be closed, not reused"
        assert fresh is not stale
        assert client._pid == os.getpid()

    def test_a_checked_out_connection_is_not_shared(self):
        import threading

        client = self.make_client()
        here = client._checkout()
        seen = []
        thread = threading.Thread(target=lambda: seen.append(client._checkout()))
        thread.start()
        thread.join()
        assert seen[0] is not here


class TestClientCloseUnderARead:
    """``close()`` promises every pooled connection, checked out too: a
    read in flight on another thread must not hold it for the client's
    whole budget."""

    def test_close_returns_while_a_read_is_in_flight(self):
        import socket
        import threading
        import time

        from repro.serving.remote_engine import _HTTPJsonClient

        listener = socket.create_server(("127.0.0.1", 0))
        client = _HTTPJsonClient(
            f"http://127.0.0.1:{listener.getsockname()[1]}", timeout=10.0
        )
        failures = []

        def ask():
            try:
                client.request("GET", "/healthz")
            except Exception as exc:  # what the closed read raises
                failures.append(exc)

        reader = threading.Thread(target=ask)
        reader.start()
        peer, __ = listener.accept()
        try:
            assert peer.recv(65536).startswith(b"GET /healthz")
            time.sleep(0.1)  # the client is now blocked reading the reply
            started = time.monotonic()
            client.close()
            assert time.monotonic() - started < 2.0
            reader.join(timeout=2.0)
            assert not reader.is_alive()
            assert len(failures) == 1
        finally:
            peer.close()
            listener.close()


class TestRemoteTimeoutFailFast:
    """An exhausted deadline raises before any bytes hit the wire, and the
    dispatcher records it as a non-retried timeout."""

    def test_exhausted_ambient_deadline_raises_without_io(self):
        from repro.serving import RemoteTimeout
        from repro.serving.remote_engine import _HTTPJsonClient

        # Port 9 (discard) would hang or refuse; the fail-fast path must
        # raise before ever dialing it.
        client = _HTTPJsonClient("http://127.0.0.1:9", timeout=10.0)
        with deadline_scope(Deadline(0.0)):
            with pytest.raises(RemoteTimeout, match="deadline exhausted"):
                client.request("GET", "/healthz")

    def test_remote_timeout_is_non_retryable_timeout_kind(self):
        from repro.serving import RemoteTimeout

        assert RemoteTimeout.retryable is False
        assert RemoteTimeout.failure_kind == "timeout"

    def test_dispatcher_records_timeout_without_retrying(self):
        from repro.metasearch import ConcurrentDispatcher
        from repro.serving import RemoteTimeout

        registry = MetricsRegistry()
        dispatcher = ConcurrentDispatcher(retries=3, registry=registry)
        attempts = []

        def call():
            attempts.append(1)
            raise RemoteTimeout("deadline exhausted before calling x")

        report = dispatcher.dispatch({"remote": call})
        assert len(attempts) == 1, "a spent budget must not be retried"
        assert report.failures[0].kind == "timeout"
        assert registry.value("dispatch.timeouts") == 1
        assert registry.value("dispatch.retries") in (None, 0)


class TestShardDispatchRoute:
    """``/dispatch`` is the broker's reports step behind validation."""

    @pytest.fixture
    def shard_app(self):
        from repro.corpus import Collection, Document
        from repro.engine import SearchEngine
        from repro.metasearch import MetasearchBroker
        from repro.serving import ShardApp

        broker = MetasearchBroker()
        for name in ("e0", "e1"):
            broker.register(
                SearchEngine(
                    Collection.from_documents(
                        name, [Document(f"{name}-d", terms=["rocket"])]
                    )
                )
            )
        return ShardApp(broker, shard_index=1)

    def dispatch(self, app, engines):
        import json

        entry = {
            "query": {"kind": "query", "terms": ["rocket"], "weights": [1.0]},
            "threshold": 0.1,
            "engines": engines,
        }
        body = json.dumps({"entries": [entry]}).encode("utf-8")
        return app.handle("POST", "/dispatch", {}, body)

    def test_engine_of_another_shard_is_400_before_any_call(self, shard_app):
        response = self.dispatch(shard_app, ["e0", "e7"])
        assert response.status == 400
        assert response.payload["error"] == "engine 'e7' is not on shard 1"
        assert shard_app.registry.value("dispatch.attempts") in (None, 0)

    def test_duplicate_engine_name_answers_once(self, shard_app):
        response = self.dispatch(shard_app, ["e1", "e0", "e1"])
        assert response.status == 200
        (report,) = response.payload["reports"]
        assert list(report["results"]) == list(report["latencies"]) == ["e1", "e0"]
        assert report["results"]["e1"] == [[1.0, "e1-d", "e1"]]
        assert report["failures"] == []


class RaisesOn:
    """An engine whose search raises for one query term, and answers the
    wrapped engine's hits otherwise."""

    def __init__(self, engine, term):
        self.engine = engine
        self.name = engine.name
        self.n_documents = engine.n_documents
        self.term = term

    def search(self, query, threshold):
        if self.term in query.terms:
            raise RuntimeError(f"{self.term} breaks {self.name}")
        return self.engine.search(query, threshold)


class TestEngineDispatchRoute:
    """An engine server answers ``/dispatch`` from the shard's route code:
    the same entries, reply kind, 400 and per-entry failure isolation."""

    @pytest.fixture
    def engine_app(self):
        from repro.corpus import Collection, Document
        from repro.engine import SearchEngine
        from repro.serving import EngineApp

        engine = SearchEngine(Collection.from_documents(
            "e0", [Document("e0-d", terms=["rocket"])]
        ))
        return EngineApp(RaisesOn(engine, "orbit"))

    def dispatch(self, app, entries):
        import json

        body = json.dumps({"entries": [
            {
                "query": {"kind": "query", "terms": terms, "weights": [1.0]},
                "threshold": 0.1,
                "engines": engines,
            }
            for terms, engines in entries
        ]}).encode("utf-8")
        return app.handle("POST", "/dispatch", {}, body)

    def test_a_batch_is_one_report_per_entry(self, engine_app):
        response = self.dispatch(
            engine_app, [(["rocket"], ["e0"]), (["kiwi"], ["e0"])]
        )
        assert response.status == 200
        assert response.payload["kind"] == "dispatches"
        rocket, kiwi = response.payload["reports"]
        assert rocket["results"] == {"e0": [[1.0, "e0-d", "e0"]]}
        assert kiwi["results"] == {"e0": []}
        assert rocket["failures"] == kiwi["failures"] == []
        assert engine_app.registry.value("serving.engine.searches") == 2

    def test_a_batch_past_the_shard_limit_is_served(self, engine_app):
        """A broker's round past 256 queries (a wide coalescing window)
        reaches an engine server as one ``/dispatch``; only its request
        body cap bounds the batch."""
        response = self.dispatch(engine_app, [(["rocket"], ["e0"])] * 300)
        assert response.status == 200
        assert len(response.payload["reports"]) == 300

    def test_another_engine_is_400_before_any_call(self, engine_app):
        response = self.dispatch(engine_app, [(["rocket"], ["e0", "e7"])])
        assert response.status == 400
        assert response.payload["error"] == (
            "engine 'e7' is not on engine server 'e0'"
        )
        assert engine_app.registry.value("dispatch.attempts") in (None, 0)

    def test_a_failing_search_fails_its_entry_only(self, engine_app):
        response = self.dispatch(
            engine_app, [(["orbit"], ["e0"]), (["rocket"], ["e0"])]
        )
        assert response.status == 200
        orbit, rocket = response.payload["reports"]
        assert orbit["results"] == {}
        [failure] = orbit["failures"]
        assert (failure["engine"], failure["failure_kind"]) == ("e0", "error")
        assert "orbit breaks e0" in failure["message"]
        assert rocket["results"] == {"e0": [[1.0, "e0-d", "e0"]]}
        assert rocket["failures"] == []

    def test_the_search_route_is_gone(self, engine_app):
        response = engine_app.handle("POST", "/search", {}, b"{}")
        assert response.status == 404


class TestQueryLengthBound:
    """Every route that decodes a query answers one longer than
    ``MAX_QUERY_TERMS`` with 400, before any expansion or engine call."""

    TERMS = [f"t{i}" for i in range(8)]

    @pytest.fixture(scope="class")
    def apps(self):
        from repro.corpus import Collection, Document
        from repro.engine import SearchEngine
        from repro.metasearch import MetasearchBroker
        from repro.serving import (
            CoordinatorApp,
            EngineApp,
            GatewayApp,
            ServingServer,
            ShardApp,
            ShardedFleet,
        )

        engine = SearchEngine(Collection.from_documents(
            "db", [Document("d1", terms=self.TERMS)]
        ))
        broker = MetasearchBroker()
        broker.register(engine)
        shard = ShardApp(broker, shard_index=0)
        server = ServingServer(shard)
        server.start_background()
        fleet = ShardedFleet([server.url], shard_timeout=None).attach()
        try:
            yield {
                "engine": EngineApp(engine),
                "gateway": GatewayApp(broker),
                "shard": shard,
                "coordinator": CoordinatorApp(fleet),
            }
        finally:
            fleet.close()
            server.drain(timeout=5)

    @staticmethod
    def body(path, n_terms):
        import json

        query = {
            "kind": "query",
            "terms": TestQueryLengthBound.TERMS[:n_terms],
            "weights": [1.0] * n_terms,
        }
        if path == "/dispatch":
            payload = {"entries": [
                {"query": query, "threshold": 0.1, "engines": ["db"]}
            ]}
        elif path in ("/batch", "/shard-estimate"):
            payload = {"queries": [query], "thresholds": 0.1}
        else:
            payload = {"query": query, "threshold": 0.1}
        return json.dumps(payload).encode("utf-8")

    @pytest.mark.parametrize("role, path", [
        ("engine", "/dispatch"),
        ("engine", "/max_similarity"),
        ("gateway", "/estimate"),
        ("gateway", "/search"),
        ("gateway", "/batch"),
        ("coordinator", "/estimate"),
        ("coordinator", "/search"),
        ("coordinator", "/batch"),
        ("shard", "/shard-estimate"),
        ("shard", "/dispatch"),
    ])
    def test_eight_terms_are_400_and_six_are_served(self, apps, role, path):
        route = "/estimate" if path == "/shard-estimate" else path
        app = apps[role]
        response = app.handle("POST", route, {}, self.body(path, 8))
        assert response.status == 400
        assert "query has 8 terms; at most 6" in response.payload["error"]
        response = app.handle("POST", route, {}, self.body(path, 6))
        assert response.status == 200


DEAD_URL = "http://127.0.0.1:9"  # never dialed: _send is patched


def answering(body, reply=None):
    """A stand-in for ``_HTTPJsonClient._send``: nothing is sent, and the
    receive half, on a connection never dialed, answers ``(body, reply)``
    at once."""
    from repro.serving.remote_engine import _Connection, _Pending

    def send(self, method, path, payload):
        return _Pending(_Connection(self.host, self.port), None, lambda: (body, reply))

    return send


def owning_fleet(name):
    """A ``ShardedFleet`` over one shard at :data:`DEAD_URL`, attached by
    hand: it holds ``name``'s (empty) representative, owned by that
    shard."""
    from repro.representatives import DatabaseRepresentative
    from repro.serving import ShardedFleet
    from repro.serving.remote_engine import HostedEngine

    fleet = ShardedFleet([DEAD_URL])
    shard = fleet._shards[0]
    shard.engines = [name]
    fleet.local.register(
        HostedEngine(name, shard), DatabaseRepresentative(name, 3, {})
    )
    return fleet


def client_calls():
    """One call per client decoder, by name."""
    from repro.corpus import Query
    from repro.serving import GatewayClient, RemoteEngine

    query = Query.from_terms(["rocket"])
    engine = RemoteEngine(DEAD_URL, name="e")
    gateway = GatewayClient(DEAD_URL)
    shard = owning_fleet("e")._shards[0]
    return {
        "engine.name": lambda: RemoteEngine(DEAD_URL).name,
        "engine.dispatch": lambda: engine.host.dispatch([(query, 0.1, ["e"])])(),
        "engine.max_similarity": lambda: engine.max_similarity(query),
        "engine.probe": lambda: engine.host.probe(),
        "engine.sync": lambda: engine.sync_representative(since=3),
        "gateway.estimate": lambda: gateway.estimate(query, 0.1),
        "gateway.search": lambda: gateway.search(query, 0.1),
        "gateway.search_batch": lambda: gateway.search_batch([query], 0.1),
        "fleet.representative": lambda: shard.representative("e"),
        "fleet.dispatch": lambda: shard.dispatch([(query, 0.1, ["e"])])(),
        "fleet.probe": lambda: shard.probe(),
    }


class TestClientsRejectMalformedAnswers:
    """Every client decoder runs behind ``_HTTPJsonClient._decoded``: a 2xx
    answer of the wrong shape is a ``RemoteServingError`` — which the
    dispatcher degrades on — never a bare TypeError/AttributeError/KeyError."""

    @pytest.mark.parametrize("answer", ["[]", "{}", '{"kind": "nope"}', "7"])
    @pytest.mark.parametrize("call", sorted(client_calls()))
    def test_wrong_shape_raises_remote_serving_error(
        self, monkeypatch, call, answer
    ):
        from repro.serving import RemoteServingError
        from repro.serving.remote_engine import _HTTPJsonClient

        monkeypatch.setattr(_HTTPJsonClient, "_send", answering(answer.encode()))
        with pytest.raises(RemoteServingError):
            client_calls()[call]()

    def test_a_full_delta_from_documents_raises_remote_serving_error(
        self, monkeypatch
    ):
        """A delta from version 0 starts from the empty representative: one
        claiming a base of documents is a malformed answer."""
        from repro.fleet import RepresentativeDelta
        from repro.serving import RemoteEngine, RemoteServingError
        from repro.serving.remote_engine import _HTTPJsonClient

        payload = RepresentativeDelta("e", 0, 2, 3, 3, ()).to_json_dict()
        body = json.dumps(payload).encode()
        monkeypatch.setattr(_HTTPJsonClient, "_send", answering(body))
        with pytest.raises(RemoteServingError, match="from_n_documents must be 0"):
            RemoteEngine(DEAD_URL, name="e").sync_representative()

    def test_non_object_healthz_never_attaches(self, monkeypatch):
        from repro.serving import RemoteEngine, RemoteServingError, ShardedFleet
        from repro.serving.remote_engine import _HTTPJsonClient

        monkeypatch.setattr(_HTTPJsonClient, "_send", answering(b"[]"))
        with pytest.raises(RemoteServingError, match="not ready"):
            ShardedFleet([DEAD_URL]).attach(timeout=0.05, interval=0.01)
        with pytest.raises(RemoteServingError):
            RemoteEngine(DEAD_URL).name

    def test_malformed_shard_answer_degrades_the_engines_not_the_query(
        self, monkeypatch
    ):
        from repro.corpus import Query
        from repro.serving.remote_engine import _HTTPJsonClient

        monkeypatch.setattr(_HTTPJsonClient, "_send", answering(b"[]"))
        fleet = owning_fleet("e")
        [report] = fleet.reports([Query.from_terms(["rocket"])], [0.1], [["e"]])
        assert report.results == {}
        assert [f.engine for f in report.failures] == ["e"]
        assert "malformed answer" in report.failures[0].message
