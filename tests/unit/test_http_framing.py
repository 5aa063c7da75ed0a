"""The client's response framing and the per-process version lookup.

``_HTTPJsonClient`` frames its requests and reads its responses on the
socket.  Whatever a peer answers, a call ends in a value, a
``RemoteServingError`` or a ``RemoteTimeout`` — never a hang, never an
unbounded read — and a request leaves in one ``sendall``.  The served
version is looked up once per process, not once per response.
"""

import io
import socket
import sys
import threading
import time
import types
from importlib import metadata

import pytest

from repro.serving import Deadline, RemoteServingError, RemoteTimeout, deadline_scope
from repro.serving.http import (
    MAX_HEADERS,
    MAX_LINE,
    Response,
    ServingApp,
    ServingServer,
    _AppRequestHandler,
)
from repro.serving.remote_engine import _HTTPJsonClient
from repro.version import package_version

OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"


def fetch_raw(client):
    """One round trip whose decoder takes any body: only framing fails."""
    return client.request_raw("GET", "/healthz", lambda raw, headers: raw)


class ScriptedServer:
    """A loopback listener that answers every request it reads with
    ``answer`` (or, given a list, the n-th request with its n-th item, the
    last one from then on), then closes the connection (``close``) or
    waits for the next request on it."""

    def __init__(self, answer: bytes, close: bool = False):
        self.answer = answer
        self.close_after = close
        self.accepted = 0
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        while True:
            try:
                conn, __ = self._listener.accept()
            except OSError:
                return
            self.accepted += 1
            threading.Thread(
                target=self._answer, args=(conn,), daemon=True
            ).start()

    def _answer(self, conn):
        with conn:
            pending = b""
            while True:
                while b"\r\n\r\n" not in pending:
                    try:
                        chunk = conn.recv(65536)
                    except OSError:
                        return
                    if not chunk:
                        return
                    pending += chunk
                head, __, pending = pending.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, __, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                while len(pending) < length:
                    pending += conn.recv(65536)
                self.requests.append(head + b"\r\n\r\n" + pending[:length])
                pending = pending[length:]
                answer = self.answer
                if isinstance(answer, list):
                    answer = answer[min(len(self.requests), len(answer)) - 1]
                conn.sendall(answer)
                if self.close_after:
                    return

    def stop(self):
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


@pytest.fixture
def scripted():
    servers, clients = [], []

    def start(answer, close: bool = False, timeout: float = 5.0):
        server = ScriptedServer(answer, close)
        servers.append(server)
        client = _HTTPJsonClient(server.url, timeout=timeout)
        clients.append(client)
        return server, client

    yield start
    for client in clients:
        client.close()
    for server in servers:
        server.stop()


LONG_LINE = b"X-Long: " + b"a" * MAX_LINE + b"\r\n"
MANY = b"".join(b"X-%d: v\r\n" % i for i in range(MAX_HEADERS))

# A peer that answers this and closes: a RemoteServingError, not a timeout.
UNFRAMEABLE = {
    "truncated-status-line": b"HTTP/1.1 200",
    "truncated-head": b"HTTP/1.1 200 OK\r\nContent-Le",
    "head-without-blank-line": b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n",
    "bad-status-line": b"HTTP/1.1 2000 OK\r\nContent-Length: 2\r\n\r\n{}",
    "not-http": b"SSH-2.0-OpenSSH\r\n\r\n",
    "missing-content-length": b"HTTP/1.1 200 OK\r\n\r\n{}",
    "negative-content-length": b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\n{}",
    "non-numeric-content-length": b"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\n{}",
    "signed-content-length": b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
    "non-ascii-digit-content-length":
        b"HTTP/1.1 200 OK\r\nContent-Length: \xb2\r\n\r\n{}",
    "huge-content-length": b"HTTP/1.1 200 OK\r\nContent-Length: "
        + b"9" * 5000 + b"\r\n\r\n{}",
    "duplicated-content-length":
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
    "short-body": b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
    "line-over-limit": b"HTTP/1.1 200 OK\r\n" + LONG_LINE + b"\r\n{}",
    "status-line-over-limit": b"HTTP/1.1 200 " + b"O" * MAX_LINE + b"\r\n\r\n",
    "too-many-headers": b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n" + MANY
        + b"\r\n{}",
    "obs-fold": b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n folded\r\n\r\n{}",
    "bare-lf": b"HTTP/1.1 200 OK\nContent-Length: 2\n\n{}",
    "bare-lf-status-line": b"HTTP/1.1 200 OK\nContent-Length: 2\r\n\r\n{}",
}


@pytest.mark.parametrize("case", sorted(UNFRAMEABLE))
def test_unframeable_answer_then_close_is_a_remote_serving_error(
    scripted, case
):
    server, client = scripted(UNFRAMEABLE[case], close=True)
    started = time.monotonic()
    with pytest.raises(RemoteServingError) as caught:
        fetch_raw(client)
    assert not isinstance(caught.value, RemoteTimeout)
    assert time.monotonic() - started < 4.0


@pytest.mark.parametrize("case", [
    "missing-content-length", "negative-content-length",
    "duplicated-content-length", "line-over-limit", "too-many-headers",
])
def test_unframeable_head_on_an_open_connection_fails_without_waiting(
    scripted, case
):
    """A head the client can refuse is refused at once: it does not wait
    for a close (or a body) that a kept-alive peer never sends."""
    server, client = scripted(UNFRAMEABLE[case], close=False, timeout=30.0)
    started = time.monotonic()
    with pytest.raises(RemoteServingError) as caught:
        fetch_raw(client)
    assert not isinstance(caught.value, RemoteTimeout)
    assert time.monotonic() - started < 4.0


@pytest.mark.parametrize("answer", [
    b"HTTP/1.1 200 OK\r\nContent-Le",  # a head that stops coming
    b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",  # a body that does
], ids=["stalled-head", "stalled-body"])
def test_a_peer_that_stops_sending_is_a_remote_timeout(scripted, answer):
    server, client = scripted(answer, close=False, timeout=0.3)
    started = time.monotonic()
    with pytest.raises(RemoteTimeout):
        fetch_raw(client)
    assert time.monotonic() - started < 4.0


@pytest.mark.parametrize("case", sorted(UNFRAMEABLE))
def test_a_request_whose_answer_started_is_sent_once(scripted, case):
    """``POST /delta`` and ``POST /dispatch`` are not idempotent: once a
    byte of an answer has arrived, a failure is a failure — the request
    is not sent a second time."""
    server, client = scripted(UNFRAMEABLE[case], close=True)
    with pytest.raises(RemoteServingError):
        client.request("POST", "/delta", {"kind": "delta"})
    assert len(server.requests) == 1
    assert server.accepted == 1


def test_an_unframeable_answer_on_a_reused_connection_is_not_resent(scripted):
    server, client = scripted([OK, UNFRAMEABLE["missing-content-length"]])
    assert client.request("POST", "/dispatch", {"entries": []}) == {}
    with pytest.raises(RemoteServingError):
        client.request("POST", "/dispatch", {"entries": []})
    assert len(server.requests) == 2
    assert server.accepted == 1


def test_the_read_is_bounded_by_a_deadline_entered_after_the_send(scripted):
    """The receive half sets the socket timeout to what is left of the
    budget, tightened by an ambient deadline entered after the request
    went out; the request itself carried the budget it was sent with."""
    server, client = scripted(b"HTTP/1.1 200 OK\r\nContent-Le", timeout=30.0)
    receive = client.start("GET", "/healthz")
    started = time.monotonic()
    with deadline_scope(Deadline(0.3)):
        with pytest.raises(RemoteTimeout):
            receive()
    assert time.monotonic() - started < 4.0
    assert client._idle == []
    [sent] = server.requests
    assert b"\r\nX-Repro-Deadline: 30.0\r\n" in sent


def test_the_pool_is_the_clients_not_a_threads(scripted):
    """A connection idled by one thread serves the next exchange of any
    thread; one still checked out is never shared."""
    server, client = scripted(OK)
    for __ in range(4):
        thread = threading.Thread(target=client.request, args=("GET", "/x"))
        thread.start()
        thread.join()
    assert server.accepted == 1
    first = client.start("GET", "/x")
    second = client.start("GET", "/x")
    assert first() == {} and second() == {}
    assert server.accepted == 2
    assert len(client._idle) == 2
    for __ in range(3):
        client.request("GET", "/x")
    assert server.accepted == 2


class Echoes(ServingApp):
    """Answers ``POST /echo`` with the JSON object it was sent."""

    def add_routes(self):
        self.route("POST", "/echo", lambda params, payload: Response(payload=payload))


def test_threads_sharing_one_client_each_get_their_own_answer():
    """More threads than cores share one client's pool, switching often:
    every exchange reads its own answer, and no connection is idle twice
    or lost (the pool ends with at most one connection per thread)."""
    server = ServingServer(Echoes())
    server.start_background()
    client = _HTTPJsonClient(server.url)
    wrong = []

    def work(thread):
        for i in range(40):
            payload = {"thread": thread, "i": i}
            answer = client.request("POST", "/echo", payload)
            if answer != payload:
                wrong.append((payload, answer))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        idle = list(client._idle)
    finally:
        sys.setswitchinterval(interval)
        client.close()
        server.drain(timeout=10)
    assert wrong == []
    assert 1 <= len(idle) == len({id(conn) for conn in idle}) <= len(threads)
    assert len(client._pooled) <= len(threads)


def test_connection_close_drops_the_pooled_connection(scripted):
    server, client = scripted(
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
        close=True,
    )
    assert client.request("GET", "/healthz") == {}
    assert client._idle == []
    assert client.request("GET", "/healthz") == {}
    assert server.accepted == 2


def test_http10_answer_is_not_kept_alive(scripted):
    server, client = scripted(
        b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}", close=True
    )
    assert client.request("GET", "/healthz") == {}
    assert client._idle == []


def test_kept_alive_connection_is_reused(scripted):
    server, client = scripted(OK)
    for __ in range(5):
        assert client.request("GET", "/healthz") == {}
    assert server.accepted == 1


def test_a_stale_kept_alive_connection_is_redialed_once(scripted):
    """The server closes after each answer without saying so: the next
    request finds the pooled connection dead and redials, transparently."""
    server, client = scripted(OK, close=True)
    for __ in range(3):
        assert client.request("GET", "/healthz") == {}
    assert server.accepted == 3


class RecordsSends:
    """Wraps a connected socket; every ``sendall`` is one recorded call."""

    def __init__(self, sock):
        self.sock = sock
        self.sends = []

    def sendall(self, data):
        self.sends.append(bytes(data))
        self.sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_one_request_is_one_sendall_on_a_nodelay_socket(scripted):
    server, client = scripted(OK)
    client.request("GET", "/healthz")  # dial
    [conn] = client._idle
    assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    conn.sock = recorder = RecordsSends(conn.sock)
    assert client.request("POST", "/search", {"query": "x" * 4000}) == {}
    [sent] = recorder.sends
    head, __, body = sent.partition(b"\r\n\r\n")
    assert head.startswith(b"POST /search HTTP/1.1\r\n")
    assert b"\r\nContent-Length: %d" % len(body) in head
    assert b"\r\nX-Repro-Deadline: " in head
    assert server.requests[-1] == sent


def test_request_raw_headers_are_case_insensitive(scripted):
    server, client = scripted(
        b"HTTP/1.1 200 OK\r\nx-repro-probe: 7\r\n"
        b"content-length: 3\r\n\r\nraw"
    )
    assert client.request_raw(
        "GET", "/metrics",
        lambda raw, headers: (
            raw, headers.get("X-Repro-Probe"), headers["X-REPRO-PROBE"],
        ),
    ) == (b"raw", "7", "7")


def test_non_2xx_answer_keeps_its_status_and_detail(scripted):
    body = b'{"error": "no such endpoint: /nope", "status": 404}'
    server, client = scripted(
        b"HTTP/1.1 404 Not Found\r\nContent-Length: %d\r\n\r\n" % len(body)
        + body
    )
    with pytest.raises(RemoteServingError, match="no such endpoint") as caught:
        client.request("GET", "/nope")
    assert caught.value.status == 404


# -- the served version is resolved once per process ---------------------------


class RecordingConnection:
    def __init__(self, incoming: bytes):
        self.incoming = io.BytesIO(incoming)
        self.writes = []

    def makefile(self, mode, buffering=None):
        return self.incoming

    def sendall(self, data):
        self.writes.append(bytes(data))

    def settimeout(self, timeout):
        pass


def test_the_version_is_resolved_once_across_many_responses(monkeypatch):
    calls = []
    real = metadata.version

    def counted(name):
        calls.append(name)
        return real(name)

    monkeypatch.setattr(metadata, "version", counted)
    package_version.cache_clear()
    try:
        connection = RecordingConnection(
            b"GET /healthz HTTP/1.1\r\n\r\n" * 40
            + b"GET /nope HTTP/1.1\r\n\r\n" * 10
        )
        _AppRequestHandler(
            connection, ("127.0.0.1", 0),
            types.SimpleNamespace(app=ServingApp()),
        )
        version = package_version()
    finally:
        package_version.cache_clear()
    assert calls == ["repro"]
    assert len(connection.writes) == 50
    for framed in connection.writes:
        assert b"\r\nServer: repro-serving/%s\r\n" % version.encode() in framed
        assert b"\r\nX-Repro-Version: %s\r\n" % version.encode() in framed
