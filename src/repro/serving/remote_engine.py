"""HTTP clients for the serving layer.

An :class:`EngineHost` is the client half of an engine host (an engine
server, or a shard worker for its slice): the broker's dispatch step
sends it one ``POST /dispatch`` per round for all the invoked engines it
serves, its engines' ``sync_representative`` is one ``GET
/representative`` (:meth:`EngineHost.representative`), and it keeps the
last version report its ``/dispatch`` or ``/healthz`` replies carried,
which the broker's catch-up step reads.  :class:`RemoteEngine` is an
engine server's engine, on a host of one, so the whole broker stack runs
unchanged over remote engines.  A transport or server error raises
:class:`RemoteServingError` (a ``ConnectionError``), which the dispatcher
retries and records as kind ``"error"``; a spent budget raises
:class:`RemoteTimeout` (non-retryable, kind ``"timeout"``).

Every request's budget is the tightest of the client's ``timeout`` and
the ambient :func:`~repro.metasearch.deadlines.ambient_deadline`; it
travels downstream in ``X-Repro-Deadline`` and doubles as the socket
timeout.  Every exchange has two halves: :meth:`_HTTPJsonClient.start`
writes the request and returns the receive half, which a caller waiting
on several servers reads as its reply arrives (it carries its socket's
``fileno()`` and what is left of its budget).

Connections are pooled per client, most recently idled first, and keyed
on the pid (a forked child closes the inherited ones).  A request is sent
again, on a fresh connection, only when the reused connection gave no
byte of a reply.  Framing is done here, on the socket: a request leaves
in one ``sendall`` on a ``TCP_NODELAY`` socket, heads are read by
:func:`repro.serving.http.read_headers` under the server's own limits,
and a response that cannot be framed is a :class:`RemoteServingError`.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import threading
import time
import weakref
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)
from urllib.parse import quote, urlsplit

from repro.corpus.query import Query
from repro.fleet.delta import RepresentativeDelta
from repro.metasearch.broker import MetasearchResponse
from repro.metasearch.deadlines import DEADLINE_HEADER, ambient_deadline
from repro.metasearch.dispatch import DispatchReport, SplitCall
from repro.metasearch.selection import EstimateRow
from repro.serving.http import MAX_LINE, HeaderBlockError, Headers, read_headers
from repro.serving.wire import (
    WireFormatError,
    _expect_kind,
    decode_hits,
    estimate_row_from_wire,
    failure_from_wire,
    query_to_wire,
    response_from_wire,
    versions_from_wire,
)

__all__ = [
    "EngineHost",
    "GatewayClient",
    "HostedEngine",
    "RemoteEngine",
    "RemoteServingError",
    "RemoteTimeout",
]


class RemoteServingError(ConnectionError):
    """A remote call failed (transport error or non-2xx response).

    Subclasses ``ConnectionError`` so the broker's dispatcher treats it
    like any other engine fault: retry per policy, then degrade.
    """

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class RemoteTimeout(RemoteServingError):
    """A remote call ran out of time — socket timeout, or the ambient
    deadline was already spent before the request could even be sent.
    The class attributes are the dispatcher's duck-typed failure
    contract: a request whose budget is gone is not re-issued, and its
    failure is recorded as a timeout."""

    retryable = False
    failure_kind = "timeout"


#: Largest single read of a response body: a declared length is read in
#: pieces of at most this many bytes, so a hostile ``Content-Length`` never
#: sizes a buffer by itself.
_READ_CHUNK = 1 << 20


class _Reply(NamedTuple):
    """One framed response."""

    status: int
    headers: Headers
    body: bytes
    keep_alive: bool


class _NoReply(ConnectionError):
    """The peer closed or reset the connection before the first byte of a
    response: the one failure after which re-sending cannot repeat work."""


class _Connection:
    """One HTTP/1.1 connection to ``host:port``, dialed on first use and
    kept alive between exchanges; one exchange at a time.

    Raises ``OSError`` for transport failures (``socket.timeout`` when
    the timeout fires), :class:`HeaderBlockError` for a response that
    cannot be framed, and ``ValueError`` when :meth:`close`, from another
    thread, closed the stream under the read.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.sock: Optional[socket.socket] = None
        self._rfile = None

    def send(self, request: bytes, timeout: Optional[float]) -> None:
        """Write ``request`` (head and body) in one ``sendall``."""
        sock = self.sock
        if sock is None:
            sock = socket.create_connection((self.host, self.port), timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock, self._rfile = sock, sock.makefile("rb")
        else:
            sock.settimeout(timeout)
        sock.sendall(request)

    def receive(self, timeout: Optional[float]) -> _Reply:
        sock, rfile = self.sock, self._rfile
        if sock is None:
            raise ValueError("connection closed before its reply was read")
        sock.settimeout(timeout)
        return _read_reply(rfile)

    def close(self) -> None:
        rfile, sock = self._rfile, self.sock
        self._rfile = self.sock = None
        if sock is not None:
            # Wakes a read in flight on another thread at once: the
            # reader's close below waits for that read to give up its lock.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if rfile is not None:
            rfile.close()
        if sock is not None:
            sock.close()


class _Pending:
    """The receive half of one exchange, the request already sent.
    Calling it reads, checks and answers the reply (once: reading it is
    what frees the connection).  For a caller waiting on several replies
    at once it is also a waitable: :meth:`fileno` is the socket the reply
    arrives on, :meth:`remaining` the seconds left of the exchange's
    budget, and :meth:`close` gives the reply up, closing the connection
    (a reply read later would desynchronize it)."""

    __slots__ = ("conn", "expires_at", "finish")

    def __init__(
        self, conn: _Connection, expires_at: Optional[float],
        finish: Callable[[], object],
    ):
        self.conn = conn
        self.expires_at = expires_at
        self.finish = finish

    def __call__(self):
        return self.finish()

    def fileno(self) -> int:
        sock = self.conn.sock
        return -1 if sock is None else sock.fileno()

    def remaining(self) -> Optional[float]:
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    def close(self) -> None:
        self.conn.close()


def _read_reply(rfile) -> _Reply:
    try:
        arrived = rfile.peek(1)
    except ConnectionError as exc:  # a reset, not a timeout
        raise _NoReply(f"connection reset before a status line: {exc}") from exc
    if not arrived:  # what a stale kept-alive connection answers
        raise _NoReply("connection closed before a status line")
    line = rfile.readline(MAX_LINE + 1)
    parts = line.split(None, 2)
    if (
        len(line) > MAX_LINE
        or not line.endswith(b"\r\n")
        or len(parts) < 2
        or not parts[0].startswith(b"HTTP/")
        or len(parts[1]) != 3
        or not parts[1].isdigit()
    ):
        raise HeaderBlockError(400, "Bad status line (%r)" % line[:64])
    headers = read_headers(rfile, eof_ends_block=False)
    declared = headers.get("content-length")
    if declared is None or not (declared.isascii() and declared.isdigit()):
        raise HeaderBlockError(400, f"No valid Content-Length ({declared!r})")
    length = int(declared)
    chunks, received = [], 0
    while received < length:
        chunk = rfile.read(min(length - received, _READ_CHUNK))
        if not chunk:
            raise HeaderBlockError(
                400, f"Body cut short at {received} of {length} bytes"
            )
        chunks.append(chunk)
        received += len(chunk)
    keep_alive = (
        parts[0] == b"HTTP/1.1"
        and headers.get("connection", "").lower() != "close"
    )
    return _Reply(int(parts[1]), headers, b"".join(chunks), keep_alive)


class _HTTPJsonClient:
    """Pooled JSON-over-HTTP with deadline propagation, in two halves:
    :meth:`start` sends, the call it returns reads the reply."""

    def __init__(self, base_url: str, timeout: Optional[float] = 10.0):
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(
                f"base_url must be http://host:port, got {base_url!r}"
            )
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        self.base_url = base_url.rstrip("/")
        self.host = split.hostname
        self.port = split.port or 80
        self._host_header = split.netloc
        self.timeout = timeout
        self._pid = os.getpid()
        self._lock = threading.Lock()
        # Kept-alive connections no exchange holds, most recently used last.
        self._idle: List[_Connection] = []
        # Every connection, idle or checked out, for close(); weak, so one
        # goes (and its socket closes) when nothing holds it any more.
        self._pooled: "weakref.WeakSet[_Connection]" = weakref.WeakSet()

    # -- connection pool -----------------------------------------------------

    def _checkout(self) -> _Connection:
        """The most recently idled connection, or a new (undialed) one."""
        if self._pid != os.getpid():
            self._forget_inherited()
        with self._lock:
            if self._idle:
                return self._idle.pop()
            conn = _Connection(self.host, self.port)
            self._pooled.add(conn)
        return conn

    def _checkin(self, conn: _Connection) -> None:
        with self._lock:
            self._idle.append(conn)

    def _forget_inherited(self) -> None:
        # Fork safety: a forked child inherits the pool, and writing on an
        # inherited socket would interleave two processes' requests on one
        # connection.  Close this process's copies (the parent's stay
        # open) and start again from an empty pool, with a fresh lock: the
        # old one may have been held by a thread that did not survive.
        inherited = [*self._idle, *self._pooled]
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._idle = []
        self._pooled = weakref.WeakSet()
        for conn in inherited:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def close(self) -> None:
        """Close every pooled connection, idle or checked out.  The client
        stays usable: the next request dials (and is pooled) again."""
        with self._lock:
            pooled = list(self._pooled)
            self._idle.clear()
        for conn in pooled:
            conn.close()

    # -- request execution ---------------------------------------------------

    def _budget(self) -> Optional[float]:
        """Tightest of the configured timeout and the ambient deadline.

        A budget that has clamped to zero fails fast with a
        non-retryable :class:`RemoteTimeout` — sending the request anyway
        would propagate ``X-Repro-Deadline: 0`` and make the downstream
        engine do work it can never return in time.
        """
        budget = self.timeout
        ambient = ambient_deadline()
        if ambient is not None:
            remaining = ambient.remaining()
            budget = remaining if budget is None else min(budget, remaining)
        if budget is not None and budget <= 0:
            raise RemoteTimeout(
                f"deadline exhausted before calling {self.base_url}"
            )
        return budget

    def start(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        decode: Optional[Callable] = None,
    ) -> _Pending:
        """Send one JSON request now; returns its receive half, whose call
        reads the reply and returns its body, run through ``decode`` when
        given (see :meth:`_decoded`)."""
        receive = self._send(method, path, payload)
        return _Pending(
            receive.conn, receive.expires_at,
            functools.partial(self._answer, receive, path, decode),
        )

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        decode: Optional[Callable] = None,
    ):
        """One JSON round trip: :meth:`start`, then its reply."""
        return self.start(method, path, payload, decode)()

    def request_raw(self, method: str, path: str, decode: Callable):
        """One round trip for a binary body; returns ``decode(bytes,
        headers)``, the headers a case-insensitive mapping."""
        raw, reply = self._send(method, path, None)()
        return self._decoded(path, decode, raw, reply.headers)

    def _answer(self, receive: Callable, path: str, decode: Optional[Callable]):
        raw, __ = receive()
        try:
            answer = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RemoteServingError(
                f"{self.base_url}{path} returned invalid JSON: {exc}"
            ) from exc
        return answer if decode is None else self._decoded(path, decode, answer)

    def _decoded(self, path: str, decode: Callable, *answer):
        """``decode(*answer)`` — the one place a 2xx answer of the wrong
        shape (non-object body, missing field, wrong type, wrong ``kind``)
        becomes a :class:`RemoteServingError`, which callers — the
        dispatcher above all — handle like any other remote fault."""
        try:
            return decode(*answer)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise RemoteServingError(
                f"{self.base_url}{path} returned a malformed answer: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def _request_bytes(
        self, method: str, path: str, payload: Optional[dict],
        budget: Optional[float],
    ) -> bytes:
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self._host_header}",
            "Accept: application/json",
        ]
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(body)}")
        if budget is not None:
            lines.append(f"{DEADLINE_HEADER}: {budget!r}")
        lines.append("\r\n")
        return "\r\n".join(lines).encode("iso-8859-1") + body

    @staticmethod
    def _remaining(expires_at: Optional[float]) -> Optional[float]:
        """Socket timeout for the next step of an exchange: what is left
        of the budget fixed at send time, tightened by any ambient
        deadline entered since (the dispatcher bounds a read that way).
        A spent budget is a ``socket.timeout`` before any I/O."""
        remaining = None
        if expires_at is not None:
            remaining = expires_at - time.monotonic()
        ambient = ambient_deadline()
        if ambient is not None:
            left = ambient.remaining()
            remaining = left if remaining is None else min(remaining, left)
        if remaining is not None and remaining <= 0:
            raise socket.timeout("budget spent before the reply was read")
        return remaining

    def _failure(self, exc: Exception, path: str) -> RemoteServingError:
        if isinstance(exc, socket.timeout):
            return RemoteTimeout(f"timed out calling {self.base_url}{path}")
        return RemoteServingError(f"cannot reach {self.base_url}{path}: {exc}")

    def _send(self, method: str, path: str, payload: Optional[dict]) -> _Pending:
        """The send half: write the request on a checked-out connection;
        returns the receive half, which reads and checks the reply and
        answers ``(body, reply)``.

        A request is sent again, once, only when it cannot have been
        served: the connection was reused (a kept-alive connection the
        server may have closed since) and no byte of a reply arrived.
        """
        budget = self._budget()
        request = self._request_bytes(method, path, payload, budget)
        expires_at = None if budget is None else time.monotonic() + budget
        conn = self._checkout()
        reused = conn.sock is not None
        try:
            try:
                conn.send(request, budget)
            except (ValueError, OSError):
                if not reused:
                    raise
                conn.close()
                reused = False
                conn.send(request, self._remaining(expires_at))
        except (ValueError, OSError) as exc:
            conn.close()
            raise self._failure(exc, path) from exc
        return _Pending(conn, expires_at, functools.partial(
            self._receive, conn, request, reused, expires_at, path
        ))

    def _receive(
        self, conn: _Connection, request: bytes, reused: bool,
        expires_at: Optional[float], path: str,
    ) -> Tuple[bytes, _Reply]:
        try:
            try:
                reply = conn.receive(self._remaining(expires_at))
            except _NoReply:
                if not reused:
                    raise
                conn.close()
                conn.send(request, self._remaining(expires_at))
                reply = conn.receive(self._remaining(expires_at))
        except (ValueError, OSError) as exc:  # HeaderBlockError too
            conn.close()
            raise self._failure(exc, path) from exc
        if reply.keep_alive:
            self._checkin(conn)
        else:
            conn.close()
        if not 200 <= reply.status < 300:
            message = f"HTTP {reply.status}"
            try:
                detail = json.loads(reply.body.decode("utf-8")).get("error")
            except (AttributeError, ValueError, UnicodeDecodeError):
                detail = None
            if detail:
                message = f"{message}: {detail}"
            raise RemoteServingError(
                f"{self.base_url}{path} answered {message}",
                status=reply.status,
            )
        return reply.body, reply


class EngineHost:
    """The client half of an engine host: one server answering ``POST
    /dispatch``, ``GET /representative`` and ``GET /healthz`` for the
    engines it serves.  ``name`` keys its calls in the dispatcher and
    prefixes its failures' messages.

    ``versions`` is the host's last version report (engine name ->
    version), as its last well-formed ``/dispatch`` or ``/healthz`` reply
    gave it, with each engine's version of a later ``/representative``
    reply written over it (unless a report that arrived while that pull
    was in flight changed the engine's version); ``reported_at`` is the
    ``time.monotonic()`` of that ``/dispatch`` or ``/healthz`` reply
    (``-inf`` before the first).
    """

    def __init__(self, name: str, client: _HTTPJsonClient):
        self.name = name
        self.url = client.base_url
        self.client = client
        self.versions: Dict[str, int] = {}
        self.reported_at = float("-inf")
        self._reports = threading.Lock()

    def _report(self, versions: Dict[str, int]) -> None:
        with self._reports:
            self.versions, self.reported_at = versions, time.monotonic()

    def probe(self) -> dict:
        """``GET /healthz``: records its version report and returns the
        whole answer."""

        def decode(info):
            self._report(versions_from_wire(info))
            return info

        return self.client.request("GET", "/healthz", decode=decode)

    def representative(
        self, engine: str, since: Optional[int] = None
    ) -> RepresentativeDelta:
        """``engine``'s :class:`~repro.fleet.delta.RepresentativeDelta`
        from version ``since`` (``GET /representative?engine=&since=``):
        the full delta from version 0 when ``since`` is ``None`` or the
        host cannot build one from it.  The reply is the host's newest word
        on ``engine``, so its ``to_version`` goes into :attr:`versions`,
        unless a report that came in while the pull was in flight changed
        ``engine``'s version (it may carry a later write)."""
        path = f"/representative?engine={quote(engine)}"
        if since is not None:
            path = f"{path}&since={int(since)}"
        before = self.versions.get(engine)
        delta = self.client.request(
            "GET", path, decode=RepresentativeDelta.from_json_dict
        )
        with self._reports:
            if self.versions.get(engine) == before:
                self.versions = {**self.versions, engine: delta.to_version}
        return delta

    def dispatch(self, asks: Sequence[Tuple[Query, float, List[str]]]) -> SplitCall:
        """The ``/dispatch`` call for ``asks``, one ``(query, threshold,
        engine names)`` entry each.  It answers one
        :class:`~repro.metasearch.dispatch.DispatchReport` per entry, and
        fails as malformed unless each names exactly its entry's engines
        and the reply carries a well-formed version report, which it
        records."""
        entries = [
            {"query": query_to_wire(q), "threshold": float(t), "engines": names}
            for q, t, names in asks
        ]

        def decode(answer):
            reports = [
                DispatchReport(
                    results={
                        str(name): list(decode_hits(hits))
                        for name, hits in report["results"].items()
                    },
                    failures=[failure_from_wire(f) for f in report["failures"]],
                    latencies={
                        str(name): float(v)
                        for name, v in report["latencies"].items()
                    },
                )
                for report in _expect_kind(answer, "dispatches")["reports"]
            ]
            answered = [{*r.results, *(f.engine for f in r.failures)} for r in reports]
            if answered != [set(entry["engines"]) for entry in entries]:
                raise WireFormatError(
                    f"dispatch reports answered {answered} for "
                    f"{[entry['engines'] for entry in entries]}"
                )
            self._report(versions_from_wire(answer))
            return reports

        return SplitCall(functools.partial(
            self.client.start, "POST", "/dispatch", {"entries": entries}, decode
        ))


class HostedEngine(NamedTuple):
    """An engine in a broker's engine seat that its host serves."""

    name: str
    host: EngineHost

    def sync_representative(
        self, since: Optional[int] = None
    ) -> RepresentativeDelta:
        return self.host.representative(self.name, since)


class RemoteEngine:
    """An engine server's engine, on a host of one: usable wherever a
    local engine is.

    Args:
        base_url: The engine server's root URL (``http://host:port``).
        timeout: Per-request budget in seconds; tightened further by any
            ambient deadline.  ``None`` relies on deadlines alone.
        name: The engine's name if already known; fetched from
            ``/healthz`` on first use otherwise.
    """

    def __init__(
        self,
        base_url: str,
        timeout: Optional[float] = 10.0,
        name: Optional[str] = None,
    ):
        self._client = _HTTPJsonClient(base_url, timeout=timeout)
        self._name = name
        #: The engine server, as the host of this one engine.
        url = self._client.base_url
        self.host = EngineHost(f"engine server at {url}", self._client)

    @property
    def name(self) -> str:
        if self._name is None:
            info = self.host.probe()
            if not info.get("engine"):
                raise RemoteServingError(
                    f"{self._client.base_url} does not identify an engine "
                    f"(role={info.get('role')!r})"
                )
            self._name = str(info["engine"])
        return self._name

    # -- the engine protocol -------------------------------------------------

    def max_similarity(self, query: Query) -> float:
        return self._client.request(
            "POST",
            "/max_similarity",
            {"query": query_to_wire(query)},
            decode=lambda answer: float(answer["value"]),
        )

    def sync_representative(
        self, since: Optional[int] = None
    ) -> RepresentativeDelta:
        """The engine's :class:`~repro.fleet.delta.RepresentativeDelta`
        from version ``since`` (:meth:`EngineHost.representative`).  This
        is the remote half of
        :meth:`~repro.metasearch.broker.MetasearchBroker.sync_representative`.
        """
        return self.host.representative(self.name, since)

    def close(self) -> None:
        self._client.close()

    def __repr__(self) -> str:
        return f"RemoteEngine({self._name or '?'!r} @ {self._client.base_url})"


class GatewayClient:
    """Client for the broker gateway's estimate/search/batch endpoints.

    Decodes wire payloads back into the broker's own result types, so a
    remote answer compares ``==`` against an in-process
    :class:`~repro.metasearch.broker.MetasearchResponse`.
    """

    def __init__(self, base_url: str, timeout: Optional[float] = 30.0):
        self._client = _HTTPJsonClient(base_url, timeout=timeout)

    @property
    def base_url(self) -> str:
        return self._client.base_url

    def estimate(self, query: Query, threshold: float) -> EstimateRow:
        return self._client.request(
            "POST",
            "/estimate",
            {"query": query_to_wire(query), "threshold": float(threshold)},
            decode=lambda answer: estimate_row_from_wire(answer["estimates"]),
        )

    def search(
        self, query: Query, threshold: float, limit: Optional[int] = None
    ) -> MetasearchResponse:
        body = {"query": query_to_wire(query), "threshold": float(threshold)}
        if limit is not None:
            body["limit"] = int(limit)
        return self._client.request(
            "POST", "/search", body, decode=response_from_wire
        )

    def search_batch(
        self,
        queries: Sequence[Query],
        thresholds: Union[float, Sequence[float]],
        limit: Optional[int] = None,
    ) -> List[MetasearchResponse]:
        if isinstance(thresholds, (int, float)):
            wire_thresholds: Union[float, List[float]] = float(thresholds)
        else:
            wire_thresholds = [float(t) for t in thresholds]
        body = {
            "queries": [query_to_wire(q) for q in queries],
            "thresholds": wire_thresholds,
        }
        if limit is not None:
            body["limit"] = int(limit)
        return self._client.request(
            "POST",
            "/batch",
            body,
            decode=lambda answer: [
                response_from_wire(r) for r in answer["responses"]
            ],
        )

    def healthz(self) -> dict:
        return self._client.request("GET", "/healthz")

    def metrics_text(self) -> str:
        # /metrics is Prometheus text, not JSON — fetch raw.
        return self._client.request_raw(
            "GET", "/metrics", lambda raw, headers: raw.decode("utf-8")
        )

    def close(self) -> None:
        self._client.close()

    def __repr__(self) -> str:
        return f"GatewayClient({self.base_url})"
