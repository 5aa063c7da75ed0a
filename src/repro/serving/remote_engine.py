"""HTTP clients for the serving layer.

:class:`RemoteEngine` is the adapter that makes a network engine look
like a local one: it implements the same calls
:class:`~repro.metasearch.broker.MetasearchBroker` consumes (``name``,
``search``, ``max_similarity``, and ``sync_representative`` — the method
:class:`~repro.fleet.live.LiveEngineServer` answers in-process), so the
entire broker stack — selection, concurrent dispatch, retries, degradation,
merging, live sync — runs unchanged over remote engines.  Failure mapping
falls out of that: a transport or server error raises
:class:`RemoteServingError`
(a ``ConnectionError``), which the dispatcher retries and finally records
as an :class:`~repro.metasearch.dispatch.EngineFailure` of kind
``"error"``; a socket timeout or an already-exhausted deadline raises
:class:`RemoteTimeout` (non-retryable, kind ``"timeout"``); a hung server
trips the dispatcher's own deadline and becomes kind ``"timeout"``.
Remote engines degrade exactly like slow or broken local ones.

Deadline handling: every request's budget is the tightest of the
client's configured ``timeout`` and the ambient
:func:`~repro.metasearch.deadlines.ambient_deadline` (set by the gateway
around request handling; a context variable, so it is the request's on
the dispatcher's pool threads too).  The remaining budget travels
downstream in ``X-Repro-Deadline`` and doubles as the socket timeout, so
a request admitted with 80 ms left can neither wait 10 s on a socket nor
ask the engine for more time than its caller has.

Connections are pooled per ``(pid, thread)`` (``http.client`` connections
are not thread-safe; the broker's dispatcher calls from many threads) and
reused via HTTP/1.1 keep-alive for as long as the calling thread lives,
with one transparent retry when a pooled connection turns out to have
been closed by the server.  The dispatcher's fan-out threads are cached
across fan-outs (:mod:`repro.metasearch.dispatch`), so a coordinator or
gateway holds about one kept-alive connection per (fan-out thread,
server) and a steady load dials none; a connection leaves the pool when
its thread retires or when the client's :meth:`_HTTPJsonClient.close`
closes every connection it pooled, on every thread.  The pid half of the
key makes the pool fork-safe: a process that ``fork()``\\ s after making
requests (shard workers, multiprocessing load generators) inherits the
parent's pooled sockets, and writing on one of those would interleave two
processes' requests on a single connection — so a pooled entry whose pid
no longer matches is closed and redialed.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import weakref
import zipfile
from typing import Callable, List, Optional, Sequence, Union
from urllib.parse import urlsplit

from repro.corpus.query import Query
from repro.engine.results import SearchHit
from repro.fleet.delta import (
    DELTA_KIND,
    RepresentativeDelta,
    RepresentativeSnapshot,
)
from repro.metasearch.broker import MetasearchResponse
from repro.metasearch.deadlines import DEADLINE_HEADER, ambient_deadline
from repro.metasearch.selection import EstimateRow
from repro.serving.wire import (
    decode_hits,
    estimate_row_from_wire,
    query_to_wire,
    response_from_wire,
    snapshot_from_wire,
)

__all__ = [
    "GatewayClient",
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
    contract: ``retryable = False`` stops
    :class:`~repro.metasearch.dispatch.ConcurrentDispatcher` from
    re-issuing a request whose budget is gone (the fail-fast half of the
    ``X-Repro-Deadline: 0`` bug — previously the clamped-to-zero budget
    raised a generic retryable error, so the dispatcher would burn the
    caller's non-existent remaining time on retries), and
    ``failure_kind = "timeout"`` records the degradation as a timeout
    rather than a generic error.
    """

    retryable = False
    failure_kind = "timeout"


class _HTTPJsonClient:
    """Thread-pooled JSON-over-HTTP with deadline propagation."""

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
        self.timeout = timeout
        self._local = threading.local()
        # Every thread's pooled connection, for close(); weak, so one goes
        # (and its socket closes) with the thread that held it.
        self._pooled: "weakref.WeakSet[http.client.HTTPConnection]" = (
            weakref.WeakSet()
        )
        self._pooled_lock = threading.Lock()

    # -- connection pool -----------------------------------------------------

    def _connection(self, budget: Optional[float]) -> http.client.HTTPConnection:
        # Fork safety: thread-local state survives fork() into the child's
        # surviving thread, so the pooled connection's socket would be
        # shared with the parent process.  Detect the pid change and
        # redial instead of writing on the inherited socket (close() only
        # drops this process's descriptor; the parent's copy is unharmed).
        if getattr(self._local, "pid", None) != os.getpid():
            stale = getattr(self._local, "conn", None)
            if stale is not None:
                try:
                    stale.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
            self._local.conn = None
            self._local.pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=budget
            )
            self._local.conn = conn
            with self._pooled_lock:
                self._pooled.add(conn)
        else:
            conn.timeout = budget
            if conn.sock is not None:
                conn.sock.settimeout(budget)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def close(self) -> None:
        """Close every thread's pooled connection.  The client stays
        usable: a thread's next request redials (and is pooled again)."""
        with self._pooled_lock:
            pooled = list(self._pooled)
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

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        decode: Optional[Callable] = None,
    ):
        """One JSON round trip; returns the response body, run through
        ``decode`` when given (see :meth:`_decoded`)."""
        raw, response = self._roundtrip(method, path, payload)
        try:
            answer = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RemoteServingError(
                f"{self.base_url}{path} returned invalid JSON: {exc}"
            ) from exc
        return answer if decode is None else self._decoded(path, decode, answer)

    def request_raw(self, method: str, path: str, decode: Callable):
        """One round trip for a binary body; returns ``decode(bytes,
        headers)``, the headers a case-insensitive mapping."""
        raw, response = self._roundtrip(method, path, None)
        return self._decoded(path, decode, raw, response.headers)

    def _decoded(self, path: str, decode: Callable, *answer):
        """``decode(*answer)`` — the one place a 2xx answer of the wrong
        shape (non-object body, missing field, wrong type, wrong ``kind``,
        an empty or truncated ``.npz``) becomes a
        :class:`RemoteServingError`, which callers — the dispatcher above
        all — handle like any other remote fault."""
        try:
            return decode(*answer)
        except (
            AttributeError, KeyError, TypeError, ValueError, OSError,
            EOFError, zipfile.BadZipFile,
        ) as exc:
            raise RemoteServingError(
                f"{self.base_url}{path} returned a malformed answer: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def _roundtrip(self, method: str, path: str, payload: Optional[dict]):
        budget = self._budget()
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if budget is not None:
            headers[DEADLINE_HEADER] = repr(budget)
        # One transparent retry: a pooled keep-alive connection may have
        # been closed server-side since its last use.
        for attempt in (0, 1):
            conn = self._connection(budget)
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self._drop_connection()
                if isinstance(exc, socket.timeout):
                    raise RemoteTimeout(
                        f"timed out calling {self.base_url}{path}"
                    ) from exc
                if attempt == 1:
                    raise RemoteServingError(
                        f"cannot reach {self.base_url}{path}: {exc}"
                    ) from exc
        if response.getheader("Connection", "").lower() == "close":
            self._drop_connection()
        if not 200 <= response.status < 300:
            message = f"HTTP {response.status}"
            try:
                detail = json.loads(raw.decode("utf-8")).get("error")
            except (AttributeError, ValueError, UnicodeDecodeError):
                detail = None
            if detail:
                message = f"{message}: {detail}"
            raise RemoteServingError(
                f"{self.base_url}{path} answered {message}",
                status=response.status,
            )
        return raw, response


class RemoteEngine:
    """A search engine reached over HTTP, usable wherever a local one is.

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

    @property
    def base_url(self) -> str:
        return self._client.base_url

    @property
    def name(self) -> str:
        if self._name is None:
            engine, role = self._client.request(
                "GET",
                "/healthz",
                decode=lambda info: (info.get("engine"), info.get("role")),
            )
            if not engine:
                raise RemoteServingError(
                    f"{self.base_url} does not identify an engine "
                    f"(role={role!r})"
                )
            self._name = str(engine)
        return self._name

    @property
    def n_documents(self) -> int:
        """The engine's live document count (one ``/healthz`` round trip)."""
        return self._client.request(
            "GET", "/healthz", decode=lambda info: int(info.get("documents", 0))
        )

    # -- the engine protocol -------------------------------------------------

    def search(self, query: Query, threshold: float) -> List[SearchHit]:
        return self._client.request(
            "POST",
            "/search",
            {"query": query_to_wire(query), "threshold": float(threshold)},
            decode=lambda answer: list(decode_hits(answer["hits"])),
        )

    def max_similarity(self, query: Query) -> float:
        return self._client.request(
            "POST",
            "/max_similarity",
            {"query": query_to_wire(query)},
            decode=lambda answer: float(answer["value"]),
        )

    def snapshot_representative(
        self, quantize: Optional[int] = None, columnar: bool = False
    ) -> RepresentativeSnapshot:
        """Fetch the engine's versioned representative.

        Args:
            quantize: Ship the one-byte quantized wire form with this many
                levels (~4 bytes/term) instead of the exact floats.
            columnar: Ship the columnar ``.npz`` binary form instead of
                JSON — no float text round-trip, decoded straight into a
                :class:`~repro.representatives.columnar.ColumnarRepresentative`
                (duck-compatible with the dict representative and directly
                registrable with a columnar broker).  Exclusive with
                ``quantize``.
        """
        if columnar:
            if quantize is not None:
                raise ValueError("quantize is not supported with columnar")
            return self._snapshot_columnar()
        path = "/representative"
        if quantize is not None:
            path = f"{path}?quantize={int(quantize)}"
        return self._client.request("GET", path, decode=snapshot_from_wire)

    def sync_representative(
        self, since: Optional[int] = None
    ) -> Union[RepresentativeDelta, RepresentativeSnapshot]:
        """Fetch the cheapest representation of "everything after ``since``".

        Asks the live engine's ``/representative/delta`` endpoint and
        returns whatever it answers: a
        :class:`~repro.fleet.delta.RepresentativeDelta` covering
        ``since → now``, or a full :class:`RepresentativeSnapshot` when
        ``since`` is ``None``, has been compacted out of the server's
        replay log, or the server is a plain (non-live) engine server —
        the caller discriminates with ``isinstance``.  This is the remote
        half of :meth:`~repro.metasearch.broker.MetasearchBroker.
        sync_representative`.
        """
        path = "/representative/delta"
        if since is not None:
            path = f"{path}?since={int(since)}"

        def decode(answer):
            if answer.get("kind") == DELTA_KIND:
                return RepresentativeDelta.from_json_dict(answer)
            return snapshot_from_wire(answer)  # rejects any other kind

        try:
            return self._client.request("GET", path, decode=decode)
        except RemoteServingError as exc:
            if exc.status == 404:
                # A plain EngineApp without the live protocol: fall back
                # to the full snapshot it does serve.
                return self.snapshot_representative()
            raise

    def _snapshot_columnar(self) -> RepresentativeSnapshot:
        import io

        from repro.representatives.columnar import ColumnarRepresentative

        def decode(raw, headers):
            representative = ColumnarRepresentative.load_npz(io.BytesIO(raw))
            return RepresentativeSnapshot(
                name=representative.name,
                version=int(headers.get("X-Repro-Representative-Version")),
                representative=representative,
            )

        return self._client.request_raw(
            "GET", "/representative?format=npz", decode
        )

    def close(self) -> None:
        self._client.close()

    def __repr__(self) -> str:
        name = self._name or "?"
        return f"RemoteEngine({name!r} @ {self.base_url})"


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
        import urllib.request

        with urllib.request.urlopen(
            f"{self.base_url}/metrics", timeout=self._client.timeout
        ) as response:
            return response.read().decode("utf-8")

    def close(self) -> None:
        self._client.close()

    def __repr__(self) -> str:
        return f"GatewayClient({self.base_url})"
