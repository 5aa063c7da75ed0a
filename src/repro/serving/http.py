"""Stdlib HTTP substrate shared by the engine server and the gateway.

The two serving roles differ only in their routes; everything an HTTP
service needs besides them lives here:

* :class:`ServingApp` — a route table plus the cross-cutting request
  policy: body-size limits, ``X-Repro-Deadline`` parsing and server-side
  enforcement (504 when the budget is gone, before *and* after the
  handler runs), draining behavior, in-flight tracking for graceful
  shutdown, and request/latency/error metrics.  Subclasses add routes
  via :meth:`add_routes` and health detail via :meth:`health_info`;
  ``GET /healthz`` and ``GET /metrics`` come for free.
* :class:`ServingServer` — a :class:`~http.server.ThreadingHTTPServer`
  wrapper owning the listen socket and the drain sequence: stop
  accepting, finish in-flight requests, snapshot the metrics one last
  time (``final_metrics``), close.  ``install_signal_handlers`` maps
  SIGTERM/SIGINT onto that sequence for CLI deployments.
* :func:`read_headers` — the one header-block reader, used by the request
  handler here and by the client in :mod:`repro.serving.remote_engine`
  for responses.  It keeps the stdlib's limits (a line of at most 64 KiB,
  at most 100 lines) and its lookup rule (case-insensitive, the first of
  a repeated name wins) without going through ``email.parser``, and it
  refuses what the stdlib would let through: obs-fold continuation
  lines, bare-LF line ends, malformed field lines and two different
  ``Content-Length`` values are a 400.

Responses are JSON (except ``/metrics``, Prometheus text) and always
carry ``Content-Length``, so HTTP/1.1 keep-alive works and clients can
reuse connections.  Every response identifies the build via the
``Server`` and ``X-Repro-Version`` headers.  Every response — the
stdlib's own error answers (400, 414, 431, 501, 505) included — leaves in
one write: a head sent apart from its body is a small segment the kernel
holds back (Nagle) until the peer's delayed ACK, ~40 ms, on a kept-alive
connection.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import math
import re
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.metasearch.deadlines import DEADLINE_HEADER, Deadline, deadline_scope
from repro.obs.export import registry_to_prometheus
from repro.obs.registry import LATENCY_BUCKETS, MetricsRegistry
from repro.serving.wire import WireFormatError
from repro.version import package_version

__all__ = [
    "HTTPError",
    "HeaderBlockError",
    "Headers",
    "Response",
    "Route",
    "ServingApp",
    "ServingServer",
    "read_headers",
]

log = logging.getLogger("repro.serving")

#: Default request body cap (1 MiB) — generous for queries, miserly for abuse.
DEFAULT_MAX_BODY = 1 << 20

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The stdlib's header-block limits (``http.client._MAXLINE`` /
#: ``_MAXHEADERS``): a line of at most 64 KiB, and at most 100 lines
#: counting the blank one that ends the block.
MAX_LINE = 65536
MAX_HEADERS = 100

# One field line: a name of visible ASCII other than ":" (what
# ``email.parser`` takes for a name), the colon, optional blanks, then a
# value free of CR, LF and NUL, ended by CRLF.  An obs-fold continuation
# (a leading blank), a bare LF and whitespace before the colon all fail it.
_FIELD_LINE = re.compile(rb"([!-9;-~]+):[ \t]*([^\r\n\x00]*)\r\n")


class HeaderBlockError(ValueError):
    """A header block the reader refuses; ``status`` is how a server
    answers it (431 for the size limits, 400 otherwise)."""

    def __init__(self, status: int, message: str, explain: Optional[str] = None):
        super().__init__(message if explain is None else f"{message}: {explain}")
        self.status = status
        self.message = message
        self.explain = explain


class Headers(dict):
    """A header block: names lower-cased, each mapped to the value of its
    first occurrence (as ``email.message.Message.get`` answers), looked up
    case-insensitively."""

    __slots__ = ()

    def __getitem__(self, name: str) -> str:
        return dict.__getitem__(self, name.lower())

    def __contains__(self, name) -> bool:
        return dict.__contains__(self, name.lower())

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


def read_headers(rfile, eof_ends_block: bool = True) -> Headers:
    """Read one header block — the field lines up to and including the
    blank line — from the buffered binary stream ``rfile``.

    A stream that ends before the blank line ends the block when
    ``eof_ends_block`` (the stdlib server's rule, which an HTTP/0.9
    request line relies on) and is a truncated block otherwise.  Raises
    :class:`HeaderBlockError` for anything else the reader refuses.
    """
    headers = Headers()
    for __ in range(MAX_HEADERS):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeaderBlockError(
                431, "Line too long",
                f"got more than {MAX_LINE} bytes when reading header line",
            )
        if line == b"\r\n":
            return headers
        if not line:
            if eof_ends_block:
                return headers
            raise HeaderBlockError(400, "Truncated header block")
        field = _FIELD_LINE.fullmatch(line)
        if field is None:
            raise HeaderBlockError(400, "Bad header line (%r)" % line[:64])
        name = field[1].decode("ascii").lower()
        value = field[2].decode("iso-8859-1")
        first = dict.setdefault(headers, name, value)
        if first != value and name == "content-length":
            raise HeaderBlockError(400, "Conflicting Content-Length values")
    raise HeaderBlockError(
        431, "Too many headers", f"got more than {MAX_HEADERS} headers"
    )


class HTTPError(Exception):
    """A request failure with a definite status code.

    Raised anywhere under :meth:`ServingApp.handle`; rendered as a JSON
    error body.  ``retry_after`` adds the ``Retry-After`` header (load
    shedding), ``close`` forces ``Connection: close``.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        retry_after: Optional[float] = None,
        close: bool = False,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after
        self.close = close

    def to_response(self) -> "Response":
        headers = {}
        if self.retry_after is not None:
            # Retry-After is delta-seconds and integral per RFC 9110.
            # Round *up*: rounding 1.2s down to 1s invites the client back
            # before the window it was shed from has actually passed.
            headers["Retry-After"] = str(max(1, math.ceil(self.retry_after)))
        return Response(
            status=self.status,
            payload={"error": self.message, "status": self.status},
            headers=headers,
            close=self.close,
        )


@dataclass
class Response:
    """What a route handler returns; the handler layer does the framing."""

    status: int = 200
    payload: Optional[dict] = None  # JSON body (one of payload/text/raw)
    text: Optional[str] = None  # raw text body (/metrics)
    raw: Optional[bytes] = None  # binary body (columnar representatives)
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    close: bool = False

    def body_bytes(self) -> bytes:
        if self.raw is not None:
            return self.raw
        if self.text is not None:
            return self.text.encode("utf-8")
        if self.payload is not None:
            return json.dumps(self.payload).encode("utf-8")
        return b""


@dataclass(frozen=True)
class Route:
    """One (method, path) entry: the handler plus its drain policy."""

    handler: Callable[[Dict[str, str], Optional[dict]], Response]
    drain_ok: bool = False  # still served while draining (healthz, metrics)


class ServingApp:
    """Routes plus cross-cutting request policy; subclass per role.

    Args:
        registry: Metrics sink; a fresh :class:`MetricsRegistry` when
            omitted so ``/metrics`` always has something to export.
        max_body: Request body cap in bytes; larger requests get 413.
        default_deadline: Budget in seconds applied to requests that carry
            no ``X-Repro-Deadline`` header; ``None`` leaves them unbounded.
    """

    role = "app"

    def __init__(
        self,
        *,
        registry=None,
        max_body: int = DEFAULT_MAX_BODY,
        default_deadline: Optional[float] = None,
    ):
        if max_body < 1:
            raise ValueError(f"max_body must be >= 1, got {max_body!r}")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be positive, got {default_deadline!r}"
            )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_body = max_body
        self.default_deadline = default_deadline
        self.draining = False
        self._inflight = 0
        self._idle = threading.Condition()
        self._in_flight = _InFlight(self)
        self._routes: Dict[Tuple[str, str], Route] = {}
        self.route("GET", "/healthz", self._route_healthz, drain_ok=True)
        self.route("GET", "/metrics", self._route_metrics, drain_ok=True)
        self.add_routes()

    # -- subclass surface ----------------------------------------------------

    def add_routes(self) -> None:
        """Register role-specific routes (subclass hook)."""

    def health_info(self) -> dict:
        """Role-specific fields merged into the /healthz payload."""
        return {}

    def route(
        self,
        method: str,
        path: str,
        handler: Callable[[Dict[str, str], Optional[dict]], Response],
        *,
        drain_ok: bool = False,
    ) -> None:
        self._routes[(method, path)] = Route(handler=handler, drain_ok=drain_ok)

    # -- built-in routes -----------------------------------------------------

    def _route_healthz(self, params, payload) -> Response:
        info = {
            "status": "draining" if self.draining else "ok",
            "role": self.role,
            "version": package_version(),
        }
        info.update(self.health_info())
        # 503 while draining so load balancers stop routing here, while the
        # body still says why.
        return Response(status=503 if self.draining else 200, payload=info)

    def _route_metrics(self, params, payload) -> Response:
        return Response(
            text=registry_to_prometheus(self.registry),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    # -- request policy ------------------------------------------------------

    def _metric_requests(self, path: str):
        return self.registry.counter(
            "serving.requests", labels={"app": self.role, "route": path}
        )

    def _metric_errors(self, status: int):
        return self.registry.counter(
            "serving.errors", labels={"app": self.role, "status": str(status)}
        )

    def _metric_seconds(self, path: str):
        return self.registry.histogram(
            "serving.request.seconds",
            buckets=LATENCY_BUCKETS,
            labels={"app": self.role, "route": path},
        )

    def _request_deadline(self, headers: Mapping[str, str]) -> Optional[Deadline]:
        raw = headers.get(DEADLINE_HEADER)
        if raw is None:
            if self.default_deadline is None:
                return None
            return Deadline(self.default_deadline)
        try:
            return Deadline.parse_header(raw)
        except ValueError as exc:
            raise HTTPError(400, f"bad {DEADLINE_HEADER} header: {exc}") from exc

    @staticmethod
    def _decode_body(method: str, body: bytes) -> Optional[dict]:
        if method != "POST":
            return None
        if not body:
            raise HTTPError(400, "POST body required")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # digits / nesting limits too
            raise HTTPError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise HTTPError(400, "body must be a JSON object")
        return payload

    def handle(
        self, method: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> Response:
        """Full request policy around one route invocation; never raises."""
        split = urlsplit(path)
        started = time.perf_counter()
        self._metric_requests(split.path).inc()
        try:
            response = self._handle(method, split.path, split.query, headers, body)
        except HTTPError as err:
            self._metric_errors(err.status).inc()
            response = err.to_response()
        except Exception as exc:  # a route bug is a 500, never a dead thread
            log.exception("unhandled error serving %s %s", method, path)
            self._metric_errors(500).inc()
            response = Response(
                status=500,
                payload={"error": f"{type(exc).__name__}: {exc}", "status": 500},
                close=True,
            )
        self._metric_seconds(split.path).observe(time.perf_counter() - started)
        if self.draining:
            response.close = True
        return response

    def _handle(
        self,
        method: str,
        path: str,
        query: str,
        headers: Mapping[str, str],
        body: bytes,
    ) -> Response:
        route = self._routes.get((method, path))
        if route is None:
            known = any(p == path for __, p in self._routes)
            raise HTTPError(
                405 if known else 404,
                f"method {method} not allowed for {path}"
                if known
                else f"no such endpoint: {path}",
            )
        if self.draining and not route.drain_ok:
            raise HTTPError(503, "server is draining", close=True)
        deadline = self._request_deadline(headers)
        if deadline is not None and deadline.expired:
            raise HTTPError(504, "deadline exhausted before handling began")
        params = {k: values[-1] for k, values in parse_qs(query).items()}
        payload = self._decode_body(method, body)
        with self._in_flight:
            with deadline_scope(deadline):
                try:
                    response = self._invoke(route, params, payload, deadline)
                except WireFormatError as exc:  # a malformed request field
                    raise HTTPError(400, f"bad request: {exc}") from exc
        if deadline is not None and deadline.expired:
            raise HTTPError(504, "deadline exceeded while answering")
        return response

    def _invoke(
        self,
        route: Route,
        params: Dict[str, str],
        payload: Optional[dict],
        deadline: Optional[Deadline],
    ) -> Response:
        """Run the route handler (subclass hook — the gateway wraps this
        with admission control)."""
        return route.handler(params, payload)

    # -- drain support -------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new work; requests already in flight run to completion."""
        self.draining = True

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no request is being handled; False on timeout."""
        expires = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = None
                if expires is not None:
                    remaining = expires - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
            return True


class _InFlight:
    """Counts a request in flight on ``app`` for the length of a ``with``
    block; one per app, reused by every request (the count is the app's)."""

    __slots__ = ("app",)

    def __init__(self, app: ServingApp):
        self.app = app

    def __enter__(self) -> None:
        with self.app._idle:
            self.app._inflight += 1

    def __exit__(self, *exc) -> bool:
        with self.app._idle:
            self.app._inflight -= 1
            self.app._idle.notify_all()
        return False


class _AppHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # The listen() backlog, socketserver's 5 by default.  Clients keep
    # their connections alive and dial a burst of them when a caller's
    # fan-out threads start together; a SYN that finds the accept queue
    # full is dropped and retried after the 1 s initial retransmit timeout.
    request_queue_size = socket.SOMAXCONN

    def __init__(self, address, app: ServingApp):
        super().__init__(address, _AppRequestHandler)
        self.app = app


class _AppRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # -- framing -------------------------------------------------------------

    def version_string(self) -> str:  # the Server: header
        return f"repro-serving/{package_version()}"

    def log_message(self, fmt, *args):  # stdlib default prints to stderr
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s %s", self.address_string(), fmt % args)

    def parse_request(self) -> bool:
        """The stdlib's request parsing, with the header block read by
        :func:`read_headers` instead of ``email.parser``: the request-line
        rules, the ``//`` path collapse, ``Connection`` and ``Expect:
        100-continue`` are the stdlib's.  False once an error answer is
        sent (or, for an empty request line, when there is nothing to
        answer)."""
        if not self._parse_request_line():
            return False
        try:
            self.headers = read_headers(self.rfile)
        except HeaderBlockError as err:
            self.send_error(err.status, err.message, err.explain)
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            self.headers.get("Expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _parse_request_line(self) -> bool:
        # BaseHTTPRequestHandler.parse_request's request-line half, as is.
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                major, minor = version[5:].split(".")
                if not (major.isdigit() and minor.isdigit()):
                    raise ValueError
                if len(major) > 10 or len(minor) > 10:
                    raise ValueError
                number = int(major), int(minor)
            except ValueError:
                self.send_error(400, "Bad request version (%r)" % version)
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(505, "Invalid HTTP version (%s)" % version[5:])
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, "Bad request syntax (%r)" % requestline)
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, "Bad HTTP/0.9 request type (%r)" % command)
                return False
        # A path starting "//" reads as a scheme-less absolute URI to a
        # client; collapse it so no answer can redirect off-site (gh-87389).
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        return True

    @contextlib.contextmanager
    def _one_write(self):
        """Collect what the block writes — status line, headers, body, as
        the stdlib frames them (only the body for an HTTP/0.9 request
        line) — and send it in one ``wfile.write``."""
        wfile, self.wfile = self.wfile, io.BytesIO()
        try:
            yield
            framed = self.wfile.getvalue()
        finally:
            self.wfile = wfile
        wfile.write(framed)

    def _write_response(self, response: Response) -> None:
        body = response.body_bytes()
        with self._one_write():
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Repro-Version", package_version())
            for name, value in response.headers.items():
                self.send_header(name, value)
            if response.close:
                self.send_header("Connection", "close")
                self.close_connection = True
            self.end_headers()
            self.wfile.write(body)

    def send_error(self, code, message=None, explain=None) -> None:
        # The stdlib writes the head, then the body: make it one write.
        with self._one_write():
            super().send_error(code, message, explain)

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        app: ServingApp = self.server.app
        try:
            if "chunked" in (self.headers.get("Transfer-Encoding") or ""):
                raise HTTPError(411, "chunked bodies unsupported; send "
                                     "Content-Length", close=True)
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                raise HTTPError(400, "bad Content-Length", close=True) from None
            if length < 0:
                raise HTTPError(400, "bad Content-Length", close=True)
            if length > app.max_body:
                # The body is refused unread, so the connection must close.
                raise HTTPError(
                    413,
                    f"body of {length} bytes exceeds limit of {app.max_body}",
                    close=True,
                )
            body = self.rfile.read(length) if length else b""
        except HTTPError as err:
            self._write_response(err.to_response())
            return
        response = app.handle(method, self.path, self.headers, body)
        try:
            self._write_response(response)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client went away; nothing to do

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


class ServingServer:
    """Owns the listen socket and lifecycle of one :class:`ServingApp`.

    Args:
        app: The role to serve.
        host: Bind address (loopback by default).
        port: TCP port; 0 asks the OS for a free one (read it back from
            :attr:`port` / :attr:`url`).
    """

    def __init__(self, app: ServingApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self._httpd = _AppHTTPServer((host, port), app)
        self.host, self.port = self._httpd.server_address[:2]
        self._serving = threading.Event()
        self._drained = threading.Event()
        self._drain_lock = threading.Lock()
        self._drain_started = False
        self.final_metrics: Optional[str] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- serving -------------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve until :meth:`drain` (or shutdown) is called."""
        self._serving.set()
        try:
            self._httpd.serve_forever(poll_interval=0.05)
        finally:
            self._serving.clear()

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns once the loop is accepting."""
        thread = threading.Thread(
            target=self.serve_forever, name=f"repro-serve-{self.app.role}",
            daemon=True,
        )
        thread.start()
        self._serving.wait(timeout=5.0)
        return thread

    # -- graceful shutdown ---------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, flush metrics.

        Returns True when every in-flight request completed within
        ``timeout`` (None = wait indefinitely).  Idempotent; concurrent
        callers all block until the first drain finishes.
        """
        with self._drain_lock:
            if self._drain_started:
                first = False
            else:
                self._drain_started = True
                first = True
        if not first:
            self._drained.wait()
            return self.final_metrics is not None
        # Refuse new work first (503 while the listener stays up, so callers
        # get a clean answer instead of a reset), let in-flight requests
        # finish, then stop the accept loop and close the socket.
        self.app.begin_drain()
        completed = self.app.wait_idle(timeout)
        if self._serving.is_set():
            self._httpd.shutdown()
        # The final flush: the last complete snapshot of every series,
        # available to the operator after the listener is gone.
        self.final_metrics = registry_to_prometheus(self.app.registry)
        self._httpd.server_close()
        self._drained.set()
        log.info(
            "drained %s (%scomplete)", self.app.role, "" if completed else "in"
        )
        return completed

    def install_signal_handlers(self, drain_timeout: Optional[float] = 30.0):
        """Map SIGTERM/SIGINT to a graceful drain (main thread only)."""

        def _on_signal(signum, frame):
            # Draining shuts the serve loop down, which a signal handler
            # running *in* that loop's thread cannot wait on — hand off.
            threading.Thread(
                target=self.drain, args=(drain_timeout,), daemon=True
            ).start()

        try:
            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        except ValueError:  # not the main thread; caller drives drain itself
            log.debug("signal handlers unavailable off the main thread")

    def run(self, drain_timeout: Optional[float] = 30.0) -> bool:
        """Foreground serving for the CLI: serve, drain on signal, return
        True when the drain completed cleanly."""
        self.install_signal_handlers(drain_timeout)
        self.serve_forever()
        self._drained.wait()
        return self.app.wait_idle(0.0)
