"""Property-based tests for the server's header-block reader.

``repro.serving.http.read_headers`` replaces ``email.parser`` on every
request.  On a well-formed block it must answer every lookup exactly as
the stdlib's ``http.client.parse_headers`` does (case-insensitive names,
the first of a repeated name wins, leading blanks stripped, trailing ones
kept).  A hostile block — an over-long line, more than 100 lines, an
obs-fold continuation, a bare LF, two different ``Content-Length`` values,
a malformed field line, a block cut short inside a line — is answered 400
or 431 in one write and the connection closes: never a 500, never a hang.
"""

import http.client
import io
import json
import re
import types
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving.http import (
    MAX_HEADERS,
    MAX_LINE,
    HeaderBlockError,
    Response,
    ServingApp,
    _AppRequestHandler,
    read_headers,
)

TCHAR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

names = st.text(alphabet=TCHAR, min_size=1, max_size=12).filter(
    lambda name: name.lower() != "content-length"
)
# Visible ASCII, blanks and obs-text: what a field value may hold.
values = st.text(
    alphabet=st.sampled_from(
        [chr(c) for c in range(0x20, 0x7F)] + ["\t"]
        + [chr(c) for c in range(0x80, 0x100)]
    ),
    max_size=24,
)
fields = st.lists(st.tuples(names, values), max_size=MAX_HEADERS - 2)


def block_of(pairs, end=b"\r\n"):
    return b"".join(
        f"{name}:{value}".encode("iso-8859-1") + b"\r\n" for name, value in pairs
    ) + end


@given(fields, st.sampled_from(["", " ", "\t", "  "]))
def test_well_formed_blocks_read_as_the_stdlib_reads_them(pairs, blank):
    pairs = [(name, blank + value) for name, value in pairs]
    raw = block_of(pairs)
    ours = read_headers(io.BytesIO(raw + b"body"))
    stdlib = http.client.parse_headers(io.BytesIO(raw))
    for name, __ in pairs:
        for spelled in (name, name.lower(), name.upper()):
            assert ours.get(spelled) == stdlib.get(spelled)
            assert spelled in ours
    assert ours.get("X-Absent-Header") is None
    assert len(ours) == len({name.lower() for name, __ in pairs})


@given(fields, st.integers(min_value=0, max_value=10**12), st.integers(1, 3))
def test_repeated_equal_content_length_is_one_value(pairs, length, copies):
    raw = block_of(pairs + [("Content-Length", str(length))] * copies)
    assert read_headers(io.BytesIO(raw))["content-length"] == str(length)


def test_a_stream_that_ends_before_the_blank_line():
    # The stdlib server's rule (an HTTP/0.9 request line relies on it) ...
    assert read_headers(io.BytesIO(b"A: b\r\n")) == {"a": "b"}
    # ... and the client's: a response head cut short is refused.
    try:
        read_headers(io.BytesIO(b"A: b\r\n"), eof_ends_block=False)
    except HeaderBlockError as err:
        assert err.status == 400
    else:
        raise AssertionError("a truncated block was accepted")


# -- hostile blocks, answered by the request handler ----------------------------


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


def echo_app() -> ServingApp:
    app = ServingApp()
    app.route("POST", "/echo", lambda params, payload: Response(payload=payload))
    return app


def serve(incoming: bytes, app=None):
    connection = RecordingConnection(incoming)
    _AppRequestHandler(
        connection, ("127.0.0.1", 0),
        types.SimpleNamespace(app=app or echo_app()),
    )
    return connection.writes


def hostile():
    """One hostile element, and the status it must be answered with."""
    return st.sampled_from([
        (b"X-Long: " + b"a" * MAX_LINE + b"\r\n", 431),
        (b"".join(b"X-%d: v\r\n" % i for i in range(MAX_HEADERS)), 431),
        (b"X-Folded: a\r\n  continued\r\n", 400),
        (b"X-Folded: a\r\n\tcontinued\r\n", 400),
        (b"X-Bare: lf\n", 400),
        (b"Content-Length: 1\r\nContent-Length: 2\r\n", 400),
        (b"X-Space : before colon\r\n", 400),
        (b"no colon at all\r\n", 400),
        (b": empty name\r\n", 400),
        (b"X-Nul: a\x00b\r\n", 400),
        (b"X-Cr: a\rb\r\n", 400),
    ])


@given(fields, st.data())
def test_hostile_blocks_are_400_or_431_in_one_write(pairs, data):
    element, status = data.draw(hostile())
    at = data.draw(st.integers(min_value=0, max_value=len(pairs)))
    head = block_of(pairs[:at], end=b"") + element + block_of(pairs[at:])
    writes = serve(b"POST /echo HTTP/1.1\r\n" + head + b'{"a": 1}')
    [answer] = writes  # one write, then the connection closes
    status_line, __, rest = answer.partition(b"\r\n")
    assert status_line.startswith(b"HTTP/1.1 %d " % status), answer[:200]
    assert b"\r\nConnection: close\r\n" in rest


@given(fields)
def test_a_block_cut_short_inside_a_line_is_400(pairs):
    raw = block_of(pairs, end=b"") + b"X-Cut: no line end"
    [answer] = serve(b"GET /healthz HTTP/1.1\r\n" + raw)
    assert answer.startswith(b"HTTP/1.1 400 ")


def test_well_formed_request_after_hostile_one_never_runs():
    """The connection closes on a refused block: a request pipelined
    behind it is not read as a new request."""
    writes = serve(
        b"GET /healthz HTTP/1.1\r\nX-Bare: lf\n\r\n"
        b"GET /healthz HTTP/1.1\r\n\r\n"
    )
    assert len(writes) == 1 and writes[0].startswith(b"HTTP/1.1 400 ")


def test_expect_100_continue_gets_its_100_before_the_answer():
    body = b'{"ping": true}'
    writes = serve(
        b"POST /echo HTTP/1.1\r\nexpect: 100-Continue\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body) + body
    )
    assert writes[0] == b"HTTP/1.1 100 Continue\r\n\r\n"
    head, __, answer = writes[1].partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    assert json.loads(answer) == {"ping": True}
    # HTTP/1.0 never gets one.
    writes = serve(
        b"POST /echo HTTP/1.0\r\nExpect: 100-continue\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body) + body
    )
    assert [w for w in writes if b" 100 Continue" in w] == []


class StdlibParsing(_AppRequestHandler):
    """The same handler parsing requests with the stdlib's own code."""

    parse_request = BaseHTTPRequestHandler.parse_request


def without_date(writes):
    return [re.sub(rb"\r\nDate: [^\r]*", b"", write) for write in writes]


@pytest.mark.parametrize("incoming", [
    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" * 2,
    b"GET /healthz HTTP/2.0\r\n\r\n",
    b"GET /healthz HTTP/1\r\n\r\n",
    b"GET /healthz HTTP/1.1.1\r\n\r\n",
    b"GET /healthz HTTX/1.1\r\n\r\n",
    b"GET /healthz HTTP/\xb2.1\r\n\r\n",
    b"GET /healthz HTTP/01.1\r\n\r\n",
    b"GET /healthz HTTP/12345678901.1\r\n\r\n",
    b"GET /healthz extra HTTP/1.1\r\n\r\n",
    b"GET\r\n\r\n",
    b"\r\n",
    b"GET /healthz\r\n\r\n",
    b"GET /healthz\r\n",
    b"POST /echo\r\n\r\n",
    b"PUT /echo HTTP/1.1\r\n\r\n",
    b"GET //healthz HTTP/1.1\r\n\r\n",
    b"GET ///echo HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n" * 2,
    b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" * 2,
    b"GET /healthz HTTP/1.0\r\n\r\n" * 2,
    b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * MAX_LINE + b"\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\n"
    + b"".join(b"X-%d: v\r\n" % i for i in range(MAX_HEADERS)) + b"\r\n",
    b"GET /healthz HTTP/1.1\r\n"
    + b"".join(b"X-%d: v\r\n" % i for i in range(MAX_HEADERS - 1)) + b"\r\n",
    b"POST /echo HTTP/1.1\r\nexpect: 100-Continue\r\n"
    b"Content-Length: 8\r\n\r\n{\"a\": 1}",
    b"POST /echo HTTP/1.0\r\nExpect: 100-continue\r\n"
    b"Content-Length: 8\r\n\r\n{\"a\": 1}",
    b"POST /echo HTTP/1.1\r\ncontent-length: 8\r\n\r\n{\"a\": 1}",
    b"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    b"POST /echo HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
])
def test_request_line_and_connection_rules_are_the_stdlibs(incoming):
    """Byte for byte the stdlib's answers (the ``Date`` header aside),
    in the same writes: request-line errors (before a version is accepted
    they go out as HTTP/0.9, the error page alone), HTTP/0.9, the ``//``
    collapse, ``Connection``, ``Expect: 100-continue`` and the 431 limits."""
    ours = serve(incoming)
    stdlib = RecordingConnection(incoming)
    StdlibParsing(
        stdlib, ("127.0.0.1", 0), types.SimpleNamespace(app=echo_app())
    )
    assert without_date(ours) == without_date(stdlib.writes)
