"""Property-based tests for the serving wire schema.

The decoders' contract is *4xx, never 500*: any POST route handed a valid
body with one field replaced by an arbitrary JSON value answers with a
status below 500, and — on the routes that change no state — answers the
next valid request exactly as before, while a refused write (``/mutate``)
changes nothing (decoder fuzzing, first slice).  The replies a broker
decodes from an engine host get the same treatment: a pull answered with
a garbled delta, or a ``/dispatch`` or ``/healthz`` reply with a garbled
version report, is refused, changes nothing the broker holds, triggers
no pull and never raises out of the request.

The wire contract is *exactness*: anything serialized, pushed through a
real ``json.dumps``/``json.loads`` cycle (what HTTP transports), and
deserialized must come back ``==`` — and estimates computed from a
decoded representative must be byte-identical to estimates from the
original.  A representative crosses as its full delta (from version 0);
quantizing what arrived equals quantizing the original, so ``serve
gateway --quantize`` answers like a broker holding
:func:`~repro.representatives.quantized.quantize_representative` of it.
"""

import copy
import json
import math
import unittest.mock

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import SubrangeEstimator
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine, SearchHit
from repro.fleet import (
    LiveEngineServer,
    RepresentativeDelta,
    canonicalize,
    diff_representatives,
)
import repro.metasearch.broker as broker_module
from repro.metasearch import MetasearchBroker
from repro.obs import MetricsRegistry
from repro.representatives import DatabaseRepresentative, TermStats
from repro.representatives.quantized import quantize_representative
from repro.serving import (
    EngineApp,
    GatewayApp,
    LiveEngineApp,
    ShardApp,
    decode_hits,
    encode_hits,
    query_from_wire,
    query_to_wire,
)
from repro.serving.remote_engine import (
    EngineHost,
    HostedEngine,
    _Connection,
    _HTTPJsonClient,
    _Pending,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
positive = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)

terms_st = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=6,
    unique=True,
)


@st.composite
def queries(draw):
    terms = draw(terms_st)
    weights = [draw(positive) for __ in terms]
    return Query(terms=tuple(terms), weights=tuple(weights))


@st.composite
def representatives(draw):
    terms = draw(st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=8,
        ),
        min_size=0,
        max_size=8,
        unique=True,
    ))
    with_max = draw(st.booleans())
    stats = {}
    for term in terms:
        stats[term] = TermStats(
            probability=draw(unit),
            mean=draw(nonneg),
            std=draw(nonneg),
            max_weight=draw(nonneg) if with_max else None,
        )
    return DatabaseRepresentative(
        name=draw(st.text(min_size=1, max_size=12)),
        n_documents=draw(st.integers(min_value=0, max_value=10**9)),
        term_stats=stats,
    )


@st.composite
def hit_lists(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    return [
        SearchHit(
            similarity=draw(finite),
            doc_id=draw(st.text(min_size=1, max_size=10)),
            engine=draw(st.none() | st.text(min_size=1, max_size=10)),
        )
        for __ in range(n)
    ]


def through_json(payload):
    return json.loads(json.dumps(payload))


def over_the_wire(representative):
    """``representative`` shipped as its full delta, through JSON, and
    decoded: what a broker's first sync holds."""
    full = diff_representatives(
        DatabaseRepresentative(representative.name, 0, {}), representative,
        from_version=0, to_version=1,
    )
    wire = through_json(full.to_json_dict())
    return RepresentativeDelta.from_json_dict(wire).as_representative()


@given(queries())
def test_query_roundtrip_exact(query):
    assert query_from_wire(through_json(query_to_wire(query))) == query


@given(hit_lists())
def test_hits_roundtrip_exact(hits):
    assert list(decode_hits(through_json(encode_hits(hits)))) == hits


@given(representatives())
def test_plain_representative_roundtrip_exact(representative):
    assert over_the_wire(representative) == representative


@given(representatives(), st.sampled_from([7, 256, 300]))
def test_quantized_wire_equals_local_quantization(representative, levels):
    # A full delta lists terms in canonical order, and a grid's per-interval
    # means sum in term order: the local twin quantizes that same order.
    decoded = quantize_representative(over_the_wire(representative), levels)
    local = quantize_representative(canonicalize(representative), levels)
    assert decoded == local


@given(representatives(), st.floats(min_value=0.0, max_value=2.0))
def test_estimates_survive_the_wire_byte_for_byte(representative, threshold):
    terms = [t for t, __ in representative.items()][:4]
    if not terms:
        return
    query = Query(
        terms=tuple(terms), weights=tuple(1.0 for __ in terms)
    )
    estimator = SubrangeEstimator()
    local = estimator.estimate(query, representative, threshold)
    remote = estimator.estimate(query, over_the_wire(representative), threshold)
    assert remote == local


# -- decoder fuzzing: one mutated field per request ----------------------------


def documents(prefix, term_lists):
    return [Document(f"{prefix}{i}", terms=t) for i, t in enumerate(term_lists)]


CORPUS = [["rocket", "orbit"], ["rocket"], ["plum", "fuel"]]
WIRE_QUERY = query_to_wire(Query(terms=("rocket", "orbit"), weights=(2.0, 1.0)))
OTHER_QUERY = query_to_wire(Query(terms=("plum",), weights=(1.0,)))

#: Routes whose valid request changes the app's state (so each example
#: gets fresh apps and there is no "next request answers as before").
MUTATING = {("live", "/mutate")}


def build_apps():
    """The four apps over tiny corpora, and one valid body per POST route
    (the construction is deterministic, so so are the bodies)."""
    static = SearchEngine(Collection.from_documents("e0", documents("a", CORPUS)))
    broker = MetasearchBroker()
    broker.register(static)
    broker.register(
        SearchEngine(Collection.from_documents("e1", documents("b", CORPUS[:2])))
    )
    shard_broker = MetasearchBroker()
    shard_broker.register(static)
    shard_broker.sync_representative(
        LiveEngineServer("e1", documents("c", CORPUS))
    )
    apps = {
        "gateway": GatewayApp(broker),
        "shard": ShardApp(shard_broker),
        "engine": EngineApp(static),
        "live": LiveEngineApp(LiveEngineServer("lv", documents("d", CORPUS))),
    }
    search = {"query": WIRE_QUERY, "threshold": 0.2}
    bodies = {
        ("gateway", "/estimate"): search,
        ("gateway", "/search"): {**search, "limit": 3},
        ("gateway", "/batch"): {
            "queries": [WIRE_QUERY, OTHER_QUERY],
            "thresholds": [0.2, 0.1],
            "limit": 3,
        },
        ("shard", "/estimate"): {"queries": [WIRE_QUERY], "thresholds": [0.2]},
        ("shard", "/dispatch"): {
            "entries": [{**search, "engines": ["e0", "e1"]}]
        },
        ("engine", "/dispatch"): {"entries": [{**search, "engines": ["e0"]}]},
        ("engine", "/max_similarity"): {"query": WIRE_QUERY},
        ("live", "/dispatch"): {"entries": [{**search, "engines": ["lv"]}]},
        ("live", "/max_similarity"): {"query": WIRE_QUERY},
        ("live", "/mutate"): {
            "add": [{"doc_id": "x1", "terms": ["kiwi"], "text": "kiwi"}],
            "remove": ["d0"],
        },
    }
    return apps, bodies


def paths_of(node, prefix=()):
    """Every non-root position in a JSON document, as a key/index tuple."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from paths_of(child, prefix + (key,))


def replaced(body, path, value):
    body = copy.deepcopy(body)
    node = body
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return body


def post(app, route, body):
    return app.handle("POST", route, {}, json.dumps(body).encode("utf-8"))


def comparable(payload):
    """A response payload without its wall-clock parts."""
    if isinstance(payload, dict):
        return {
            key: comparable(value)
            for key, value in payload.items()
            if key != "latencies"
        }
    if isinstance(payload, list):
        return [comparable(value) for value in payload]
    return payload


APPS, BODIES = build_apps()
CASES = [
    (route, path) for route, body in BODIES.items() for path in paths_of(body)
]
BASELINE = {
    route: comparable(post(APPS[route[0]], route[1], body).payload)
    for route, body in BODIES.items()
    if route not in MUTATING
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 2**63, -1, 0])
    | st.floats()  # NaN and the infinities included: json.loads takes them
    | st.text(max_size=8)
    | st.sampled_from(["set", "del", "rocket", "e0", "query", "0.5", "2"]),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


def test_every_post_route_and_decoder_shape_is_fuzzed():
    assert {route for route, __ in CASES} == set(BODIES)
    records = PULL["edit"]["records"]
    assert {len(record) for record in records} == {2, 6}
    assert {path[0] for path in PULL_PATHS} == set(PULL["edit"])


def test_bodies_past_the_json_parser_limits_are_400():
    # A plain ValueError (integer digit limit) and a RecursionError, not
    # JSONDecodeErrors; neither can be written with json.dumps.
    for body in (b'{"threshold": ' + b"1" * 5000 + b"}", b"[" * 100_000):
        for name, route in BODIES:
            assert APPS[name].handle("POST", route, {}, body).status == 400


@given(st.sampled_from([c for c in CASES if c[0] not in MUTATING]), json_values)
@example((("gateway", "/search"), ("limit",)), math.inf)
@example((("gateway", "/batch"), ("limit",)), math.inf)
@example((("gateway", "/estimate"), ("query", "weights", 0)), math.nan)
@example((("gateway", "/search"), ("query", "weights", 1)), math.inf)
@example((("gateway", "/search"), ("threshold",)), 10**400)
@example((("shard", "/dispatch"), ("entries", 0, "engines", 1)), "e2")
def test_mutated_request_is_4xx_and_leaves_no_trace(case, value):
    route, path = case
    app, body = APPS[route[0]], BODIES[route]
    assert post(app, route[1], replaced(body, path, value)).status < 500
    after = post(app, route[1], body)
    assert after.status == 200
    assert comparable(after.payload) == BASELINE[route]


@given(st.sampled_from([c for c in CASES if c[0] in MUTATING]), json_values)
@example((("live", "/mutate"), ("add", 0, "doc_id")), "d1")  # add half refused
@example((("live", "/mutate"), ("remove",)), ["d0", "d0"])
@example((("live", "/mutate"), ("remove", 0)), "zz")
def test_mutated_write_is_4xx_and_changes_nothing(case, value):
    """A refused ``/mutate`` leaves no trace — not even the half of it
    that was valid — and the next valid write still applies."""
    route, path = case
    apps, bodies = build_apps()
    app = apps[route[0]]

    def state():
        return (
            app.server.version,
            app.server.doc_ids,
            app.handle("GET", "/representative", {}, b"").payload,
        )

    before = state()
    response = post(app, route[1], replaced(bodies[route], path, value))
    assert response.status < 500
    if response.status != 200:
        assert state() == before
        assert post(app, route[1], bodies[route]).status == 200
        assert app.server.doc_ids == ["d1", "d2", "x1"]
        assert app.server.version == 3  # documents at 1, remove, add


# -- replies a broker decodes from an engine host -------------------------------


def pull_replies():
    """What a broker holding ``e1`` at its first version decodes once
    ``e1`` has changed: the full delta it registered from, the edit delta
    its pull is answered with (two ``del`` and some ``set`` records), and
    the versions before and after."""
    live = LiveEngineServer("e1", documents("c", CORPUS))
    full, synced = live.delta_since(0).to_json_dict(), live.version
    live.remove_documents(["c2"])  # "plum", "fuel" vanish: two del records
    live.add_documents(documents("n", [["rocket", "kiwi"], ["kiwi"]]))
    return {
        "full": full,
        "synced": synced,
        "edit": live.delta_since(synced).to_json_dict(),
        "version": live.version,
        "current": live.delta_since(0).as_representative(),
    }


PULL = pull_replies()
PULL_PATHS = list(paths_of(PULL["edit"]))
DEAD_URL = "http://127.0.0.1:9"  # never dialed: _send is patched


def answering(replies):
    """A stand-in for ``_HTTPJsonClient._send``: nothing is sent, and every
    request is answered ``replies[<its path, without the query>]``."""

    def send(self, method, path, payload):
        body = json.dumps(replies[path.split("?")[0]]).encode("utf-8")
        return _Pending(_Connection(self.host, self.port), None, lambda: (body, None))

    return send


def hosted_broker(replies):
    """A broker holding ``e1`` from an engine host at :data:`DEAD_URL`, at
    the version ``replies`` first answer; its registry and the host."""
    broker = MetasearchBroker(registry=MetricsRegistry())
    host = EngineHost("host", _HTTPJsonClient(DEAD_URL))
    broker.sync_representative(HostedEngine("e1", host))
    host.probe()
    return broker, host


def held(broker):
    return (
        broker.representative_version("e1"),
        sorted(broker.fleet.materialize("e1").items()),
        broker.fleet.materialize("e1").n_documents,
    )


@given(st.sampled_from(PULL_PATHS), json_values)
@example(("records", 2), ["set", "a"])
@example(("records",), "x")
@example(("n_documents",), "2")
@example(("name",), ["e1"])
@example(("name",), "")  # another engine's delta: refused, not applied
@example(("records", 2, 3), math.nan)
@example(("to_version",), True)
@example(("from_version",), 0)  # full, from 3 documents
def test_a_garbled_pull_reply_is_refused_and_changes_nothing(path, value):
    """A pull answered with a garbled delta is counted as failed and
    leaves what the broker holds; the next well-formed reply catches it
    up."""
    replies = {
        "/healthz": {"versions": {"e1": PULL["synced"]}},
        "/representative": PULL["full"],
    }
    with unittest.mock.patch.object(
        _HTTPJsonClient, "_send", answering(replies)
    ), unittest.mock.patch.object(broker_module, "REPORT_MAX_AGE", 0.0):
        broker, __ = hosted_broker(replies)
        before = held(broker)
        replies["/healthz"] = {"versions": {"e1": PULL["version"]}}
        replies["/representative"] = replaced(PULL["edit"], path, value)
        broker.catch_up()
        if broker.registry.value("broker.pulls.failed"):
            assert held(broker) == before
            replies["/representative"] = PULL["edit"]
            broker.catch_up()
            current = PULL["current"]
            assert held(broker) == (
                PULL["version"], sorted(current.items()), current.n_documents
            )


REPORT_PATHS = [("versions",), ("versions", "e1")]


@given(st.sampled_from(REPORT_PATHS), json_values)
@example(("versions", "e1"), True)
@example(("versions", "e1"), -1)
@example(("versions", "e1"), 2**63)
@example(("versions", "e1"), "3")
@example(("versions",), [3])
def test_a_garbled_dispatch_report_fails_the_host_and_pulls_nothing(path, value):
    """A ``/dispatch`` reply whose version report is garbled fails the
    engines asked of the host with kind ``error`` and is not recorded."""
    report = {"results": {"e1": []}, "failures": [], "latencies": {"e1": 0.0}}
    replies = {
        "/healthz": {"versions": {"e1": PULL["synced"]}},
        "/representative": PULL["full"],
        "/dispatch": replaced(
            {
                "kind": "dispatches",
                "reports": [report],
                "versions": {"e1": PULL["synced"]},
            },
            path, value,
        ),
    }
    with unittest.mock.patch.object(
        _HTTPJsonClient, "_send", answering(replies)
    ), unittest.mock.patch.object(broker_module, "REPORT_MAX_AGE", 3600.0):
        broker, host = hosted_broker(replies)
        versions = host.versions
        [answer] = broker.reports([Query.from_terms(["rocket"])], [0.2], [["e1"]])
        broker.catch_up()
    if answer.failures:
        assert [(f.engine, f.kind) for f in answer.failures] == [("e1", "error")]
        assert host.versions is versions
        assert broker.registry.value("broker.pulls") in (None, 0)


@given(st.sampled_from(REPORT_PATHS), json_values)
@example(("versions", "e1"), False)
@example(("versions", "e1"), 1.0)
@example(("versions",), None)
def test_a_garbled_healthz_report_fails_the_probe_and_pulls_nothing(path, value):
    """A ``/healthz`` reply whose version report is garbled counts a
    failed probe, is not recorded and triggers no pull."""
    replies = {
        "/healthz": {"versions": {"e1": PULL["synced"]}},
        "/representative": PULL["full"],
    }
    with unittest.mock.patch.object(
        _HTTPJsonClient, "_send", answering(replies)
    ), unittest.mock.patch.object(broker_module, "REPORT_MAX_AGE", 0.0):
        broker, host = hosted_broker(replies)
        versions = host.versions
        replies["/healthz"] = replaced(
            {"versions": {"e1": PULL["version"]}}, path, value
        )
        broker.catch_up()
    if broker.registry.value("broker.probes.failed"):
        assert host.versions is versions
        assert broker.registry.value("broker.pulls") in (None, 0)
