"""Property-based tests for the live-fleet delta subsystem.

The wire path's contract is *bit-exactness*: applying a
:class:`~repro.fleet.delta.RepresentativeDelta` to the representative it
was diffed from must reproduce the freshly rebuilt representative of the
mutated corpus exactly — same values, same canonical iteration order — on
both the dict and the columnar fleet backend.  And whatever version a
broker syncs from, it ends up estimating exactly like a broker built from
the engine's current statistics.  So does the coordinator, over any
sequence of accepted, stale and malformed deltas sent through
``ShardedFleet.apply_delta``.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_estimator
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.fleet import LiveEngineServer
from repro.fleet.delta import (
    RepresentativeDelta,
    TermDeltaRecord,
    canonicalize,
    diff_representatives,
)
from repro.metasearch import MetasearchBroker
from repro.representatives import DatabaseRepresentative, build_representative
from repro.representatives.columnar import FleetRepresentativeStore
from repro.serving import RemoteServingError, ServingServer, ShardApp, ShardedFleet
from repro.serving.remote_engine import _HTTPJsonClient
from tests.oracle import apply_delta

VOCAB = [f"w{i}" for i in range(10)]
FRESH = [f"x{i}" for i in range(6)]


def _terms(draw, alphabet=VOCAB):
    return draw(
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=8)
    )


@st.composite
def live_scenarios(draw):
    """An initial corpus plus a mutation script.

    Each mutation is ``("add", [term_lists])`` (fresh doc ids, possibly
    fresh vocabulary — the "unknown terms" case) or ``("remove", k)``
    (drop the k oldest surviving documents, clamped to keep one).
    """
    n_initial = draw(st.integers(min_value=1, max_value=6))
    initial = [_terms(draw) for __ in range(n_initial)]
    n_mutations = draw(st.integers(min_value=1, max_value=4))
    mutations = []
    for __ in range(n_mutations):
        if draw(st.booleans()):
            n_added = draw(st.integers(min_value=1, max_value=3))
            mutations.append(
                ("add", [_terms(draw, VOCAB + FRESH) for __ in range(n_added)])
            )
        else:
            mutations.append(("remove", draw(st.integers(min_value=1, max_value=3))))
    return initial, mutations


def _run_script(server, mutations, counter):
    """Apply the mutation script; returns the per-mutation deltas."""
    deltas = []
    for kind, spec in mutations:
        if kind == "add":
            documents = [
                Document(f"a{next(counter)}", terms) for terms in spec
            ]
            deltas.append(server.add_documents(documents))
        else:
            doomed = server.doc_ids[: min(spec, server.n_documents - 1)]
            if not doomed:
                continue
            deltas.append(server.remove_documents(doomed))
    return deltas


def current(server):
    """The server's whole representative: its full delta's."""
    return server.delta_since(0).as_representative()


def _assert_identical(applied, fresh):
    """Bit-exact: same canonical order, same float values, same n."""
    assert applied.n_documents == fresh.n_documents
    assert list(applied.items()) == list(fresh.items())


class TestDictDeltaExactness:
    @given(live_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_stepwise_apply_equals_rebuild(self, scenario):
        initial, mutations = scenario
        counter = itertools.count()
        server = LiveEngineServer(
            "db", [Document(f"d{next(counter)}", t) for t in initial]
        )
        held = current(server)
        for kind, spec in mutations:
            if kind == "add":
                delta = server.add_documents(
                    [Document(f"a{next(counter)}", t) for t in spec]
                )
            else:
                doomed = server.doc_ids[: min(spec, server.n_documents - 1)]
                if not doomed:
                    continue
                delta = server.remove_documents(doomed)
            held = apply_delta(held, delta)
            _assert_identical(held, current(server))

    @given(live_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_composed_catchup_equals_rebuild(self, scenario):
        initial, mutations = scenario
        counter = itertools.count()
        server = LiveEngineServer(
            "db", [Document(f"d{next(counter)}", t) for t in initial]
        )
        base = server.delta_since(0)
        _run_script(server, mutations, counter)
        composed = server.delta_since(base.to_version)
        applied = apply_delta(base.as_representative(), composed)
        _assert_identical(applied, current(server))

    @given(live_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_wire_roundtrip_preserves_exactness(self, scenario):
        initial, mutations = scenario
        counter = itertools.count()
        server = LiveEngineServer(
            "db", [Document(f"d{next(counter)}", t) for t in initial]
        )
        base = server.delta_since(0)
        _run_script(server, mutations, counter)
        composed = server.delta_since(base.to_version)
        decoded = RepresentativeDelta.decode(composed.encode())
        assert decoded == composed
        applied = apply_delta(base.as_representative(), decoded)
        _assert_identical(applied, current(server))

    def test_del_of_absent_term_is_noop(self):
        server = LiveEngineServer("db", [Document("d1", ["w0", "w1"])])
        representative = current(server)
        delta = RepresentativeDelta(
            name="db",
            from_version=1,
            to_version=2,
            from_n_documents=1,
            n_documents=1,
            records=(TermDeltaRecord(op="del", term="ghost"),),
        )
        applied = apply_delta(representative, delta)
        _assert_identical(applied, representative)

    def test_empty_delta_is_identity(self):
        server = LiveEngineServer("db", [Document("d1", ["w0", "w1"])])
        representative = current(server)
        delta = server.delta_since(server.version)
        assert delta.is_empty
        _assert_identical(apply_delta(representative, delta), representative)


class TestColumnarDeltaExactness:
    @given(live_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_fleet_store_apply_equals_rebuild(self, scenario):
        initial, mutations = scenario
        counter = itertools.count()
        server = LiveEngineServer(
            "db", [Document(f"d{next(counter)}", t) for t in initial]
        )
        store = FleetRepresentativeStore()
        store.add(current(server))
        for delta in _run_script(server, mutations, counter):
            store.apply_delta(delta)
        fresh = current(server)
        materialized = store.materialize("db")
        assert materialized.n_documents == fresh.n_documents
        assert set(dict(materialized.items())) == set(dict(fresh.items()))
        for term, stats in fresh.items():
            assert materialized.get(term) == stats

    @given(live_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_fleet_store_composed_apply(self, scenario):
        initial, mutations = scenario
        counter = itertools.count()
        server = LiveEngineServer(
            "db", [Document(f"d{next(counter)}", t) for t in initial]
        )
        base = server.delta_since(0)
        store = FleetRepresentativeStore()
        store.add(base.as_representative())
        _run_script(server, mutations, counter)
        store.apply_delta(server.delta_since(base.to_version))
        fresh = current(server)
        materialized = store.materialize("db")
        for term, stats in fresh.items():
            assert materialized.get(term) == stats
        assert len(dict(materialized.items())) == len(dict(fresh.items()))


ESTIMATORS = [
    "basic", "binary-independence", "gloss-hc", "gloss-disjoint", "subrange",
]
SYNC_QUERIES = [
    Query(terms=("w0",), weights=(1.0,)),
    Query(terms=("w1", "w2"), weights=(2.0, 1.0)),
    Query(terms=("x0", "w3", "w4"), weights=(1.0, 1.0, 3.0)),
]


class TestAnySinceSyncsToTheTruth:
    """``broker.sync_representative`` from any held version — none at all,
    0, one the engine's log retains, one compacted out of it, one ahead of
    the engine — leaves the broker's rows equal to a broker built from the
    engine's current statistics, for every estimator."""

    @given(live_scenarios(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_sync_from_any_since(self, scenario, data):
        initial, mutations = scenario
        counter = itertools.count()
        server = LiveEngineServer(
            "db", [Document(f"d{next(counter)}", t) for t in initial],
            log_limit=2,
        )
        held = {server.version: server.delta_since(0)}
        for kind, spec in mutations:
            _run_script(server, [(kind, spec)], counter)
            held[server.version] = server.delta_since(0)
        retained = range(server.compacted_below, server.version + 1)
        candidates = [("none", None), ("zero", 0), ("ahead", server.version + 3)]
        candidates += [("retained", v) for v in retained]
        candidates += [
            ("compacted", v) for v in range(1, server.compacted_below)
        ]
        kind, since = data.draw(st.sampled_from(candidates))
        for name in ESTIMATORS:
            broker = MetasearchBroker(estimator=get_estimator(name))
            if kind == "zero":
                broker.register(
                    server,
                    representative=DatabaseRepresentative("db", 0, {}),
                    version=0,
                )
            elif kind != "none":
                # What the broker held at ``since``; ahead of the engine,
                # it holds another run's representative.
                base = held.get(since, held[min(held)])
                broker.register(
                    server,
                    representative=base.as_representative(),
                    version=since,
                )
            report = broker.sync_representative(server)
            assert report.to_version == server.version
            assert report.mode == "full" or kind == "retained"
            truth = MetasearchBroker(estimator=get_estimator(name))
            truth.register(server, representative=current(server))
            for query in SYNC_QUERIES:
                for threshold in (0.0, 0.2, 0.5):
                    assert broker.estimate_all(query, threshold) == (
                        truth.estimate_all(query, threshold)
                    )


@st.composite
def corpus_pairs(draw):
    """Old and new corpora sharing a name — the rep-diff use case."""
    n_old = draw(st.integers(min_value=1, max_value=6))
    old_docs = [_terms(draw) for __ in range(n_old)]
    keep = draw(st.integers(min_value=1, max_value=n_old))
    n_new = draw(st.integers(min_value=0, max_value=3))
    new_docs = old_docs[:keep] + [
        _terms(draw, VOCAB + FRESH) for __ in range(n_new)
    ]
    return old_docs, new_docs


class TestTripletModeDeltas:
    """Deltas over max-weight-free (triplet) representatives."""

    @given(corpus_pairs())
    @settings(max_examples=60, deadline=None)
    def test_diff_apply_roundtrip_without_max(self, pair):
        old_docs, new_docs = pair
        old = canonicalize(
            build_representative(
                SearchEngine(
                    Collection.from_documents(
                        "db",
                        [Document(f"d{i}", t) for i, t in enumerate(old_docs)],
                    )
                ),
                include_max_weight=False,
            )
        )
        new = canonicalize(
            build_representative(
                SearchEngine(
                    Collection.from_documents(
                        "db",
                        [Document(f"e{i}", t) for i, t in enumerate(new_docs)],
                    )
                ),
                include_max_weight=False,
            )
        )
        delta = diff_representatives(old, new, from_version=1, to_version=2)
        for record in delta.records:
            if record.op == "set":
                assert record.stats.max_weight is None
        decoded = RepresentativeDelta.decode(delta.encode())
        _assert_identical(apply_delta(old, decoded), new)



@st.composite
def sharded_scenarios(draw):
    """2-4 live engines, each registered on its shard with or without a
    version, and 1-6 delta steps: ``("accept", e, mutation)`` ships the
    mutated engine's delta, ``("stale", e)`` one from a version the shard
    does not hold (409), ``("malformed", e)`` a full delta claiming a base
    of documents (400), ``("unreachable", e, mutation)`` the next
    delta to a shard that cannot be reached, and ``("lost", e,
    mutation)`` the next delta, which the shard applies but whose reply
    is lost."""
    n_engines = draw(st.integers(min_value=2, max_value=4))
    initial = [
        [_terms(draw) for __ in range(draw(st.integers(1, 4)))]
        for __ in range(n_engines)
    ]
    versioned = [draw(st.booleans()) for __ in range(n_engines)]
    mutation = st.one_of(
        st.tuples(
            st.just("add"),
            st.lists(st.lists(st.sampled_from(VOCAB + FRESH), min_size=1,
                              max_size=6), min_size=1, max_size=2),
        ),
        st.tuples(st.just("remove"), st.integers(min_value=1, max_value=2)),
    )
    engine = st.integers(min_value=0, max_value=n_engines - 1)
    steps = draw(st.lists(
        st.one_of(
            st.tuples(st.just("accept"), engine, mutation),
            st.tuples(st.just("stale"), engine),
            st.tuples(st.just("malformed"), engine),
            st.tuples(st.just("unreachable"), engine, mutation),
            st.tuples(st.just("lost"), engine, mutation),
        ),
        min_size=1,
        max_size=6,
    ))
    return initial, versioned, steps


def hexed_rows(rows):
    """Each row best first, its values bit for bit."""
    return [
        [(e.engine, e.usefulness.nodoc.hex(), e.usefulness.avgsim.hex())
         for e in row]
        for row in rows
    ]


class LosesDeltaReplies:
    """A shard client whose ``POST /delta`` reaches the shard but whose
    reply is lost."""

    def __init__(self, client):
        self.client = client

    def request(self, method, path, *args, **kwargs):
        answer = self.client.request(method, path, *args, **kwargs)
        if path == "/delta":
            raise RemoteServingError("connection reset by peer")
        return answer


class TestShardedDeltasStayExact:
    """After every step the coordinator's rows hex-equal a from-scratch
    broker over the representatives the shards hold, for all five
    estimators; a refused forward leaves its rows, its cache contents and
    its broker generation as they were, and one whose reply is lost
    leaves the coordinator holding what the shard holds."""

    THRESHOLDS = [0.0, 0.2, 0.5]

    @pytest.fixture(scope="class")
    def servers(self):
        apps = [ShardApp(MetasearchBroker(), shard_index=i) for i in range(2)]
        servers = [ServingServer(app) for app in apps]
        for server in servers:
            server.start_background()
        try:
            yield apps, [server.url for server in servers]
        finally:
            for server in servers:
                server.drain(timeout=10)

    @pytest.mark.parametrize("name", ESTIMATORS)
    @settings(max_examples=40, deadline=None)
    @given(scenario=sharded_scenarios())
    def test_rows_equal_a_fresh_broker_after_every_step(
        self, servers, name, scenario
    ):
        apps, urls = servers
        initial, versioned, steps = scenario
        counter = itertools.count()
        engines = [
            LiveEngineServer(
                f"engine{e}",
                [Document(f"d{next(counter)}", terms) for terms in docs],
            )
            for e, docs in enumerate(initial)
        ]
        shipped = {}  # engine name -> the live version its shard holds
        recorded = {}  # engine name -> the version its shard records
        # The servers outlive examples; each example installs its own
        # shard brokers before the coordinator attaches.
        for index, app in enumerate(apps):
            app.broker = MetasearchBroker()
            for e in range(index, len(engines), len(apps)):
                live, base = engines[e], engines[e].delta_since(0)
                app.broker.register(
                    live,
                    representative=base.as_representative(),
                    version=base.to_version if versioned[e] else None,
                )
                shipped[live.name] = base.to_version
                recorded[live.name] = base.to_version if versioned[e] else None
        fleet = ShardedFleet(urls, estimator=get_estimator(name)).attach(
            timeout=10.0
        )
        batch = [q for q in SYNC_QUERIES for __ in self.THRESHOLDS]
        thresholds = self.THRESHOLDS * len(SYNC_QUERIES)

        def rows():
            return hexed_rows(fleet.estimate_batch(batch, thresholds))

        def fresh_rows():
            truth = MetasearchBroker(estimator=get_estimator(name))
            for live in engines:
                truth.register(live, representative=app_representative(live))
            return hexed_rows(truth.estimate_batch(batch, thresholds))

        def app_representative(live):
            owner = apps[engines.index(live) % len(apps)]
            return owner.broker.fleet.materialize(live.name)

        try:
            assert rows() == fresh_rows()
            for step in steps:
                kind, live = step[0], engines[step[1]]
                if kind in ("accept", "unreachable", "lost"):
                    _run_script(live, [step[2]], counter)
                delta = live.delta_since(shipped[live.name])
                if kind == "stale":
                    base = shipped[live.name] + 5
                    delta = dataclasses.replace(
                        delta, from_version=base, to_version=base + 1
                    )
                elif kind == "malformed":
                    delta = dataclasses.replace(
                        live.delta_since(0), from_n_documents=1
                    )
                if kind == "stale" and recorded[live.name] is None:
                    continue  # a shard that records no version takes any base
                if kind == "accept":
                    fleet.apply_delta(delta)
                    shipped[live.name] = recorded[live.name] = delta.to_version
                    assert rows() == fresh_rows()
                    continue
                shard = fleet.local.engine_of(live.name).shard
                client = shard.client
                if kind == "lost":
                    shard.client = LosesDeltaReplies(client)
                    try:
                        with pytest.raises(RemoteServingError) as lost:
                            fleet.apply_delta(delta)
                    finally:
                        shard.client = client
                    assert lost.value.status is None
                    shipped[live.name] = recorded[live.name] = delta.to_version
                    assert rows() == fresh_rows()
                    continue
                before = (
                    rows(),
                    {k: dict(v) for k, v in fleet.local.cache._rows.items()},
                    fleet.local._generation,
                )
                if kind == "unreachable":
                    shard.client = _HTTPJsonClient("http://127.0.0.1:9")
                try:
                    with pytest.raises(RemoteServingError) as refused:
                        fleet.apply_delta(delta)
                finally:
                    shard.client = client
                if kind != "unreachable":
                    assert refused.value.status == (
                        409 if kind == "stale" else 400
                    )
                assert (
                    {k: dict(v) for k, v in fleet.local.cache._rows.items()},
                    fleet.local._generation,
                ) == before[1:]
                assert rows() == before[0] == fresh_rows()
        finally:
            fleet.close()
