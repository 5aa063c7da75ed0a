"""Property-based tests for the live-fleet delta subsystem.

The wire path's contract is *bit-exactness*: applying a
:class:`~repro.fleet.delta.RepresentativeDelta` to the representative it
was diffed from must reproduce the freshly rebuilt representative of the
mutated corpus exactly — same values, same canonical iteration order — on
both the dict and the columnar fleet backend.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Collection, Document
from repro.engine import SearchEngine
from repro.fleet import LiveEngineServer
from repro.fleet.delta import (
    RepresentativeDelta,
    TermDeltaRecord,
    canonicalize,
    diff_representatives,
)
from repro.representatives import build_representative
from repro.representatives.columnar import FleetRepresentativeStore
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
        held = server.snapshot().representative
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
            _assert_identical(held, server.snapshot().representative)

    @given(live_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_composed_catchup_equals_rebuild(self, scenario):
        initial, mutations = scenario
        counter = itertools.count()
        server = LiveEngineServer(
            "db", [Document(f"d{next(counter)}", t) for t in initial]
        )
        base = server.snapshot()
        _run_script(server, mutations, counter)
        composed = server.delta_since(base.version)
        applied = apply_delta(base.representative, composed)
        _assert_identical(applied, server.snapshot().representative)

    @given(live_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_wire_roundtrip_preserves_exactness(self, scenario):
        initial, mutations = scenario
        counter = itertools.count()
        server = LiveEngineServer(
            "db", [Document(f"d{next(counter)}", t) for t in initial]
        )
        base = server.snapshot()
        _run_script(server, mutations, counter)
        composed = server.delta_since(base.version)
        decoded = RepresentativeDelta.decode(composed.encode())
        assert decoded == composed
        applied = apply_delta(base.representative, decoded)
        _assert_identical(applied, server.snapshot().representative)

    def test_del_of_absent_term_is_noop(self):
        server = LiveEngineServer("db", [Document("d1", ["w0", "w1"])])
        representative = server.snapshot().representative
        delta = RepresentativeDelta(
            name="db",
            from_version=0,
            to_version=1,
            from_n_documents=1,
            n_documents=1,
            records=(TermDeltaRecord(op="del", term="ghost"),),
        )
        applied = apply_delta(representative, delta)
        _assert_identical(applied, representative)

    def test_empty_delta_is_identity(self):
        server = LiveEngineServer("db", [Document("d1", ["w0", "w1"])])
        representative = server.snapshot().representative
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
        store.add(server.snapshot().representative)
        for delta in _run_script(server, mutations, counter):
            store.apply_delta(delta)
        fresh = server.snapshot().representative
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
        base = server.snapshot()
        store = FleetRepresentativeStore()
        store.add(base.representative)
        _run_script(server, mutations, counter)
        store.apply_delta(server.delta_since(base.version))
        fresh = server.snapshot().representative
        materialized = store.materialize("db")
        for term, stats in fresh.items():
            assert materialized.get(term) == stats
        assert len(dict(materialized.items())) == len(dict(fresh.items()))


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
        delta = diff_representatives(old, new, from_version=0, to_version=1)
        for record in delta.records:
            if record.op == "set":
                assert record.stats.max_weight is None
        decoded = RepresentativeDelta.decode(delta.encode())
        _assert_identical(apply_delta(old, decoded), new)

