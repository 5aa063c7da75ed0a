"""Model-based wall for the live engine's in-place index.

``LiveEngineServer`` edits its postings and per-term statistics in place:
a mutation touches only the documents it adds or removes and emits its
delta records directly.  The model is ``tests.oracle.RebuiltLiveEngine``,
which rebuilds the collection, the index and the canonical representative
after every mutation and diffs two rebuilds.  The machine adds documents
(fresh vocabulary, no terms at all, one term repeated many times), removes
them, re-adds removed ids (they go to the end of the document order),
drains the engine to zero documents and sends empty batches.  After every
rule the two engines agree on:

* the mutation's delta;
* the full delta (``delta_since(0)``, built from the live statistics, not
  the log) — terms, their order, every statistic bit for bit;
* ``delta_since(v)`` for every version the live log retains, and the full
  delta for every other ``v``: ``None``, compacted below the log, ahead
  of the engine;
* ``doc_ids`` and ``n_documents``;
* ``search`` and ``max_similarity`` — similarities bit for bit — on drawn
  queries and thresholds, a term neither engine holds included.
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.corpus import Document, Query
from repro.fleet import LiveEngineServer
from tests.oracle import RebuiltLiveEngine

VOCAB = [f"w{i}" for i in range(8)]
FRESH = [f"x{i}" for i in range(4)]
LOG_LIMIT = 6

term_lists = st.lists(st.sampled_from(VOCAB + FRESH), min_size=1, max_size=8)
queries = st.builds(
    lambda terms, weights: Query(tuple(terms), tuple(weights[: len(terms)])),
    st.lists(
        st.sampled_from(VOCAB + FRESH + ["absent"]),
        min_size=1, max_size=3, unique=True,
    ),
    st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=3, max_size=3),
)
thresholds = st.sampled_from([0.0, 0.1, 0.3, 0.5]) | st.floats(0.0, 1.0)


def bits(representative):
    """Terms in iteration order with their statistics' float64 bytes."""
    return representative.n_documents, [
        (term, tuple(
            np.float64(value).tobytes()
            for value in (s.probability, s.mean, s.std, s.max_weight)
        ))
        for term, s in representative.items()
    ]


def hit_bits(hits):
    return [(h.doc_id, h.engine, h.similarity.hex()) for h in hits]


class LiveEngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ids = (f"d{i}" for i in itertools.count())
        self.removed = []

    def new_documents(self, data, lists=term_lists):
        return [
            Document(next(self.ids), terms)
            for terms in data.draw(st.lists(lists, min_size=1, max_size=3))
        ]

    def mutate(self, data, method, batch):
        got = getattr(self.live, method)(batch)
        want = getattr(self.oracle, method)(batch)
        assert got == want
        self.check_queries(data)

    def check_queries(self, data):
        for query in data.draw(st.lists(queries, min_size=1, max_size=3)):
            threshold = data.draw(thresholds)
            assert hit_bits(self.live.search(query, threshold)) == hit_bits(
                self.oracle.search(query, threshold)
            )
            assert self.live.max_similarity(query).hex() == (
                self.oracle.max_similarity(query).hex()
            )

    @initialize(data=st.data())
    def start(self, data):
        documents = self.new_documents(data) if data.draw(st.booleans()) else []
        self.live = LiveEngineServer("db", documents, log_limit=LOG_LIMIT)
        self.oracle = RebuiltLiveEngine("db", documents)
        self.check_queries(data)

    @rule(data=st.data())
    def add(self, data):
        self.mutate(data, "add_documents", self.new_documents(data))

    @rule(data=st.data())
    def add_without_terms(self, data):
        self.mutate(data, "add_documents", [Document(next(self.ids), [])])

    @rule(data=st.data(), term=st.sampled_from(VOCAB), k=st.integers(2, 300))
    def add_one_term_repeated(self, data, term, k):
        extra = data.draw(st.lists(st.sampled_from(VOCAB), max_size=2))
        self.mutate(
            data, "add_documents", [Document(next(self.ids), [term] * k + extra)]
        )

    @precondition(lambda self: self.live.n_documents)
    @rule(data=st.data())
    def remove(self, data):
        doomed = data.draw(st.lists(
            st.sampled_from(self.live.doc_ids), min_size=1, max_size=3,
            unique=True,
        ))
        self.removed += [self.oracle.document(doc_id) for doc_id in doomed]
        self.mutate(data, "remove_documents", doomed)

    @precondition(lambda self: self.removed)
    @rule(data=st.data())
    def re_add(self, data):
        document = self.removed.pop(
            data.draw(st.integers(0, len(self.removed) - 1))
        )
        self.mutate(data, "add_documents", [document])
        assert self.live.doc_ids[-1] == document.doc_id

    @precondition(lambda self: self.live.n_documents)
    @rule(data=st.data())
    def drain(self, data):
        doomed = self.live.doc_ids
        self.removed += [self.oracle.document(doc_id) for doc_id in doomed]
        self.mutate(data, "remove_documents", doomed)
        assert self.live.delta_since(0).as_representative().n_terms == 0

    @rule(method=st.sampled_from(["add_documents", "remove_documents"]))
    def empty_batch(self, method):
        version = self.live.version
        delta = getattr(self.live, method)([])
        assert self.live.version == version
        assert delta == self.live.delta_since(version) and delta.is_empty

    @invariant()
    def same_documents(self):
        assert self.live.doc_ids == self.oracle.doc_ids
        assert self.live.n_documents == self.oracle.n_documents

    @invariant()
    def same_full_delta(self):
        got, want = self.live.delta_since(0), self.oracle.delta_since(0)
        assert got == want and got.is_full
        assert got.to_version == self.live.version == self.oracle.version
        assert bits(got.as_representative()) == bits(self.oracle.representative)

    @invariant()
    def same_catch_up_from_every_retained_version(self):
        for since in range(self.live.compacted_below, self.live.version + 1):
            if since:
                assert self.live.delta_since(since) == self.oracle.delta_since(since)
        full = self.oracle.delta_since(0)
        past = [None, self.live.version + 1, self.live.version + 7]
        past += range(1, self.live.compacted_below)  # compacted out of the log
        for since in past:
            assert self.live.delta_since(since) == full


TestLiveEngine = LiveEngineMachine.TestCase
TestLiveEngine.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
