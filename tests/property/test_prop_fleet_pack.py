"""Model-based wall for the fleet store's merge pack.

``FleetRepresentativeStore`` keeps changed engines *pending* and, on the
next fleet-wide read, merges them into its packed term-major layout: the
other engines' entries keep their place and the pending ones are spliced
in.  The claim is that the merge is invisible.  The machine interleaves
registrations, replacements (quadruplet <-> triplet), delta applies (one
of them down to zero documents), growth of the shared vocabulary and
reads, with any number of changes pending between two reads.  After every
read:

* every packed array — ``starts``, ``engine_idx`` (values *and* dtype),
  ``p``, ``w`` and the ``extra_pos`` / ``sigma_extra`` / ``mw_extra`` side
  channel — equals bitwise the layout of a store packed once, from
  scratch, over every engine's ``materialize`` in registration order;
* ``gather`` answers bitwise like that store, for held, absent, unknown
  and not-yet-packed term ids.

And after every step each engine reads back as the model: the dict
representative its rules imply, deltas applied by the dict-form reference
``tests.oracle.apply_delta``, compared float bit by float bit (``-0.0``
sigmas included).  A separate case registers past 256 engines so the
``engine_idx`` dtype widens from uint8 to uint16 mid-life.
"""

import io

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.fleet.delta import RepresentativeDelta, TermDeltaRecord
from repro.representatives import (
    DatabaseRepresentative,
    FleetRepresentativeStore,
    TermStats,
)
from repro.representatives.columnar import UNKNOWN_TERM
from tests.oracle import apply_delta

LAYOUT = ("starts", "engine_idx", "p", "w", "extra_pos", "sigma_extra", "mw_extra")

weights = st.floats(min_value=0.0, max_value=1.0)
sigmas = st.sampled_from([0.0, -0.0]) | weights


def fresh_layout_of(store):
    """A store packed once over ``store``'s engines (registration order,
    shared vocabulary) — the layout the merges must reproduce.  The layout
    does not depend on ``binary_mean_w``, which ``materialize`` drops."""
    fresh = FleetRepresentativeStore(store.vocab)
    for name in store.engine_names:
        fresh.add(store.materialize(name))
    return fresh, fresh._ensure_packed()


def assert_same_layout(store):
    packed = store._ensure_packed()
    fresh, expected = fresh_layout_of(store)
    # The shared vocabulary may have grown since the last merge with no
    # engine changing; the layout then stops at the vocabulary it saw, and
    # the fresh store's extra terms must hold nothing.
    assert packed.vocab_size <= expected.vocab_size
    tail = expected.starts[packed.vocab_size + 1:]
    assert (tail == expected.starts[packed.vocab_size]).all()
    for field in LAYOUT:
        got, want = getattr(packed, field), getattr(expected, field)
        if field == "starts":
            want = want[: packed.vocab_size + 1]
        assert got.dtype == want.dtype, field
        assert got.tobytes() == want.tobytes(), field
    return fresh


def bits(representative):
    """Term -> the statistics' float64 bytes (``None`` kept as ``None``)."""
    return {
        term: tuple(
            None if value is None else np.float64(value).tobytes()
            for value in (s.probability, s.mean, s.std, s.max_weight)
        )
        for term, s in representative.items()
    }


@st.composite
def term_stats(draw, n_documents, triplet, max_df=None):
    df = draw(st.integers(1, max_df or n_documents))
    mean = draw(weights)
    return TermStats(
        probability=df / n_documents,
        mean=mean,
        std=draw(sigmas),
        max_weight=None if triplet else draw(st.just(mean) | weights),
    )


class FleetPackMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = FleetRepresentativeStore()
        self.model = {}
        self.pool = [f"t{i}" for i in range(8)]

    def representative(self, data, name):
        n = data.draw(st.integers(1, 9), label="n_documents")
        triplet = data.draw(st.booleans(), label="triplet")
        terms = data.draw(
            st.lists(st.sampled_from(self.pool), unique=True, max_size=6)
        )
        return DatabaseRepresentative(
            name, n, {t: data.draw(term_stats(n, triplet)) for t in terms}
        )

    def register(self, data, name):
        rep = self.representative(data, name)
        if data.draw(st.booleans(), label="as columnar"):
            # Through a one-engine bundle loaded into the shared vocabulary.
            one = FleetRepresentativeStore()
            one.add(rep)
            buffer = io.BytesIO()
            one.save_npz(buffer)
            buffer.seek(0)
            loaded = FleetRepresentativeStore.load_npz(buffer, self.store.vocab)
            self.store.add(loaded.materialize(name))
        else:
            self.store.add(rep)
        self.model[name] = rep

    @rule(data=st.data())
    def add_engine(self, data):
        self.register(data, f"e{len(self.model)}")

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def replace_engine(self, data):
        self.register(data, data.draw(st.sampled_from(sorted(self.model))))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def apply_delta(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        held = self.model[name]
        n_old = held.n_documents
        n_new = data.draw(st.integers(0, 9), label="n_new")
        triplet = not held.has_max_weights
        records = []
        for term, stats in held.items():
            df = round(stats.probability * n_old)
            # A kept term rescales to df / n_new, so it must still fit.
            ops = ["del"] if n_new == 0 else ["del", "set"]
            if 0 < df <= n_new:
                ops.append("keep")
            op = data.draw(st.sampled_from(ops), label=term)
            if op == "del":
                records.append(TermDeltaRecord("del", term))
            elif op == "set":
                records.append(TermDeltaRecord(
                    "set", term, data.draw(term_stats(n_new, triplet))
                ))
        if n_new:
            absent = [t for t in self.pool if t not in held]
            for term in data.draw(
                st.lists(st.sampled_from(absent), unique=True, max_size=3)
                if absent else st.just([])
            ):
                records.append(TermDeltaRecord(
                    "set", term, data.draw(term_stats(n_new, triplet))
                ))
        delta = RepresentativeDelta(
            name=name, from_version=0, to_version=1,
            from_n_documents=n_old, n_documents=n_new, records=tuple(records),
        )
        self.store.apply_delta(delta)
        self.model[name] = apply_delta(held, delta)

    @rule(k=st.integers(1, 3))
    def grow_vocabulary(self, k):
        """Another user of the shared vocabulary interns terms no engine
        holds yet; later rules may register them."""
        for __ in range(k):
            term = f"t{len(self.pool)}"
            self.store.vocab.intern(term)
            self.pool.append(term)

    @rule(data=st.data())
    def gather(self, data):
        vocab = self.store.vocab
        ids = data.draw(st.lists(
            st.sampled_from(
                [UNKNOWN_TERM, len(vocab)]
                + vocab.ids_of(self.pool).tolist()
            ),
            max_size=5,
        ))
        got = self.store.gather(np.asarray(ids, dtype=np.int64))
        fresh = assert_same_layout(self.store)
        want = fresh.gather(np.asarray(ids, dtype=np.int64))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @invariant()
    def engines_read_back_as_the_model(self):
        assert self.store.engine_names == list(self.model)
        for name, rep in self.model.items():
            held = self.store.materialize(name)
            assert held.n_documents == rep.n_documents
            assert bits(held) == bits(rep)


TestFleetPack = FleetPackMachine.TestCase
TestFleetPack.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def test_engine_idx_widens_past_256_engines():
    store = FleetRepresentativeStore()
    terms = [f"t{i}" for i in range(5)]

    def rep(e, n=4):
        return DatabaseRepresentative(f"e{e}", n, {
            t: TermStats(
                probability=(1 + (e + i) % n) / n, mean=(e + i) % 7 / 7,
                std=0.0 if (e + i) % 3 else 0.125,
                max_weight=None if e % 5 == 0 else ((e + i) % 7 + 1) / 7,
            )
            for i, t in enumerate(terms) if (e + i) % 4
        })

    for e in range(255):
        store.add(rep(e))
    assert store._ensure_packed().engine_idx.dtype == np.uint8
    assert_same_layout(store)
    store.add(rep(3, n=5))  # a replacement pending beside the new engines
    for e in range(255, 259):
        store.add(rep(e))
    ids = store.vocab.ids_of(terms)
    got = store.gather(ids)
    assert store._ensure_packed().engine_idx.dtype == np.uint16
    fresh = assert_same_layout(store)
    for a, b in zip(got, fresh.gather(ids)):
        assert a.tobytes() == b.tobytes()
