"""Property-based tests for the columnar fleet store and vectorized path.

Two invariants the columnar subsystem promises:

* **Lossless round-trip** — the fleet store (``add`` then ``materialize``,
  and its ``.npz`` binary form) reproduces the dict-of-dataclasses
  representative exactly, float for float, including triplet-mode
  ``max_weight=None``.
* **Bit-identity** — :func:`repro.core.fleet_usefulness_grid` returns the
  *same bits* as the scalar estimators for every engine, across all six
  estimator families, quadruplet and triplet representatives, disjoint
  vocabularies, and query terms unknown to every engine; and a
  multi-query :func:`repro.core.fleet_usefulness_rows` call — (query,
  engine) rows, short queries padded — returns the same bits as one grid
  per query.
"""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BasicEstimator,
    BinaryIndependenceEstimator,
    GlossDisjointEstimator,
    GlossHighCorrelationEstimator,
    PreviousMethodEstimator,
    SubrangeEstimator,
    fleet_usefulness_grid,
    fleet_usefulness_rows,
)
from repro.corpus import Query
from repro.representatives import (
    DatabaseRepresentative,
    FleetRepresentativeStore,
    SubrangeScheme,
    TermStats,
)

# A deliberately small pool: collisions between engines are common, but
# each engine samples its own subset so disjoint vocabularies also occur.
POOL = tuple(f"term{i}" for i in range(8))
UNKNOWN = ("ghost0", "ghost1")

_WEIGHTS = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def representatives(draw):
    n = draw(st.integers(min_value=0, max_value=500))
    triplet = draw(st.booleans())
    stats = {}
    for term in draw(st.permutations(POOL)):
        if not draw(st.booleans()):
            continue
        mean = draw(_WEIGHTS)
        stats[term] = TermStats(
            probability=draw(st.floats(min_value=0.001, max_value=1.0)),
            mean=mean,
            std=draw(st.floats(min_value=0.0, max_value=0.4)),
            max_weight=None
            if triplet
            else mean + draw(st.floats(min_value=0.0, max_value=0.5)),
        )
    return DatabaseRepresentative(
        f"r{draw(st.integers(0, 10_000))}", n_documents=n, term_stats=stats
    )


@st.composite
def queries(draw):
    pool = POOL + UNKNOWN
    terms = tuple(
        sorted(draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4)))
    )
    weights = tuple(draw(_WEIGHTS) for __ in terms)
    return Query(terms=terms, weights=weights)


@st.composite
def estimators(draw):
    family = draw(
        st.sampled_from(
            ("subrange", "basic", "binary", "prev", "gloss-hc", "gloss-dj")
        )
    )
    if family == "subrange":
        scheme = SubrangeScheme.equal(
            draw(st.integers(2, 6)), include_max=draw(st.booleans())
        )
        return SubrangeEstimator(
            scheme=scheme, use_stored_max=draw(st.booleans())
        )
    if family == "basic":
        return BasicEstimator()
    if family == "binary":
        return BinaryIndependenceEstimator()
    if family == "prev":
        return PreviousMethodEstimator()
    if family == "gloss-hc":
        return GlossHighCorrelationEstimator()
    return GlossDisjointEstimator()


def _exact(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return float(a).hex() == float(b).hex()


def _assert_same_rep(original, restored) -> None:
    assert restored.name == original.name
    assert restored.n_documents == original.n_documents
    assert sorted(t for t, __ in restored.items()) == sorted(
        t for t, __ in original.items()
    )
    for term, stats in original.items():
        back = restored.get(term)
        assert _exact(back.probability, stats.probability)
        assert _exact(back.mean, stats.mean)
        assert _exact(back.std, stats.std)
        assert _exact(back.max_weight, stats.max_weight)


class TestRoundTrip:
    @given(representatives())
    @settings(max_examples=150, deadline=None)
    def test_columnar_round_trip_lossless(self, rep):
        store = FleetRepresentativeStore()
        store.add(rep)
        assert store.total_entries == len(rep)
        _assert_same_rep(rep, store.materialize(rep.name))

    @given(representatives())
    @settings(max_examples=60, deadline=None)
    def test_npz_round_trip_lossless(self, rep):
        store = FleetRepresentativeStore()
        store.add(rep)
        buffer = io.BytesIO()
        store.save_npz(buffer)
        buffer.seek(0)
        restored = FleetRepresentativeStore.load_npz(buffer)
        assert restored.binary_mean_w.tobytes() == store.binary_mean_w.tobytes()
        _assert_same_rep(rep, restored.materialize(rep.name))

    @given(st.lists(representatives(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_fleet_store_materializes_exactly(self, reps):
        store = FleetRepresentativeStore()
        named = {}
        for i, rep in enumerate(reps):
            rep = DatabaseRepresentative(
                f"e{i}", rep.n_documents, dict(rep.items())
            )
            named[rep.name] = rep
            store.add(rep)
        assert store.engine_names == sorted(named, key=lambda n: int(n[1:]))
        for name, rep in named.items():
            _assert_same_rep(rep, store.materialize(name))


class TestBitIdentity:
    @given(
        st.lists(representatives(), min_size=1, max_size=4),
        queries(),
        estimators(),
        st.lists(
            st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=3
        ),
    )
    @settings(max_examples=250, deadline=None)
    def test_grid_matches_scalar_bitwise(self, reps, query, estimator, thresholds):
        store = FleetRepresentativeStore()
        named = []
        for i, rep in enumerate(reps):
            rep = DatabaseRepresentative(
                f"e{i}", rep.n_documents, dict(rep.items())
            )
            named.append(rep)
            store.add(rep)
        nodoc, avgsim = fleet_usefulness_grid(estimator, store, query, thresholds)
        assert nodoc.shape == avgsim.shape == (len(thresholds), len(named))
        for t, threshold in enumerate(thresholds):
            for e, rep in enumerate(named):
                want = estimator.estimate(query, rep, threshold)
                assert _exact(nodoc[t, e], want.nodoc), (
                    f"nodoc bits diverged for {rep.name} at {threshold}: "
                    f"{nodoc[t, e]!r} != {want.nodoc!r}"
                )
                assert _exact(avgsim[t, e], want.avgsim), (
                    f"avgsim bits diverged for {rep.name} at {threshold}: "
                    f"{avgsim[t, e]!r} != {want.avgsim!r}"
                )

    @given(
        st.lists(representatives(), min_size=1, max_size=3),
        st.lists(queries(), min_size=1, max_size=4),
        estimators(),
        st.lists(
            st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=3
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_rows_equal_per_query_grids(self, reps, batch, estimator, thresholds):
        store = FleetRepresentativeStore()
        for i, rep in enumerate(reps):
            store.add(
                DatabaseRepresentative(f"e{i}", rep.n_documents, dict(rep.items()))
            )
        rows = fleet_usefulness_rows(estimator, store, batch, thresholds)
        assert rows[0].shape == (len(batch), len(thresholds), len(reps))
        for q, query in enumerate(batch):
            want = fleet_usefulness_grid(estimator, store, query, thresholds)
            for got, expected in zip(rows, want):
                assert got[q].tobytes() == expected.tobytes()
