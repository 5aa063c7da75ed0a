"""Property wall for the broker's single estimation routine.

``MetasearchBroker`` has one ``(queries, thresholds) -> rows`` routine;
``estimate_all`` is its batch of one and ``estimate_batch`` the general
case.  For any list of (query, threshold) — duplicates and proportional
weight vectors included — and any estimate-cache size::

    estimate_batch(qs, ts) == [estimate_all(q, t) ...] == ScalarOracle

and it stays so when a ``register`` refresh or an
``apply_representative_delta`` lands between calls: no cache entry computed
from the superseded representative may survive into an answer.  Run for an
estimator with a threshold-free expansion (subrange), a closed-form one
(gloss-hc), and the threshold-dependent previous method, whose kernel rows
are (threshold, query, engine) cells.

A row is an ``EstimateRow`` — names, ``nodoc`` / ``avgsim`` arrays and a
best-first ``order`` from one ``np.lexsort`` — so the row itself is held to
the object definition on drawn rows: iterating it equals ``sorted(objects,
key=sort_key)`` (ties on either value, all-zero rows, ``-0.0``, names whose
registration order is not their code-point order), both policies' array
reads equal their object bodies (``tests/oracle.py``), and it behaves as
the list it replaces under ``len``, indexing, slicing and ``==``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    GlossHighCorrelationEstimator,
    PreviousMethodEstimator,
    SubrangeEstimator,
    Usefulness,
)
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.fleet import LiveEngineServer
from repro.metasearch import (
    EstimatedUsefulness,
    EstimateRow,
    MetasearchBroker,
    ThresholdPolicy,
    TopKPolicy,
)
from tests.oracle import ScalarOracle, threshold_select, top_k_select

VOCAB = ["rocket", "orbit", "engine", "fuel", "sauce", "basil", "kiwi", "plum"]
THRESHOLDS = (0.0, 0.1, 0.2, 0.5)


ESTIMATORS = [
    pytest.param(SubrangeEstimator, id="subrange"),
    pytest.param(GlossHighCorrelationEstimator, id="gloss-hc"),
    pytest.param(PreviousMethodEstimator, id="prev"),
]


def make_live(e):
    documents = [
        Document(
            f"e{e}-d{d}",
            terms=[
                VOCAB[(e + d + k) % len(VOCAB)]
                for k in range((e * 7 + d * 3) % 5 + 2)
            ],
        )
        for d in range(6)
    ]
    return LiveEngineServer(f"engine{e}", documents)


terms = st.lists(
    st.sampled_from(VOCAB + ["nosuchterm"]), min_size=1, max_size=3, unique=True
)


@st.composite
def queries(draw):
    """A query; ``scale`` multiplies every weight by a power of two, which
    leaves the unit-normalized weights the *same floats* — a proportional
    variant that must share its twin's answer exactly."""
    chosen = draw(terms)
    weights = [draw(st.sampled_from([0.5, 1.0, 3.0])) for __ in chosen]
    scale = draw(st.sampled_from([1.0, 2.0, 0.25]))
    return Query(terms=tuple(chosen), weights=tuple(w * scale for w in weights))


#: A batch draws from a small pool with replacement, so duplicates (same
#: query, same or different threshold) are the common case, not the rare one.
batches = st.lists(queries(), min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(THRESHOLDS)),
        min_size=1,
        max_size=8,
    )
)


def assert_routine_matches_oracle(broker, oracle, batch, batch_first):
    batch_queries = [q for q, __ in batch]
    batch_thresholds = [t for __, t in batch]
    want = oracle.estimate_batch(batch_queries, batch_thresholds)
    calls = [
        lambda: broker.estimate_batch(batch_queries, batch_thresholds),
        lambda: [broker.estimate_all(q, t) for q, t in batch],
    ]
    for call in calls if batch_first else reversed(calls):
        assert call() == want


@pytest.mark.parametrize("estimator_factory", ESTIMATORS)
@given(
    before=batches,
    after=batches,
    cache_size=st.sampled_from([0, 2, 1024]),
    mutation=st.sampled_from(["none", "register", "delta"]),
    batch_first=st.booleans(),
)
@example(  # proportional, not by a power of two: one key, one answer
    before=[(Query(terms=("rocket",), weights=(0.5,)), 0.0)],
    after=[
        (Query(terms=("rocket", "orbit"), weights=(0.5, 0.5)), 0.0),
        (Query(terms=("rocket", "orbit"), weights=(3.0, 3.0)), 0.0),
    ],
    cache_size=0,
    mutation="none",
    batch_first=False,
)
@settings(max_examples=40, deadline=None)
def test_batch_equals_serial_equals_oracle_across_mutations(
    estimator_factory, before, after, cache_size, mutation, batch_first
):
    lives = [make_live(e) for e in range(3)]
    broker = MetasearchBroker(
        estimator=estimator_factory(), cache_size=cache_size
    )
    oracle = ScalarOracle(estimator_factory())
    for live in lives:
        base = live.delta_since(0)
        broker.register(
            live, representative=base.as_representative(), version=base.to_version
        )
        oracle.register(live, representative=base.as_representative())
    assert_routine_matches_oracle(broker, oracle, before, batch_first)

    live = lives[0]
    if mutation != "none":
        since = live.version
        live.remove_documents([live.doc_ids[0]])
        live.add_documents([Document("fresh", ["rocket", "plum", "comet"])])
        current = live.delta_since(0)
        if mutation == "delta":
            broker.apply_representative_delta(live.delta_since(since))
        else:
            broker.register(
                live,
                representative=current.as_representative(),
                version=current.to_version,
            )
        oracle.register(live, representative=current.as_representative())
    assert_routine_matches_oracle(broker, oracle, after, batch_first)
    assert_routine_matches_oracle(broker, oracle, before, not batch_first)



# -- the row type itself -------------------------------------------------------

#: Names whose code-point order differs from any "natural" order: case,
#: digits, accents, non-Latin scripts.
NAMES = ["b", "a", "B", "A", "a2", "a10", "\u00e9cole", "ecole", "zeta",
         "\u03c9mega", "\u65e5\u672c", "_x", "engine0"]

#: Ties are the common case: a few values, both zeros, rounding edges.
VALUES = st.sampled_from(
    [0.0, -0.0, 0.49999999999999994, 0.5, 1.0, 1.5, 2.5, 3.0]
) | st.floats(min_value=0.0, max_value=50.0)


@st.composite
def drawn_rows(draw):
    """``(objects, row)``: estimates in registration order (a drawn
    permutation of distinct names) and the ``EstimateRow`` ranked from the
    same values."""
    names = draw(st.permutations(NAMES))[: draw(st.integers(0, len(NAMES)))]
    if draw(st.booleans()):
        nodoc = [0.0] * len(names)  # an all-zero row
    else:
        nodoc = [draw(VALUES) for __ in names]
    avgsim = [draw(VALUES) for __ in names]
    objects = [
        EstimatedUsefulness(engine=n, usefulness=Usefulness(nodoc=d, avgsim=a))
        for n, d, a in zip(names, nodoc, avgsim)
    ]
    row = EstimateRow.ranked(names, np.array(nodoc), np.array(avgsim))
    return objects, row


def hexed(estimates):
    return [
        (e.engine, e.usefulness.nodoc.hex(), e.usefulness.avgsim.hex())
        for e in estimates
    ]


@given(drawn_rows())
@settings(max_examples=300, deadline=None)
def test_row_iterates_as_the_sort_key_order(drawn):
    objects, row = drawn
    want = sorted(objects, key=lambda e: e.sort_key)
    assert hexed(row) == hexed(want)
    assert row.engines == [e.engine for e in want]
    assert row == want and not row != want
    assert EstimateRow.of(objects) == want


@given(drawn_rows(), st.integers(1, 4), st.integers(0, len(NAMES) + 1))
@settings(max_examples=300, deadline=None)
def test_policies_on_a_row_equal_their_object_bodies(drawn, min_nodoc, k):
    objects, row = drawn
    assert ThresholdPolicy(min_nodoc).select(row) == threshold_select(
        objects, min_nodoc
    )
    assert TopKPolicy(k).select(row) == top_k_select(objects, k)
    # A plain list is adapted (ranked) first, so it answers the same.
    assert ThresholdPolicy(min_nodoc).select(objects) == threshold_select(
        objects, min_nodoc
    )
    assert TopKPolicy(k).select(objects) == top_k_select(objects, k)


@given(
    drawn_rows(),
    st.integers(-len(NAMES) - 1, len(NAMES)),
    st.slices(len(NAMES) + 2),
)
@settings(max_examples=300, deadline=None)
def test_row_behaves_as_the_list_it_replaces(drawn, index, window):
    objects, row = drawn
    want = sorted(objects, key=lambda e: e.sort_key)
    assert len(row) == len(want)
    if -len(want) <= index < len(want):
        assert row[index] == want[index]
    else:
        with pytest.raises(IndexError):
            row[index]
    assert row[window] == want[window]
    assert list(row[window]) == want[window]
    assert list(reversed(row)) == want[::-1]
    # ``==`` / ``!=`` against lists, either side, and against rows.
    assert want == row and row == list(row) and row == EstimateRow.of(want)
    if want:
        assert row != want[:-1] and want[1:] != row
        assert all(e in row for e in want)
    assert row != tuple(want)  # like a list: never equal to a tuple
    # ``of`` round-trips: a row is itself, a best-first list is unchanged.
    assert EstimateRow.of(row) is row
    assert list(EstimateRow.of(want)) == want
    assert hexed(EstimateRow.of(list(row))) == hexed(row)


@given(st.permutations(NAMES[:6]), st.sampled_from(THRESHOLDS), st.data())
@settings(max_examples=40, deadline=None)
def test_broker_rows_rank_names_in_code_point_order(order, threshold, data):
    """Registration order is not name order: the broker's cached name rank
    must still break ties exactly as ``sort_key`` does (every engine here
    holds the same documents, so every estimate ties)."""
    broker, oracle = MetasearchBroker(), ScalarOracle()
    for name in order:
        engine = SearchEngine(Collection.from_documents(
            name, [Document(f"{name}-d", terms=["rocket", "orbit"])]
        ))
        broker.register(engine)
        oracle.register(engine)
    query = data.draw(queries())
    row = broker.estimate_all(query, threshold)
    want = oracle.estimate_all(query, threshold)
    assert isinstance(row, EstimateRow)
    assert hexed(row) == hexed(want)
    assert broker.select(query, threshold) == threshold_select(want)
