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
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GlossHighCorrelationEstimator,
    PreviousMethodEstimator,
    SubrangeEstimator,
)
from repro.corpus import Document, Query
from repro.fleet import LiveEngineServer
from repro.metasearch import MetasearchBroker
from tests.oracle import ScalarOracle

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
        base = live.snapshot()
        broker.register(
            live, representative=base.representative, version=base.version
        )
        oracle.register(live, representative=base.representative)
    assert_routine_matches_oracle(broker, oracle, before, batch_first)

    live = lives[0]
    if mutation != "none":
        since = live.version
        live.remove_documents([live.doc_ids[0]])
        live.add_documents([Document("fresh", ["rocket", "plum", "comet"])])
        current = live.snapshot()
        if mutation == "delta":
            broker.apply_representative_delta(live.delta_since(since))
        else:
            broker.register(
                live,
                representative=current.representative,
                version=current.version,
            )
        oracle.register(live, representative=current.representative)
    assert_routine_matches_oracle(broker, oracle, after, batch_first)
    assert_routine_matches_oracle(broker, oracle, before, not batch_first)

