"""Property tests: the concurrent dispatch path and the estimate cache are
semantically invisible.

For random fleets and queries, a pooled ``search`` (``workers=N`` with a
``timeout``, the one fan-out that runs on threads) must return exactly
the hits, invoked set, and estimates of the serial path, and the
deadline-free fan-out on the caller's thread must fail exactly the
engines a pooled one fails — and every engine call must observe the
caller's request context (its ambient deadline) whichever thread it runs
on — and a cached ``estimate_all`` must equal an uncached one —
concurrency and caching are performance features, never semantic ones.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker
from repro.representatives import build_representative
from repro.serving import Deadline, deadline_scope
from tests.conftest import EngineDouble

TERMS = [f"t{i}" for i in range(8)]
THRESHOLDS = (0.0, 0.1, 0.3, 0.5)

#: A fan-out deadline no call comes near: it sends a broker's fan-outs to
#: the pool without ever firing.
POOLED = 60.0


@st.composite
def fleets(draw):
    """2-4 engines, each with 1-5 short documents over a tiny vocabulary."""
    n_engines = draw(st.integers(min_value=2, max_value=4))
    fleet = []
    for i in range(n_engines):
        n_docs = draw(st.integers(min_value=1, max_value=5))
        docs = [
            draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=4))
            for _ in range(n_docs)
        ]
        fleet.append((f"e{i}", docs))
    return fleet


@st.composite
def queries(draw):
    terms = draw(
        st.lists(st.sampled_from(TERMS), min_size=1, max_size=3, unique=True)
    )
    weights = tuple(
        float(draw(st.integers(min_value=1, max_value=3))) for _ in terms
    )
    return Query(terms=tuple(terms), weights=weights)


def build_broker(fleet, wrap=lambda engine: engine, **kwargs):
    broker = MetasearchBroker(**kwargs)
    for name, docs in fleet:
        engine = SearchEngine(
            Collection.from_documents(
                name,
                [Document(f"{name}-{i}", terms=t) for i, t in enumerate(docs)],
            )
        )
        broker.register(
            wrap(engine), representative=build_representative(engine)
        )
    return broker


@given(fleet=fleets(), query=queries(), threshold=st.sampled_from(THRESHOLDS))
@settings(max_examples=25, deadline=None)
def test_concurrent_search_equals_serial(fleet, query, threshold):
    serial = build_broker(fleet, workers=1, cache_size=0)
    concurrent = build_broker(fleet, workers=4, timeout=POOLED, cache_size=32)
    expected = serial.search(query, threshold)
    for _ in range(2):  # second pass exercises the warmed cache
        got = concurrent.search(query, threshold)
        assert got.hits == expected.hits
        assert got.invoked == expected.invoked
        assert got.estimates == expected.estimates
        assert not got.failures


@given(
    fleet=fleets(),
    query=queries(),
    threshold=st.sampled_from(THRESHOLDS),
    workers=st.sampled_from((1, 2, 8)),
    budget=st.sampled_from((None, 60.0)),
)
@settings(max_examples=25, deadline=None)
def test_every_call_observes_the_callers_deadline(
    engine_doubles, fleet, query, threshold, workers, budget
):
    """Solo (``dispatch``) and batched (``dispatch_many``) alike, for any
    ``workers``: inside an engine call the ambient deadline *is* the
    caller's — the same object, or none when the caller has none."""
    probes = []

    def probed(engine):
        probes.append(engine_doubles.DeadlineProbe(engine))
        return probes[-1]

    broker = build_broker(
        fleet, wrap=probed, workers=workers, cache_size=0,
        timeout=None if workers == 1 else POOLED,
    )
    deadline = None if budget is None else Deadline(budget)
    with deadline_scope(deadline):
        solo = broker.search(query, threshold)
        batch = broker.search_batch([query, query], threshold)
    assert not solo.failures and [r.invoked for r in batch] == [solo.invoked] * 2
    for probe in probes:
        calls = 3 if probe.name in solo.invoked else 0
        assert probe.observed == [deadline] * calls


@given(fleet=fleets(), query=queries(), threshold=st.sampled_from(THRESHOLDS))
@settings(max_examples=25, deadline=None)
def test_concurrent_broadcast_equals_serial(fleet, query, threshold):
    serial = build_broker(fleet, workers=1, cache_size=0)
    concurrent = build_broker(fleet, workers=8, timeout=POOLED, cache_size=0)
    assert (
        concurrent.search_all(query, threshold).hits
        == serial.search_all(query, threshold).hits
    )


class RaisesOnce(EngineDouble):
    """Raises on the first attempt at each ``(query, threshold)``, then
    answers: order-free, so a pooled fan-out fails what an inline one
    does."""

    def __init__(self, inner):
        super().__init__(inner)
        self.asked = set()
        self.lock = threading.Lock()

    def search(self, query, threshold=0.0):
        with self.lock:
            first = (query, threshold) not in self.asked
            self.asked.add((query, threshold))
        if first:
            raise RuntimeError(f"{self.inner.name}: first attempt")
        return self.inner.search(query, threshold)


class RaisesAlways(EngineDouble):
    def search(self, query, threshold=0.0):
        raise ConnectionError(f"{self.inner.name} is down")


BEHAVIOURS = {
    "answers": lambda engine: engine, "once": RaisesOnce, "down": RaisesAlways,
}


@given(
    fleet=fleets(),
    batch=st.lists(queries(), min_size=1, max_size=4, unique=True),
    threshold=st.sampled_from(THRESHOLDS),
    behaviours=st.lists(st.sampled_from(sorted(BEHAVIOURS)), min_size=4, max_size=4),
    retries=st.sampled_from((0, 1)),
)
@settings(max_examples=25, deadline=None)
def test_inline_fanout_fails_what_a_pooled_one_fails(
    fleet, batch, threshold, behaviours, retries
):
    """Raising engines, retried or not: the fan-out on the caller's thread
    and a pooled one answer the same hits and fail the same engines the
    same way."""

    def broker(**kwargs):
        wraps = iter(BEHAVIOURS[b] for b in behaviours)
        return build_broker(
            fleet, wrap=lambda engine: next(wraps)(engine), workers=8,
            retries=retries, backoff=0.0, cache_size=0, **kwargs,
        )

    inline = broker().search_batch(batch, threshold)
    pooled = broker(timeout=POOLED).search_batch(batch, threshold)
    for got, want in zip(inline, pooled):
        assert got.hits == want.hits
        assert got.invoked == want.invoked
        assert [(f.engine, f.kind) for f in got.failures] == [
            (f.engine, f.kind) for f in want.failures
        ]


@given(fleet=fleets(), query=queries(), threshold=st.sampled_from(THRESHOLDS))
@settings(max_examples=25, deadline=None)
def test_cached_estimates_equal_uncached(fleet, query, threshold):
    uncached = build_broker(fleet, cache_size=0)
    cached = build_broker(fleet, cache_size=4)  # tiny, to force evictions
    expected = uncached.estimate_all(query, threshold)
    assert cached.estimate_all(query, threshold) == expected
    assert cached.estimate_all(query, threshold) == expected
