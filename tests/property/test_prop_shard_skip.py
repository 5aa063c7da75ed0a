"""Property wall for the coordinator's shard skip.

A shard serves a *headroom summary* (``fleet_headroom``): per term, the
largest per-unit-weight bound on a factor exponent over its engines.  The
coordinator does not ask a shard whose summary, summed over a query
(``sum_j u_j * H[term_j]``), passes ``summary_rules_out`` for every query
of the scatter; the shard's engines enter the merged row as ``(0.0,
0.0)``.  Two properties, for all six estimator types (subrange both with
and without stored maxima) on drawn fleets split into 2-4 shards:

* **Sound.**  Whenever the rule rules a shard out for a (query,
  threshold), a broker over that shard's engines answers exact
  ``(0.0, 0.0)`` for each of them — also when the same batch reads the
  query at a smaller threshold, so the kernel's own cut is lower.  A
  threshold that is NaN or infinite never rules out, and the estimators
  without a whole-row bound (the previous method, gGlOSS) have no
  summary.  Thresholds are drawn at the fixed edge values and within a
  few margins of each shard's sum.
* **Invisible.**  ``ShardedFleet`` over in-process ``ShardApp`` servers
  answers every batch like ``MetasearchBroker`` over the whole fleet:
  rows, hits and invoked engines, with no failure, while every round
  asks or skips each shard exactly once.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_estimator
from repro.core.vectorized import _cut_margin, fleet_headroom, summary_rules_out
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker
from repro.obs import MetricsRegistry
from repro.representatives import partition_round_robin
from repro.serving import ServingServer, ShardApp, ShardedFleet

ESTIMATORS = [
    "subrange",
    "subrange-triplet",
    "basic",
    "binary-independence",
    "prev",
    "gloss-hc",
    "gloss-disjoint",
]
BOUNDED = {"subrange", "subrange-triplet", "basic", "binary-independence"}

VOCAB = ["rocket", "orbit", "engine", "fuel", "sauce", "basil", "kiwi", "plum"]
EDGE_THRESHOLDS = [0.0, -0.5, math.nan, math.inf, -math.inf, 0.1, 0.3, 0.6]
MAX_SHARDS = 4


@st.composite
def fleets(draw):
    """2-8 engines of 1-4 documents over a small vocabulary, dealt
    round-robin to 2-4 shards."""
    n_engines = draw(st.integers(min_value=2, max_value=8))
    collections = []
    for e in range(n_engines):
        documents = draw(
            st.lists(
                st.lists(st.sampled_from(VOCAB), min_size=1, max_size=5),
                min_size=1,
                max_size=4,
            )
        )
        collections.append(
            Collection.from_documents(
                f"engine{e}",
                [
                    Document(f"e{e}-d{d}", terms=terms)
                    for d, terms in enumerate(documents)
                ],
            )
        )
    n_shards = draw(st.integers(min_value=2, max_value=min(MAX_SHARDS, n_engines)))
    return collections, partition_round_robin(collections, n_shards)


queries = st.builds(
    lambda terms, weights: Query(
        terms=tuple(terms), weights=tuple(weights[: len(terms)])
    ),
    st.lists(
        st.sampled_from(VOCAB + ["nosuchterm"]), min_size=1, max_size=3,
        unique=True,
    ),
    st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=3, max_size=3),
)


def broker_over(name, collections):
    broker = MetasearchBroker(estimator=get_estimator(name))
    for collection in collections:
        broker.register(SearchEngine(collection))
    return broker


def summary_total(summary, query):
    """``sum_j u_j * H[term_j]``, summed in a different order than the
    coordinator sums it (the rule's slack must absorb that)."""
    u = query.normalized_weights().tolist()
    return math.fsum(w * summary.get(t, 0.0) for w, t in zip(u, query.terms))


def near(total, n_terms):
    """Thresholds within a few margins of a summary sum, on both sides of
    the rule's ``2 * margin`` cut."""
    margin = float(_cut_margin(n_terms, total, total))
    cut = total - 2.0 * margin
    return [
        total + k * margin for k in (-3.0, -2.5, -1.5, -1.0, 0.0, 1.0)
    ] + [np.nextafter(cut, -math.inf), cut, np.nextafter(cut, math.inf)]


def draw_batch(data, summaries):
    """A batch whose thresholds sit at the edge values or near one
    shard's sum for the query; each query may repeat at a second, drawn
    threshold (the kernel then cuts at the smaller one)."""
    batch = []
    for query in data.draw(st.lists(queries, min_size=1, max_size=3)):
        candidates = list(EDGE_THRESHOLDS)
        for summary in summaries:
            if summary is not None:
                candidates += near(summary_total(summary, query), len(query.terms))
        for __ in range(data.draw(st.integers(min_value=1, max_value=2))):
            batch.append((query, data.draw(st.sampled_from(candidates))))
    return batch


def ruled_out(summary, batch):
    """Per (query, threshold) of ``batch``, whether the rule rules
    ``summary``'s shard out."""
    return summary_rules_out(
        np.array([summary_total(summary, q) for q, __ in batch]),
        np.array([len(q.terms) for q, __ in batch]),
        np.array([t for __, t in batch], dtype=np.float64),
    ).tolist()


@pytest.mark.parametrize("name", ESTIMATORS)
@settings(max_examples=60, deadline=None)
@given(fleet=fleets(), data=st.data())
def test_a_ruled_out_shard_answers_exact_zeros(name, fleet, data):
    __, parts = fleet
    shards = [broker_over(name, part) for part in parts]
    summaries = [fleet_headroom(b.estimator, b.fleet) for b in shards]
    if name not in BOUNDED:
        assert summaries == [None] * len(shards)
        return
    batch = draw_batch(data, summaries)
    for broker, summary in zip(shards, summaries):
        assert all(value >= 0.0 for value in summary.values())
        rows = broker.estimate_batch([q for q, __ in batch], [t for __, t in batch])
        for (query, threshold), out, row in zip(batch, ruled_out(summary, batch), rows):
            if not math.isfinite(threshold):
                assert not out
            if out:
                for values in (row.nodoc, row.avgsim):
                    assert (values == 0.0).all(), (query, threshold, list(row))
                    assert not np.signbit(values).any()


class TestShardedEqualsInProcess:
    """The skip is invisible end to end: the coordinator over in-process
    shard servers equals the in-process broker over the whole fleet."""

    @pytest.fixture(scope="class")
    def servers(self):
        apps = [
            ShardApp(MetasearchBroker(), shard_index=i) for i in range(MAX_SHARDS)
        ]
        servers = [ServingServer(app) for app in apps]
        for server in servers:
            server.start_background()
        try:
            yield apps, servers
        finally:
            for server in servers:
                server.drain(timeout=10)

    @pytest.mark.parametrize("name", ESTIMATORS)
    @settings(max_examples=25, deadline=None)
    @given(fleet=fleets(), data=st.data())
    def test_rows_hits_and_invoked_match(self, servers, name, fleet, data):
        apps, servers = servers
        collections, parts = fleet
        # The servers outlive examples; each example installs its own
        # shard brokers before the coordinator attaches.
        for app, part in zip(apps, parts):
            app.broker = broker_over(name, part)
        registry = MetricsRegistry()
        sharded = ShardedFleet(
            [server.url for server in servers[: len(parts)]], registry=registry
        ).attach(timeout=10.0)
        try:
            summaries = [shard.headroom for shard in sharded._shards]
            assert (summaries[0] is not None) == (name in BOUNDED)
            batch = draw_batch(data, summaries)
            batch_queries = [q for q, __ in batch]
            thresholds = [t for __, t in batch]
            got = sharded.search_batch(batch_queries, thresholds)
            want = broker_over(name, collections).search_batch(
                batch_queries, thresholds
            )
        finally:
            sharded.close()
        for g, w in zip(got, want):
            assert g.estimates == w.estimates
            assert g.hits == w.hits
            assert g.invoked == w.invoked
            assert not g.failures
        value = lambda series: registry.value(series, labels={"phase": "estimate"})
        skipped = value("coordinator.scatter.skipped")
        assert value("coordinator.scatter.rpcs") + skipped == value(
            "coordinator.scatter.fanouts"
        ) * len(parts)
        if skipped:
            assert name in BOUNDED
            assert all(math.isfinite(t) for t in thresholds)
