"""Property wall for the coordinator: ``ShardedFleet`` over in-process
``ShardApp`` servers answers every batch like ``MetasearchBroker`` over
the whole fleet — rows, hits and invoked engines, with no failure — for
all six estimator types (subrange both with and without stored maxima)
on drawn fleets split into 2-4 shards, at thresholds that include NaN
and the infinities.  The reference registers the canonical (sorted-term)
representatives the coordinator reads off the shards, so the binary
estimator's mean weight is summed in the same order on both sides.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_estimator
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.fleet.delta import canonicalize
from repro.metasearch import MetasearchBroker
from repro.obs import MetricsRegistry
from repro.representatives import build_representative, partition_round_robin
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

VOCAB = ["rocket", "orbit", "engine", "fuel", "sauce", "basil", "kiwi", "plum"]
THRESHOLDS = [0.0, -0.5, math.nan, math.inf, -math.inf, 0.1, 0.3, 0.6]
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


def broker_over(collections, name=None, canonical=False):
    broker = MetasearchBroker(
        estimator=None if name is None else get_estimator(name), workers=4
    )
    for collection in collections:
        engine = SearchEngine(collection)
        representative = build_representative(engine)
        if canonical:
            representative = canonicalize(representative)
        broker.register(engine, representative)
    return broker


class TestShardedEqualsInProcess:
    """The coordinator over in-process shard servers equals the
    in-process broker over the whole fleet."""

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
    @given(
        fleet=fleets(),
        batch=st.lists(
            st.tuples(queries, st.sampled_from(THRESHOLDS)),
            min_size=1, max_size=6,
        ),
    )
    def test_rows_hits_and_invoked_match(self, servers, name, fleet, batch):
        apps, servers = servers
        collections, parts = fleet
        # The servers outlive examples; each example installs its own
        # shard brokers before the coordinator attaches.
        for app, part in zip(apps, parts):
            app.broker = broker_over(part)
        registry = MetricsRegistry()
        sharded = ShardedFleet(
            [server.url for server in servers[: len(parts)]],
            estimator=get_estimator(name),
            registry=registry,
        ).attach(timeout=10.0)
        batch_queries = [q for q, __ in batch]
        thresholds = [t for __, t in batch]
        try:
            got = sharded.search_batch(batch_queries, thresholds)
        finally:
            sharded.close()
        want = broker_over(collections, name, canonical=True).search_batch(
            batch_queries, thresholds
        )
        for g, w in zip(got, want):
            assert g.estimates == w.estimates
            assert g.hits == w.hits
            assert g.invoked == w.invoked
            assert not g.failures
        # One dispatch RPC per shard owning an invoked engine, at most.
        owners = {
            sharded.local.engine_of(engine).host.url
            for response in got
            for engine in response.invoked
        }
        assert (registry.value(
            "coordinator.scatter.rpcs", labels={"phase": "dispatch"}
        ) or 0) == len(owners)
