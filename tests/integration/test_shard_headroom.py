"""The coordinator's shard skip against live deltas and dead shards.

``ShardedFleet`` does not ask a shard whose headroom summary proves every
estimate there zero.  The summary may be stale *high*, never stale
*low*:

* a delta that raises a term's headroom on a shard the summary ruled out
  makes the next estimate ask that shard, and the answer equals the
  in-process broker after the same delta;
* while the ``/delta`` RPC is in flight the terms it touches read
  ``+inf`` (the whole summary is withdrawn for the binary-independence
  estimator, whose per-engine weight moves every term of the engine);
* a rejected delta leaves them so;
* a dead shard that the summary rules out adds exact zeros and no
  failure, while a dead shard that has to be asked fails as before.

Plus the attach-time ownership check: a shard row naming an engine the
shard did not report at attach fails that shard for the request instead
of the whole search.
"""

import json
import math
import sys
import threading

import pytest

from repro.core import get_estimator
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.fleet import LiveEngineServer
from repro.metasearch import MetasearchBroker
from repro.obs import MetricsRegistry
from repro.serving import (
    CoordinatorApp,
    RemoteServingError,
    ServingServer,
    ShardApp,
    ShardedFleet,
)
from repro.serving.coordinator import _headroom_from_wire
from repro.serving.wire import query_to_wire

pytestmark = pytest.mark.slow

VOCAB = ["rocket", "orbit", "engine", "fuel", "sauce", "basil", "kiwi", "plum"]

#: No engine holds "comet" until a delta adds it: both shards' summaries
#: read 0 for it, so a query on it at a positive threshold asks no shard.
COMET = Query(terms=("comet",), weights=(1.0,))
THRESHOLD = 0.1


def make_documents(e):
    return [
        Document(
            f"e{e}-d{d}",
            terms=[
                VOCAB[(e + d + k) % len(VOCAB)]
                for k in range((e * 7 + d * 3) % 5 + 2)
            ],
        )
        for d in range(6)
    ]


def counts(registry):
    return {
        series: registry.value(
            f"coordinator.scatter.{series}", labels={"phase": "estimate"}
        )
        for series in ("rpcs", "skipped")
    }


class LiveShards:
    """Four live engines on two in-process shard servers (engine ``e`` on
    shard ``e % 2``) behind one attached ``ShardedFleet``, and an
    in-process broker holding the same engines as the reference."""

    def __init__(self, estimator_name):
        self.estimator_name = estimator_name
        self.lives = [
            LiveEngineServer(f"engine{e}", make_documents(e)) for e in range(4)
        ]
        self.local = MetasearchBroker(estimator=get_estimator(estimator_name))
        self.servers = []
        for index in range(2):
            broker = MetasearchBroker(estimator=get_estimator(estimator_name))
            for live in self.lives[index::2]:
                broker.sync_representative(live)
            self.servers.append(ServingServer(ShardApp(broker, shard_index=index)))
        for live in self.lives:
            self.local.sync_representative(live)
        for server in self.servers:
            server.start_background()
        self.registry = MetricsRegistry()
        self.fleet = ShardedFleet(
            [server.url for server in self.servers], registry=self.registry
        ).attach(timeout=30.0)

    def mutate(self, e, documents):
        """Add ``documents`` to engine ``e``; returns the delta, applied
        to the in-process broker already."""
        live = self.lives[e]
        since = live.version
        live.add_documents(documents)
        delta = live.delta_since(since)
        self.local.apply_representative_delta(delta)
        return delta

    def close(self):
        self.fleet.close()
        for server in self.servers:
            server.drain(timeout=10)  # idempotent


@pytest.fixture(params=["subrange", "basic", "binary-independence"])
def shards(request):
    shards = LiveShards(request.param)
    try:
        yield shards
    finally:
        shards.close()


def spy_on_deltas(shard, terms):
    """Record, at each ``/delta`` RPC to ``shard``, what its summary read
    for ``terms`` (``None``: the whole summary is withdrawn)."""
    seen = []
    request = shard.client.request

    def spy(method, path, *args, **kwargs):
        if path == "/delta":
            summary = shard.headroom
            seen.append(
                None if summary is None else [summary.get(t) for t in terms]
            )
        return request(method, path, *args, **kwargs)

    shard.client.request = spy
    return seen


class TestNeverStaleLow:
    def test_a_delta_raising_a_ruled_out_term_makes_the_shard_asked(self, shards):
        fleet, local = shards.fleet, shards.local
        before = counts(shards.registry)
        assert fleet.estimate_all(COMET, THRESHOLD) == local.estimate_all(
            COMET, THRESHOLD
        )
        after = counts(shards.registry)
        assert after["skipped"] - before["skipped"] == 2
        assert after["rpcs"] == before["rpcs"]

        shard = fleet._shards[1]
        seen = spy_on_deltas(shard, ["comet"])
        delta = shards.mutate(1, [Document("e1-comet", ["comet", "comet"])])
        fleet.apply_delta(delta)
        if shard.term_local:
            assert seen == [[math.inf]]
            assert 0.0 < shard.headroom["comet"] < math.inf
        else:
            assert seen == [None]
            assert shard.headroom is not None

        row = fleet.estimate_all(COMET, THRESHOLD)
        assert row == local.estimate_all(COMET, THRESHOLD)
        assert row.nodoc.max() > 0.0
        final = counts(shards.registry)
        assert final["rpcs"] - after["rpcs"] == 1  # shard 1 only
        assert final["skipped"] - after["skipped"] == 1

    def test_a_rejected_delta_leaves_its_terms_at_inf(self, shards):
        fleet, local = shards.fleet, shards.local
        shard = fleet._shards[0]
        delta = shards.mutate(0, [Document("e0-comet", ["comet", "fuel"])])
        fleet.apply_delta(delta)
        # The shard has moved past the delta's base version: a second
        # apply is a 409, and the summary must not come back from it.
        with pytest.raises(RemoteServingError) as excinfo:
            fleet.apply_delta(delta)
        assert excinfo.value.status == 409
        if shard.term_local:
            assert [shard.headroom[t] for t in delta.terms] == [math.inf] * len(
                delta.terms
            )
        else:
            assert shard.headroom is None
        before = counts(shards.registry)
        assert fleet.estimate_all(COMET, THRESHOLD) == local.estimate_all(
            COMET, THRESHOLD
        )
        after = counts(shards.registry)
        assert after["rpcs"] - before["rpcs"] == 1  # shard 0 is asked again


class TestDeltasRacingScatters:
    """Scatters read the summaries while deltas move them (the
    binary-independence estimator withdraws a shard's whole summary
    during each of its deltas): no skip decision fails, and once the
    deltas are done the rows are exact.  The readers stop at the skip
    decision: the shard side of an ``/estimate`` racing a ``/delta`` is
    not what this checks."""

    def test_no_skip_decision_fails_and_the_end_state_is_exact(self):
        shards = LiveShards("binary-independence")
        interval = sys.getswitchinterval()
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    shards.fleet._ruled_out([COMET], [THRESHOLD])
                except Exception as exc:  # reported below, not lost
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=reader) for __ in range(4)]
        try:
            sys.setswitchinterval(1e-6)
            for thread in readers:
                thread.start()
            for k in range(8):
                shards.fleet.apply_delta(
                    shards.mutate(k % 4, [Document(f"c{k}", ["comet"] * (k % 3 + 1))])
                )
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert errors == []
            assert shards.fleet.estimate_all(
                COMET, THRESHOLD
            ) == shards.local.estimate_all(COMET, THRESHOLD)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            shards.close()


class TestDeadShard:
    def test_a_ruled_out_dead_shard_adds_zeros_and_no_failure(self, shards):
        fleet, local = shards.fleet, shards.local
        shards.servers[1].drain(timeout=10)
        response = fleet.search(COMET, THRESHOLD)
        assert not response.failures
        assert response.estimates == local.estimate_all(COMET, THRESHOLD)
        assert response.invoked == []

    def test_a_dead_shard_that_must_be_asked_still_fails(self, shards):
        fleet = shards.fleet
        shards.servers[1].drain(timeout=10)
        # At a NaN threshold nothing is ruled out: the dead shard is asked.
        response = fleet.search(COMET, math.nan)
        assert sorted(f.engine for f in response.failures) == [
            "engine1", "engine3",
        ]


class TestEngineUnknownAtAttach:
    """A shard whose broker gained an engine after attach answers rows
    naming it; the coordinator cannot route to it, so the shard fails
    for the request and the search still answers."""

    def test_the_shard_fails_and_the_search_answers_200(self):
        collections = [
            Collection.from_documents(f"engine{e}", make_documents(e))
            for e in range(4)
        ]
        brokers = []
        for index in range(2):
            broker = MetasearchBroker()
            for collection in collections[index::2]:
                broker.register(SearchEngine(collection))
            brokers.append(broker)
        servers = [
            ServingServer(ShardApp(broker, shard_index=index))
            for index, broker in enumerate(brokers)
        ]
        for server in servers:
            server.start_background()
        fleet = ShardedFleet([server.url for server in servers]).attach(
            timeout=30.0
        )
        try:
            brokers[0].register(SearchEngine(Collection.from_documents(
                "intruder", [Document("i1", ["rocket", "rocket", "orbit"])]
            )))
            body = json.dumps({
                "query": query_to_wire(Query(terms=("rocket",), weights=(1.0,))),
                "threshold": 0.0,
            }).encode()
            response = CoordinatorApp(fleet).handle("POST", "/search", {}, body)
            assert response.status == 200
            answer = json.loads(response.body_bytes())
            assert sorted(f["engine"] for f in answer["failures"]) == [
                "engine0", "engine2",
            ]
            for failure in answer["failures"]:
                assert "shard 0" in failure["message"]
            hit_engines = {hit[-1] for hit in answer["hits"]}
            assert hit_engines and hit_engines <= {"engine1", "engine3"}
        finally:
            fleet.close()
            for server in servers:
                server.drain(timeout=10)


class TestSummaryOffTheWire:
    """What ``attach()`` accepts as a summary: a value that is not a
    finite number >= 0 reads ``+inf`` (never skip), a summary whose terms
    are not strings is none (always ask), and a shard without a
    whole-row bound serves none."""

    def test_values_that_cannot_bound_read_inf(self):
        summary = _headroom_from_wire({
            "a": 0.25, "b": 0, "c": -1.0, "d": None, "e": "0.5",
            "f": True, "g": math.nan, "h": math.inf, "i": 10 ** 400,
        })
        assert summary == {
            "a": 0.25, "b": 0.0, "c": math.inf, "d": math.inf, "e": math.inf,
            "f": math.inf, "g": math.inf, "h": math.inf, "i": math.inf,
        }
        assert _headroom_from_wire(None) is None

    @pytest.mark.parametrize("raw", [[["a", 0.5]], {1: 0.5}, "a"])
    def test_a_malformed_summary_is_none(self, raw):
        assert _headroom_from_wire(raw) is None

    @pytest.mark.parametrize(
        "name, bounded", [("subrange", True), ("prev", False), ("gloss-hc", False)]
    )
    def test_the_route_serves_the_estimators_summary(self, name, bounded):
        broker = MetasearchBroker(estimator=get_estimator(name))
        broker.register(SearchEngine(
            Collection.from_documents("engine0", make_documents(0))
        ))
        response = ShardApp(broker).handle("GET", "/headroom", {}, b"")
        assert response.status == 200
        answer = json.loads(response.body_bytes())
        assert answer["kind"] == "shard.headroom"
        assert (answer["headroom"] is not None) == bounded
        if bounded:
            assert sorted(answer["headroom"]) == sorted(
                {t for d in make_documents(0) for t in d.terms}
            )
