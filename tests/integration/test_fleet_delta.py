"""Differential suite for the live-fleet delta pipeline.

The contract under test: a broker that catches up with a mutating engine
through :class:`RepresentativeDelta` application answers **exactly**
(``==``, never ``approx``) like the scalar oracle
(:class:`tests.oracle.ScalarOracle`) handed the engine's fresh canonical
snapshot — in one process and on the sharded topology, for all five paper
estimators — and so does the dict-form reference
:func:`tests.oracle.apply_delta`.  On top of the
bit-exactness story sit the safety properties: precise invalidation never
serves a stale cache entry while retaining entries for untouched terms,
version mismatches are rejected, and a compacted delta log degrades to a
full-snapshot resync.
"""

import json
import re
import signal
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.core import get_estimator
from repro.corpus import Collection, Document, Query, save_collection
from repro.fleet import DeltaCompactedError, LiveEngineServer
from repro.metasearch import MetasearchBroker
from repro.obs import MetricsRegistry
from repro.serving import (
    LiveEngineApp,
    RemoteEngine,
    RemoteServingError,
    ServingServer,
    ShardApp,
    ShardedFleet,
)
from tests.oracle import ScalarOracle, apply_delta

pytestmark = pytest.mark.slow

ESTIMATORS = [
    "basic",
    "binary-independence",
    "gloss-hc",
    "gloss-disjoint",
    "subrange",
]

VOCAB = [
    "rocket", "orbit", "engine", "fuel", "sauce", "basil",
    "kiwi", "plum", "gear", "lens", "prism", "dune",
]

N_ENGINES = 3

QUERIES = [
    Query(terms=("rocket", "orbit"), weights=(2.0, 1.0)),
    Query(terms=("sauce",), weights=(1.0,)),
    Query(terms=("kiwi", "fuel", "basil"), weights=(1.0, 3.0, 0.5)),
    Query(terms=("comet", "plum"), weights=(1.0, 1.0)),  # fresh + old term
    Query(terms=("nosuchterm",), weights=(1.0,)),
]

THRESHOLDS = (0.0, 0.2, 0.5)


def make_documents(e):
    documents = []
    for d in range(8):
        terms = [
            VOCAB[(e + d + k) % len(VOCAB)]
            for k in range((e * 7 + d * 3) % 5 + 2)
        ]
        documents.append(Document(f"e{e}-d{d}", terms=terms))
    return documents


def churn(live):
    """A deterministic mutation script covering removal, unknown-term
    ingestion, and remove-then-re-add of an original document."""
    first = live.doc_ids[0]
    original = make_documents(int(live.name[-1]))[0]
    live.remove_documents(live.doc_ids[1:3])
    live.add_documents(
        [
            Document(f"{live.name}-n0", ["comet", "rocket", "dune"]),
            Document(f"{live.name}-n1", ["comet", "plum"]),
        ]
    )
    live.remove_documents([first])
    live.add_documents([original])


def make_live_fleet():
    fleet = []
    for e in range(N_ENGINES):
        live = LiveEngineServer(f"engine{e}", make_documents(e))
        fleet.append((live, live.snapshot()))
    return fleet


def assert_rows_match(stale_broker_like, fresh_broker):
    for query in QUERIES:
        for threshold in THRESHOLDS:
            assert stale_broker_like.estimate_all(
                query, threshold
            ) == fresh_broker.estimate_all(query, threshold)


def fresh_oracle_for(fleet, estimator_name="subrange"):
    """The scalar oracle over every engine's fresh canonical snapshot."""
    oracle = ScalarOracle(get_estimator(estimator_name))
    for live, __ in fleet:
        oracle.register(live, representative=live.snapshot().representative)
    return oracle


class TestDifferentialBackends:
    """Delta catch-up == fresh snapshot, for every estimator and backend."""

    @pytest.fixture(scope="class")
    def churned_fleet(self):
        fleet = make_live_fleet()
        for live, __ in fleet:
            churn(live)
        return fleet

    @pytest.mark.parametrize("estimator_name", ESTIMATORS)
    def test_dict_backend_exact(self, churned_fleet, estimator_name):
        """The dict-form reference: ``apply_delta`` on the base snapshot
        estimates exactly like the fresh snapshot."""
        patched = ScalarOracle(get_estimator(estimator_name))
        for live, base in churned_fleet:
            patched.register(
                live,
                representative=apply_delta(
                    base.representative, live.delta_since(base.version)
                ),
            )
        assert_rows_match(patched, fresh_oracle_for(churned_fleet, estimator_name))

    @pytest.mark.parametrize("estimator_name", ESTIMATORS)
    def test_columnar_backend_exact(self, churned_fleet, estimator_name):
        broker = MetasearchBroker(estimator=get_estimator(estimator_name))
        for live, base in churned_fleet:
            broker.register(
                live, representative=base.representative, version=base.version
            )
            report = broker.apply_representative_delta(
                live.delta_since(base.version)
            )
            assert report.to_version == live.version
            assert broker.representative_version(live.name) == live.version
        assert_rows_match(broker, fresh_oracle_for(churned_fleet, estimator_name))

    def test_sync_representative_uses_delta_path(self, churned_fleet):
        broker = MetasearchBroker(estimator=get_estimator("subrange"))
        live, base = churned_fleet[0]
        broker.register(
            live, representative=base.representative, version=base.version
        )
        report = broker.sync_representative(live)
        assert report is not None and report.mode == "precise"
        assert broker.representative_version(live.name) == live.version
        assert_rows_match(broker, fresh_oracle_for([churned_fleet[0]]))


class TestShardedDeltaPropagation:
    @pytest.fixture(scope="class")
    def sharded(self):
        fleet = make_live_fleet()
        servers, urls = [], []
        try:
            for index in range(2):
                shard_broker = MetasearchBroker()
                for live, base in fleet[index::2]:
                    shard_broker.register(
                        live,
                        representative=base.representative,
                        version=base.version,
                    )
                server = ServingServer(ShardApp(shard_broker, shard_index=index))
                server.start_background()
                servers.append(server)
                urls.append(server.url)
            sharded_fleet = ShardedFleet(urls).attach(timeout=30.0)
            try:
                yield fleet, sharded_fleet
            finally:
                sharded_fleet.close()
        finally:
            for server in servers:
                server.drain(timeout=10)

    def test_delta_routes_to_owning_shard_and_stays_exact(self, sharded):
        fleet, sharded_fleet = sharded
        for live, base in fleet:
            churn(live)
            answer = sharded_fleet.apply_delta(live.delta_since(base.version))
            assert answer["engine"] == live.name
            assert answer["to_version"] == live.version
            assert answer["mode"] == "precise"
        local = fresh_oracle_for(fleet)
        for query in QUERIES:
            for threshold in THRESHOLDS:
                assert sharded_fleet.estimate_all(
                    query, threshold
                ) == local.estimate_all(query, threshold)

    def test_conflicting_delta_is_rejected_with_409(self, sharded):
        fleet, sharded_fleet = sharded
        live, base = fleet[0]
        # The shard already advanced past ``base`` in the previous test;
        # re-shipping the same catch-up delta must 409, not corrupt state.
        stale = live.delta_since(base.version)
        with pytest.raises(RemoteServingError) as excinfo:
            sharded_fleet.apply_delta(stale)
        assert excinfo.value.status == 409

    def test_unowned_engine_is_refused(self, sharded):
        __, sharded_fleet = sharded
        ghost = LiveEngineServer("ghost", [Document("g1", ["rocket"])])
        base = ghost.snapshot()
        ghost.add_documents([Document("g2", ["orbit"])])
        with pytest.raises(KeyError):
            sharded_fleet.apply_delta(ghost.delta_since(base.version))


class TestPreciseInvalidation:
    def make_broker(self, live, base, estimator_name="subrange"):
        broker = MetasearchBroker(estimator=get_estimator(estimator_name))
        broker.register(
            live, representative=base.representative, version=base.version
        )
        return broker

    def test_never_serves_stale_after_single_term_mutation(self):
        live = LiveEngineServer("db", make_documents(0))
        base = live.snapshot()
        broker = self.make_broker(live, base)
        touched = Query(terms=("rocket",), weights=(1.0,))
        untouched = Query(terms=("plum",), weights=(1.0,))
        for query in (touched, untouched):
            broker.estimate_all(query, 0.2)

        # Swap one document for another of the same size so n is constant:
        # the composed delta touches only the documents' own terms and the
        # broker may keep every other term's cache rows.
        doomed = live.doc_ids[0]
        live.remove_documents([doomed])
        live.add_documents([Document("db-swap", ["rocket", "rocket"])])
        delta = live.delta_since(base.version)
        assert delta.from_n_documents == delta.n_documents
        assert "plum" not in delta.terms

        report = broker.apply_representative_delta(delta)
        assert report.mode == "precise"
        assert report.cache_retained >= 1

        fresh = fresh_oracle_for([(live, base)])
        assert broker.estimate_all(touched, 0.2) == fresh.estimate_all(
            touched, 0.2
        )

        hits_before = broker.cache.hits
        assert broker.estimate_all(untouched, 0.2) == fresh.estimate_all(
            untouched, 0.2
        )
        assert broker.cache.hits > hits_before

    def test_document_count_change_widens_eviction(self):
        live = LiveEngineServer("db", make_documents(0))
        base = live.snapshot()
        broker = self.make_broker(live, base)
        untouched = Query(terms=("plum",), weights=(1.0,))
        broker.estimate_all(untouched, 0.2)
        live.add_documents([Document("db-new", ["rocket"])])
        report = broker.apply_representative_delta(live.delta_since(base.version))
        # n changed: every present term's probability rescaled, so the
        # untouched-term entry must go too.
        assert report.mode == "precise"
        fresh = fresh_oracle_for([(live, base)])
        assert broker.estimate_all(untouched, 0.2) == fresh.estimate_all(
            untouched, 0.2
        )

    def test_non_term_local_estimator_falls_back_to_full_eviction(self):
        live = LiveEngineServer("db", make_documents(0))
        base = live.snapshot()
        broker = self.make_broker(live, base, "binary-independence")
        query = Query(terms=("plum",), weights=(1.0,))
        broker.estimate_all(query, 0.2)
        doomed = live.doc_ids[0]
        live.remove_documents([doomed])
        live.add_documents([Document("db-swap", ["rocket", "rocket"])])
        report = broker.apply_representative_delta(live.delta_since(base.version))
        # The binary baseline folds every term's mean into one database
        # weight, so a single-term mutation still invalidates everything.
        assert report.mode == "full"
        fresh = fresh_oracle_for([(live, base)], "binary-independence")
        assert broker.estimate_all(query, 0.2) == fresh.estimate_all(query, 0.2)

    def test_version_mismatch_is_rejected(self):
        live = LiveEngineServer("db", make_documents(0))
        base = live.snapshot()
        broker = self.make_broker(live, base)
        live.add_documents([Document("db-new", ["rocket"])])
        delta = live.delta_since(base.version)
        broker.apply_representative_delta(delta)
        with pytest.raises(ValueError):
            broker.apply_representative_delta(delta)


class TestLivenessFollowsTheStore:
    """The whole-row bound that keeps an engine out of the kernel is
    computed from the store on every call: a delta that raises a term's
    max weight makes the engine selectable at once, and one that lowers
    it again rules the engine back out — liveness is never stale low."""

    def test_delta_moves_an_engine_across_the_bound_both_ways(self):
        registry = MetricsRegistry()
        broker = MetasearchBroker(
            estimator=get_estimator("subrange"), registry=registry
        )
        low = LiveEngineServer("low", [
            Document("low-d0", ["rocket", "orbit", "fuel", "gear", "lens"]),
            Document("low-d1", ["orbit", "fuel"]),
            Document("low-d2", ["dune", "kiwi"]),
        ])
        high = LiveEngineServer("high", [Document("high-d0", ["rocket"])])
        fleet = [(live, live.snapshot()) for live in (low, high)]
        for live, base in fleet:
            broker.register(
                live, representative=base.representative, version=base.version
            )
        query, threshold = Query(terms=("rocket",), weights=(1.0,)), 0.5
        skipped = registry.counter("estimator.rows.skipped")

        def step():
            """Selection and the skipped-row count of one estimate, after
            checking the row against a fresh scalar oracle."""
            before = skipped.value
            assert broker.estimate_all(query, threshold) == fresh_oracle_for(
                fleet
            ).estimate_all(query, threshold)
            return broker.select(query, threshold), skipped.value - before

        # "rocket" weighs 1/sqrt(5) < T in "low": its singleton bound rules
        # it out before any expansion.
        assert step() == (["high"], 1.0)

        # Same document count, so the delta is precise: only the swapped
        # documents' terms are touched, and "rocket" now weighs 1.0.
        version = low.snapshot().version
        low.remove_documents(["low-d2"])
        low.add_documents([Document("low-hot", ["rocket"])])
        report = broker.apply_representative_delta(low.delta_since(version))
        assert report.mode == "precise"
        selected, newly_skipped = step()
        assert sorted(selected) == ["high", "low"]
        assert newly_skipped == 0.0

        version = low.snapshot().version
        low.remove_documents(["low-hot"])
        low.add_documents([Document("low-d2", ["dune", "kiwi"])])
        broker.apply_representative_delta(low.delta_since(version))
        assert step() == (["high"], 1.0)


class TestCompactionFallback:
    def test_compacted_log_degrades_to_snapshot_resync(self):
        live = LiveEngineServer("db", make_documents(0), log_limit=1)
        base = live.snapshot()
        live.add_documents([Document("db-n0", ["comet"])])
        live.add_documents([Document("db-n1", ["comet", "plum"])])
        with pytest.raises(DeltaCompactedError):
            live.delta_since(base.version)
        fallback = live.sync_representative(base.version)
        assert not hasattr(fallback, "records")
        assert fallback.version == live.version

        broker = MetasearchBroker(estimator=get_estimator("subrange"))
        broker.register(
            live, representative=base.representative, version=base.version
        )
        report = broker.sync_representative(live)
        assert report is None  # snapshot path, not a delta apply
        assert broker.representative_version(live.name) == live.version
        assert_rows_match(broker, fresh_oracle_for([(live, base)]))


class TestHTTPDeltaLoop:
    """LiveEngineApp + RemoteEngine + broker.sync_representative, end to end."""

    @pytest.fixture()
    def served(self):
        live = LiveEngineServer("engine0", make_documents(0))
        server = ServingServer(LiveEngineApp(live))
        server.start_background()
        try:
            yield live, server.url
        finally:
            server.drain(timeout=10)

    @staticmethod
    def post_mutate(url, payload):
        request = urllib.request.Request(
            f"{url}/mutate",
            data=json.dumps(payload).encode("ascii"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def test_broker_catches_up_over_http(self, served):
        live, url = served
        remote = RemoteEngine(url)
        broker = MetasearchBroker(estimator=get_estimator("subrange"))
        # An unregistered engine's first sync registers its snapshot.
        assert broker.sync_representative(remote) is None
        assert broker.representative_version(remote.name) == 0

        answer = self.post_mutate(
            url,
            {
                "remove": [live.doc_ids[0]],
                "add": [
                    {"doc_id": "engine0-n0", "terms": ["comet", "rocket"]},
                    {"doc_id": "engine0-n1", "terms": ["comet", "plum"]},
                ],
            },
        )
        assert answer["kind"] == "engine.mutated"
        assert answer["version"] == 2

        report = broker.sync_representative(remote)
        assert report is not None
        assert report.from_version == 0 and report.to_version == 2
        assert_rows_match(broker, fresh_oracle_for([(live, None)]))

    def test_live_engine_process_catches_up_like_a_fresh_snapshot(
        self, tmp_path
    ):
        """A real ``repro serve engine --live`` process: ``/healthz``
        reports it live, ``POST /mutate`` churns it, the broker's delta
        catch-up estimates like one registered with a fresh snapshot, and
        SIGTERM drains it to exit 0."""
        path = tmp_path / "live.jsonl.gz"
        save_collection(Collection.from_texts("live", [
            ("d1", "the rocket engine ignited toward orbit"),
            ("d2", "a telescope mirror focuses distant galaxies"),
            ("d3", "rocket fuel and tomato sauce"),
            ("d4", "plum and kiwi in basil sauce"),
        ]), path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "engine", "--live",
             "--collection", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            for line in proc.stdout:  # a banner line comes first
                announced = re.search(r"serving engine at (http://\S+)", line)
                if announced:
                    break
            else:
                pytest.fail("the live engine exited without serving")
            url = announced.group(1)
            with urllib.request.urlopen(f"{url}/healthz", timeout=10) as reply:
                assert json.loads(reply.read())["live"] is True

            remote = RemoteEngine(url)
            broker = MetasearchBroker()
            assert broker.sync_representative(remote) is None  # v0 snapshot
            mutated = self.post_mutate(url, {
                "remove": ["d2"],
                "add": [{"doc_id": "d5", "terms": ["comet", "rocket"]}],
            })
            assert mutated["version"] == 2
            report = broker.sync_representative(remote)
            assert report is not None and report.to_version == 2

            fresh = MetasearchBroker()
            fresh.register(
                remote, representative=remote.sync_representative().representative
            )
            for text in ("rocket orbit", "comet", "plum sauce"):
                query = Query.from_text(text)
                for threshold in THRESHOLDS:
                    assert broker.estimate_all(query, threshold) == \
                        fresh.estimate_all(query, threshold)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0

    def test_compaction_over_http_falls_back_to_snapshot(self):
        live = LiveEngineServer("engine0", make_documents(0), log_limit=1)
        server = ServingServer(LiveEngineApp(live))
        server.start_background()
        try:
            remote = RemoteEngine(server.url)
            broker = MetasearchBroker(estimator=get_estimator("subrange"))
            assert broker.sync_representative(remote) is None
            self.post_mutate(server.url, {"add": [{"doc_id": "n0", "terms": ["comet"]}]})
            self.post_mutate(server.url, {"add": [{"doc_id": "n1", "terms": ["comet"]}]})
            # The log kept only the latest mutation; the sync must come
            # back as a snapshot re-registration, not a delta.
            assert broker.sync_representative(remote) is None
            assert broker.representative_version(remote.name) == live.version
            assert_rows_match(broker, fresh_oracle_for([(live, None)]))
        finally:
            server.drain(timeout=10)

    def test_engine_restart_over_http_falls_back_to_snapshot(self):
        app = LiveEngineApp(LiveEngineServer("engine0", make_documents(0)))
        server = ServingServer(app)
        server.start_background()
        try:
            remote = RemoteEngine(server.url)
            broker = MetasearchBroker(estimator=get_estimator("subrange"))
            assert broker.sync_representative(remote) is None
            self.post_mutate(server.url, {"add": [{"doc_id": "n0", "terms": ["comet"]}]})
            self.post_mutate(server.url, {"add": [{"doc_id": "n1", "terms": ["comet"]}]})
            assert broker.sync_representative(remote).to_version == 2
            # The engine process restarts: same name, another corpus, its
            # mutation counter back at 0 — *behind* the broker's version 2.
            restarted = LiveEngineServer("engine0", make_documents(1))
            app.server = app.engine = restarted
            assert broker.sync_representative(remote) is None
            assert app.registry.value("serving.engine.delta.fallbacks") == 1
            assert broker.representative_version(remote.name) == 0
            assert_rows_match(broker, fresh_oracle_for([(restarted, None)]))
            # Malformed base versions are still the client's error.
            for bad in ("-1", "two"):
                with pytest.raises(urllib.error.HTTPError) as caught:
                    urllib.request.urlopen(
                        f"{server.url}/representative/delta?since={bad}",
                        timeout=10,
                    )
                assert caught.value.code == 400
        finally:
            server.drain(timeout=10)
