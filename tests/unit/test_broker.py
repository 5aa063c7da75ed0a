"""Unit tests for the metasearch broker."""

import numpy as np
import pytest

from repro.core import Usefulness
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine, SearchHit
from repro.metasearch import (
    DispatchReport,
    EngineFailure,
    EstimatedUsefulness,
    MetasearchBroker,
    ThresholdPolicy,
    TopKPolicy,
)
from repro.metasearch.broker import SearchPipeline, broadcast_thresholds
from repro.obs import MetricsRegistry
from repro.representatives import build_representative


def make_engine(name, docs):
    return SearchEngine(
        Collection.from_documents(
            name, [Document(f"{name}-{i}", terms=t) for i, t in enumerate(docs)]
        )
    )


@pytest.fixture
def broker():
    broker = MetasearchBroker()
    broker.register(make_engine("space", [["rocket", "orbit"], ["rocket"]]))
    broker.register(make_engine("food", [["recipe", "sauce"], ["sauce"]]))
    return broker


class TestBroadcastThresholds:
    QUERIES = [Query.from_terms(["rocket"]), Query.from_terms(["sauce"])]

    @pytest.mark.parametrize(
        "scalar", [0.3, 1, np.float32(0.5), np.float64(0.3), np.int64(1)]
    )
    def test_any_real_scalar_is_repeated(self, scalar):
        per_query = broadcast_thresholds(self.QUERIES, scalar)
        assert per_query == [float(scalar)] * 2
        assert all(type(t) is float for t in per_query)

    def test_parallel_sequence_is_kept(self):
        assert broadcast_thresholds(self.QUERIES, (0.1, np.float32(0.5))) == [
            0.1,
            0.5,
        ]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="got 3 thresholds for 2 queries"):
            broadcast_thresholds(self.QUERIES, [0.1, 0.2, 0.3])

    def test_numpy_scalar_threshold_through_the_broker(self, broker):
        queries = [Query.from_terms(["rocket"]), Query.from_terms(["sauce"])]
        assert broker.estimate_batch(queries, np.float32(0.5)) == (
            broker.estimate_batch(queries, [0.5, 0.5])
        )


class TestRegistration:
    def test_registration_builds_representative(self, broker):
        rep = broker.representative_of("space")
        assert rep.n_documents == 2
        assert "rocket" in rep

    def test_duplicate_name_rejected(self, broker):
        with pytest.raises(ValueError, match="already registered"):
            broker.register(make_engine("space", [["x"]]))

    def test_explicit_representative_used(self):
        engine = make_engine("e", [["x"]])
        # Not what the engine itself would build: the explicit one wins,
        # packed into the fleet store under the engine's name.
        rep = build_representative(make_engine("e", [["y", "z"], ["y"]]))
        broker = MetasearchBroker()
        broker.register(engine, representative=rep)
        held = broker.representative_of("e")
        assert held.n_documents == rep.n_documents == 2
        assert dict(held.items()) == dict(rep.items())

    def test_engine_names_sorted(self, broker):
        assert broker.engine_names == ["food", "space"]

    def test_len(self, broker):
        assert len(broker) == 2


class TestEstimationAndSelection:
    def test_estimate_all_covers_every_engine(self, broker):
        estimates = broker.estimate_all(Query.from_terms(["rocket"]), 0.2)
        assert {e.engine for e in estimates} == {"space", "food"}

    def test_estimates_sorted_best_first(self, broker):
        estimates = broker.estimate_all(Query.from_terms(["rocket"]), 0.2)
        assert estimates[0].engine == "space"

    def test_select_routes_to_relevant_engine(self, broker):
        assert broker.select(Query.from_terms(["rocket"]), 0.2) == ["space"]
        assert broker.select(Query.from_terms(["sauce"]), 0.2) == ["food"]

    def test_select_nothing_for_unknown_terms(self, broker):
        assert broker.select(Query.from_terms(["zzz"]), 0.2) == []

    def test_true_selection_oracle(self, broker):
        assert broker.true_selection(Query.from_terms(["rocket"]), 0.2) == ["space"]
        assert broker.true_selection(Query.from_terms(["zzz"]), 0.2) == []


class TestSearch:
    def test_search_returns_hits_from_invoked_only(self, broker):
        response = broker.search(Query.from_terms(["rocket"]), 0.2)
        assert response.invoked == ["space"]
        assert all(h.engine == "space" for h in response.hits)

    def test_search_merges_globally(self):
        broker = MetasearchBroker(policy=ThresholdPolicy())
        broker.register(make_engine("a", [["shared", "x"]]))
        broker.register(make_engine("b", [["shared"]]))
        response = broker.search(Query.from_terms(["shared"]), 0.1)
        sims = [h.similarity for h in response.hits]
        assert sims == sorted(sims, reverse=True)
        assert {h.engine for h in response.hits} == {"a", "b"}

    def test_search_respects_limit(self, broker):
        response = broker.search(Query.from_terms(["rocket"]), 0.0, limit=1)
        assert len(response.hits) == 1

    def test_search_all_broadcasts(self, broker):
        response = broker.search_all(Query.from_terms(["rocket"]), 0.2)
        assert response.invoked == ["food", "space"]

    def test_search_includes_estimates_for_diagnostics(self, broker):
        response = broker.search(Query.from_terms(["rocket"]), 0.2)
        assert len(response.estimates) == 2

    def test_topk_policy_broker(self):
        broker = MetasearchBroker(policy=TopKPolicy(1))
        broker.register(make_engine("a", [["x", "y"], ["x"]]))
        broker.register(make_engine("b", [["x", "z", "w"]]))
        invoked = broker.search(Query.from_terms(["x"]), 0.1).invoked
        assert len(invoked) == 1


def failure(engine, message="boom"):
    return EngineFailure(
        engine=engine, kind="error", attempts=1, elapsed=0.25, message=message
    )


class CannedPipeline(SearchPipeline):
    """A backend of two canned steps: every query gets the same estimate
    row, and each invoked engine answers from ``HITS``, fails if listed in
    ``down``, or (like a shard that vanished between the steps) says
    nothing at all."""

    series_prefix = "canned"
    engine_names = ["a", "b", "c", "d", "lost"]
    ROW = [  # best first; "d" is estimated useless, "lost" never estimated
        EstimatedUsefulness("c", Usefulness(nodoc=3.0, avgsim=0.5)),
        EstimatedUsefulness("a", Usefulness(nodoc=2.0, avgsim=0.5)),
        EstimatedUsefulness("b", Usefulness(nodoc=1.0, avgsim=0.5)),
        EstimatedUsefulness("d", Usefulness(nodoc=0.0, avgsim=0.0)),
    ]
    HITS = {
        "a": [SearchHit(0.9, "a-1", "a"), SearchHit(0.2, "a-2", "a")],
        "c": [SearchHit(0.9, "c-1", "c"), SearchHit(0.5, "c-2", "c")],
    }

    def __init__(self, down=("b",), **kwargs):
        super().__init__(**kwargs)
        self.down = down
        self.calls = []

    def __len__(self):
        return len(self.engine_names)

    def rows(self, queries, thresholds):
        self.calls.append(("rows", list(queries), list(thresholds)))
        return [list(self.ROW) for __ in queries], [failure("lost", "no shard")]

    def reports(self, queries, thresholds, invoked_lists):
        self.calls.append(("reports", list(queries), list(thresholds)))
        return [
            DispatchReport(
                results={n: self.HITS[n] for n in invoked if n in self.HITS},
                failures=[failure(n) for n in invoked if n in self.down],
                latencies={n: 0.5 for n in invoked},
            )
            for invoked in invoked_lists
        ]


class TestSearchPipeline:
    """The base class over a fake backend: everything but the two steps."""

    QUERY = Query.from_terms(["rocket"])

    def test_estimate_surface_is_views_of_the_rows_step(self):
        pipeline = CannedPipeline()
        assert pipeline.estimate_all(self.QUERY, 1) == CannedPipeline.ROW
        assert pipeline.calls == [("rows", [self.QUERY], [1.0])]
        assert pipeline.estimate_batch([self.QUERY] * 2, [0.1, 0.2]) == [
            CannedPipeline.ROW
        ] * 2
        assert pipeline.calls[-1] == ("rows", [self.QUERY] * 2, [0.1, 0.2])
        assert pipeline.select(self.QUERY, 0.2) == ["c", "a", "b"]
        assert pipeline.estimate_all_cached(self.QUERY, 0.2) is None

    def test_failures_and_latencies_are_ordered(self):
        response = CannedPipeline(down=("b", "c")).search(self.QUERY, 0.2)
        assert response.invoked == ["c", "a", "b"]
        assert response.estimates == CannedPipeline.ROW
        # Estimate failures first, then dispatch failures in invoked order.
        assert response.failures == [
            failure("lost", "no shard"), failure("c"), failure("b")
        ]
        assert list(response.latencies) == ["c", "a", "b"]
        assert response.degraded and response.answered == ["a"]

    def test_limit_truncates_after_the_total_order_merge(self):
        pipeline = CannedPipeline()
        merged = pipeline.search(self.QUERY, 0.2).hits
        assert [h.doc_id for h in merged] == ["a-1", "c-1", "c-2", "a-2"]
        for limit in (0, 1, 3, 9):
            assert pipeline.search(self.QUERY, 0.2, limit).hits == merged[:limit]

    def test_trace_has_one_span_per_stage_and_invoked_engine(self):
        trace = CannedPipeline().search(self.QUERY, 0.2).trace
        assert [span.name for span in trace.spans] == [
            "estimate", "select", "dispatch:c", "dispatch:a", "dispatch:b", "merge",
        ]
        spans = {span.name: span for span in trace.spans}
        assert spans["estimate"].metadata == {"engines": 5}
        assert spans["select"].metadata == {"selected": 3}
        assert spans["merge"].metadata == {"hits": 4}
        assert spans["dispatch:a"].metadata == {"ok": True}
        assert spans["dispatch:b"].metadata == {"ok": False}
        assert spans["dispatch:c"].duration == 0.5

    def test_series_land_under_the_subclass_prefix(self):
        registry = MetricsRegistry()
        pipeline = CannedPipeline(registry=registry)
        pipeline.search_batch([self.QUERY] * 2, 0.2)
        pipeline.estimate_batch([self.QUERY], 0.2)
        series = {}
        for metric in registry.snapshot():
            assert metric["name"].startswith("canned."), metric["name"]
            value = metric["value"] if metric["kind"] == "counter" else metric["count"]
            series[(metric["name"], *metric["labels"].values())] = value
        assert series == {
            ("canned.searches",): 2,
            ("canned.searches.degraded",): 2,
            ("canned.engines.invoked",): 6,
            ("canned.batch.batches",): 2,
            ("canned.batch.queries",): 3,
            ("canned.batch.seconds",): 2,
            ("canned.stage.seconds", "estimate"): 1,
            ("canned.stage.seconds", "select"): 2,
            ("canned.stage.seconds", "dispatch"): 1,
            ("canned.stage.seconds", "merge"): 2,
        }

    def test_search_is_a_batch_of_one(self):
        pipeline = CannedPipeline()
        solo = pipeline.search(self.QUERY, 0.2, 3)
        assert solo == pipeline.search_batch([self.QUERY], 0.2, 3)[0]
        steps = [call[0] for call in pipeline.calls]
        assert steps == ["rows", "reports"] * 2
        assert pipeline.calls[0][1:] == pipeline.calls[2][1:]

    def test_custom_policy_sees_each_row(self):
        pipeline = CannedPipeline(policy=TopKPolicy(1))
        assert [r.invoked for r in pipeline.search_batch([self.QUERY] * 2, 0.2)] == [
            ["c"], ["c"]
        ]
