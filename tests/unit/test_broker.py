"""Unit tests for the metasearch broker."""

import numpy as np
import pytest

from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker, ThresholdPolicy, TopKPolicy
from repro.metasearch.broker import broadcast_thresholds
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
        held = broker.representative_of("e").materialize()
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
