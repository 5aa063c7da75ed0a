"""Unit tests for document-count-driven allocation."""

import pytest

from repro.core.genfunc import BatchedGenFunc
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.metasearch import (
    allocate_documents,
    expected_nodoc_at,
    plan_allocation,
    threshold_for_k,
)
from repro.representatives import build_representative


def make_rep(name, docs):
    engine = SearchEngine(
        Collection.from_documents(
            name, [Document(f"{name}-{i}", terms=t) for i, t in enumerate(docs)]
        )
    )
    return build_representative(engine)


@pytest.fixture
def representatives():
    return {
        "rich": make_rep(
            "rich", [["x", "y"], ["x"], ["x", "z"], ["x", "x", "q"]]
        ),
        "poor": make_rep("poor", [["x", "a", "b", "c"], ["d"]]),
        "empty": make_rep("none", [["unrelated"]]),
    }


class TestThresholdForK:
    def test_monotone_in_k(self, representatives):
        query = Query.from_terms(["x"])
        t1 = threshold_for_k(query, representatives, 1)
        t3 = threshold_for_k(query, representatives, 3)
        assert t1 >= t3

    def test_supply_exceeding_demand(self, representatives):
        query = Query.from_terms(["x"])
        threshold = threshold_for_k(query, representatives, 2)
        total = sum(
            expected_nodoc_at(query, representatives, threshold).values()
        )
        assert total >= 2

    def test_unsatisfiable_k_returns_zero(self, representatives):
        query = Query.from_terms(["x"])
        assert threshold_for_k(query, representatives, 1000) == 0.0

    def test_k_validated(self, representatives):
        with pytest.raises(ValueError):
            threshold_for_k(Query.from_terms(["x"]), representatives, 0)

    def test_no_matching_terms(self, representatives):
        query = Query.from_terms(["zzzz"])
        assert threshold_for_k(query, representatives, 1) == 0.0


class TestExpectedNoDocAt:
    def test_covers_all_engines(self, representatives):
        out = expected_nodoc_at(Query.from_terms(["x"]), representatives, 0.1)
        assert set(out) == {"rich", "poor", "empty"}

    def test_empty_engine_zero(self, representatives):
        out = expected_nodoc_at(Query.from_terms(["x"]), representatives, 0.1)
        assert out["empty"] == 0.0


class TestAllocateDocuments:
    def test_quotas_sum_to_k_when_supply_allows(self, representatives):
        query = Query.from_terms(["x"])
        quotas = allocate_documents(query, representatives, 3)
        assert sum(quotas.values()) == 3

    def test_rich_engine_gets_more(self, representatives):
        query = Query.from_terms(["x"])
        quotas = allocate_documents(query, representatives, 4)
        assert quotas["rich"] >= quotas["poor"]
        assert quotas["empty"] == 0

    def test_nothing_to_allocate(self, representatives):
        quotas = allocate_documents(
            Query.from_terms(["zzzz"]), representatives, 5
        )
        assert all(v == 0 for v in quotas.values())

    def test_quotas_nonnegative_integers(self, representatives):
        quotas = allocate_documents(Query.from_terms(["x", "y"]),
                                    representatives, 5)
        for value in quotas.values():
            assert isinstance(value, int)
            assert value >= 0

    def test_k_one(self, representatives):
        quotas = allocate_documents(Query.from_terms(["x"]), representatives, 1)
        assert sum(quotas.values()) == 1


class TestOneExpansionPerAllocation:
    #: ``(query terms, k) -> (threshold bits, quotas)`` as the scalar
    #: per-engine expansion computed them before allocation moved onto the
    #: batched kernel.
    PINNED = [
        (["x"], 2, "0x1.c942e00000000p-1", {"rich": 2, "poor": 0, "empty": 0}),
        (["x"], 5, "0x1.ffffc00000000p-2", {"rich": 4, "poor": 1, "empty": 0}),
        (["x", "y"], 5, "0x1.6a09c00000000p-2", {"rich": 4, "poor": 1, "empty": 0}),
        (["x", "z", "q"], 2, "0x1.279a600000000p-1", {"rich": 2, "poor": 0, "empty": 0}),
        (["d", "x", "c"], 2, "0x1.279a600000000p-1", {"rich": 1, "poor": 1, "empty": 0}),
        (["d", "x", "c"], 5, "0x1.9385000000000p-2", {"rich": 4, "poor": 1, "empty": 0}),
        (["zzzz"], 5, "0x0.0p+0", {"rich": 0, "poor": 0, "empty": 0}),
    ]

    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        product = BatchedGenFunc.product.__func__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return product(cls, *args, **kwargs)

        monkeypatch.setattr(BatchedGenFunc, "product", classmethod(counting))
        return calls

    def test_allocate_documents_expands_once(self, representatives, products):
        allocate_documents(Query.from_terms(["x", "y"]), representatives, 3)
        assert len(products) == 1

    def test_plan_allocation_expands_once(self, representatives, products):
        threshold, quotas = plan_allocation(
            Query.from_terms(["x", "y"]), representatives, 3
        )
        assert len(products) == 1
        assert threshold == threshold_for_k(
            Query.from_terms(["x", "y"]), representatives, 3
        )
        assert len(products) == 2

    def test_thresholds_and_quotas_pinned(self, representatives):
        for terms, k, threshold_bits, quotas in self.PINNED:
            query = Query.from_terms(terms)
            threshold, planned = plan_allocation(query, representatives, k)
            assert threshold.hex() == threshold_bits
            assert planned == quotas
            assert threshold_for_k(query, representatives, k) == threshold
            assert allocate_documents(query, representatives, k) == quotas
