"""Distributed vs monolithic equivalence.

The paper's architecture partitions the corpus across engines instead of
one monolithic index.  Under Cosine this partitioning is *lossless*: a
document's normalized weights depend only on that document, so searching
the union of engines (broadcast) must return exactly the hits a single
engine over the merged collection returns — same documents, same
similarities.  This is a whole-stack consistency check: collection merging,
vocabulary re-keying, indexing, query normalization and result merging all
have to agree for it to hold.
"""

import pytest

from repro.corpus import Collection
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker


@pytest.fixture(scope="module")
def setup(small_model):
    groups = [small_model.generate_group(g) for g in range(4)]
    broker = MetasearchBroker()
    for group in groups:
        broker.register(SearchEngine(group))
    monolithic = SearchEngine(Collection.merged("all", groups))
    return broker, monolithic


class TestEquivalence:
    def test_broadcast_equals_monolithic(self, setup, small_queries):
        broker, monolithic = setup
        for query in small_queries[:60]:
            for threshold in (0.1, 0.3):
                broadcast = broker.search_all(query, threshold).hits
                central = monolithic.search(query, threshold)
                assert {h.doc_id for h in broadcast} == {
                    h.doc_id for h in central
                }, (query, threshold)
                broadcast_sims = {h.doc_id: h.similarity for h in broadcast}
                for hit in central:
                    assert broadcast_sims[hit.doc_id] == pytest.approx(
                        hit.similarity
                    )

    def test_max_similarity_agrees(self, setup, small_queries):
        broker, monolithic = setup
        for query in small_queries[:40]:
            fleet_max = max(
                (
                    broker.engine_of(name).max_similarity(query)
                    for name in broker.engine_names
                ),
                default=0.0,
            )
            assert fleet_max == pytest.approx(monolithic.max_similarity(query))

    def test_selected_search_is_subset_of_monolithic(self, setup, small_queries):
        broker, monolithic = setup
        for query in small_queries[:40]:
            selected = broker.search(query, 0.3).hits
            central_ids = {h.doc_id for h in monolithic.search(query, 0.3)}
            assert {h.doc_id for h in selected} <= central_ids

    def test_merged_representative_matches_monolithic_engine(
        self, setup, small_model
    ):
        from repro.representatives import (
            build_representative,
            merge_representatives,
        )

        broker, monolithic = setup
        merged_rep = merge_representatives(
            "all",
            [broker.representative_of(n) for n in broker.engine_names],
        )
        central_rep = build_representative(monolithic)
        assert merged_rep.n_documents == central_rep.n_documents
        assert merged_rep.n_terms == central_rep.n_terms
        sample = [t for t, __ in list(central_rep.items())[::200]]
        for term in sample:
            a, b = merged_rep.get(term), central_rep.get(term)
            assert a.probability == pytest.approx(b.probability)
            assert a.mean == pytest.approx(b.mean)
            assert a.std == pytest.approx(b.std, abs=1e-9)
            assert a.max_weight == pytest.approx(b.max_weight)
