"""Operating a metasearch fleet: live representative deltas and
document-count-driven allocation.

Two operational scenarios beyond the basic routing demo:

1. An engine's corpus churns.  Every mutation publishes a versioned
   representative delta; the broker keeps selecting from its stale copy
   (the paper's "propagation can be done infrequently") until it syncs,
   then catches up with one composed delta — the negotiation
   ``GET /representative/delta`` performs over HTTP.
2. A user asks for "the best 10 documents" rather than a threshold; the
   broker inverts the fleet's expected NoDoc to a threshold and hands each
   engine an integer retrieval quota.

Run:  python examples/fleet_operations.py
"""

from repro import MetasearchBroker, Query, SearchEngine, build_representative
from repro.corpus import Document
from repro.corpus.synth import NewsgroupModel, QueryLogModel
from repro.fleet import LiveEngineServer
from repro.metasearch import allocate_documents, threshold_for_k


def documents_of(collection):
    """The documents of a built collection, ready to feed a live engine."""
    return [
        Document(doc_id=collection.doc_id(i), terms=collection.terms_of(i))
        for i in range(len(collection))
    ]


def main() -> None:
    model = NewsgroupModel(seed=77)

    print("-- 1. live representative deltas --")
    live = LiveEngineServer("group02", documents_of(model.generate_group(2)))
    broker = MetasearchBroker()
    broker.sync_representative(live)  # first contact: a full snapshot
    print(f"registered {live}")
    known = {term for term, __ in live.snapshot().representative.items()}
    # Three "new" documents, borrowed from another newsgroup for the demo.
    newcomers = documents_of(model.generate_group(3))[:3]
    fresh_term = next(
        term for doc in newcomers for term in doc.terms if term not in known
    )
    live.add_documents(newcomers)
    live.remove_documents(live.doc_ids[:2])
    query = Query.from_terms([fresh_term])
    threshold = live.max_similarity(query) / 2
    print(f"after two mutations: {live}")
    print(
        f"query [{fresh_term}] at T={threshold:.3f}: stale broker selects "
        f"{broker.select(query, threshold)}"
    )
    report = broker.sync_representative(live)
    print(
        f"synced v{report.from_version} -> v{report.to_version} with one "
        f"composed delta: {report.terms_touched} terms touched, "
        f"{report.nbytes} bytes, {report.mode} cache invalidation"
    )
    print(f"synced broker selects {broker.select(query, threshold)}")
    exact = (
        broker.representative_of("group02").materialize()
        == live.snapshot().representative
    )
    print(f"broker copy equals the engine's rebuilt representative: {exact}")

    print("\n-- 2. top-k quota allocation --")
    engines = {
        f"group{g:02d}": SearchEngine(model.generate_group(g))
        for g in range(6)
    }
    representatives = {
        name: build_representative(engine)
        for name, engine in engines.items()
    }
    queries = QueryLogModel(model, seed=9).generate(200)
    query = next(q for q in queries if q.n_terms >= 3)
    k = 10
    threshold = threshold_for_k(query, representatives, k)
    quotas = allocate_documents(query, representatives, k)
    print(f"query {query.terms}, want {k} documents")
    print(f"inverted threshold: {threshold:.4f}")
    for name in sorted(quotas):
        print(f"  {name}: quota {quotas[name]}")
    retrieved = []
    for name, quota in quotas.items():
        if quota > 0:
            retrieved.extend(engines[name].top_k(query, quota))
    retrieved.sort(reverse=True)
    print("retrieved (merged):")
    for hit in retrieved[:k]:
        print(f"  {hit.doc_id}  sim={hit.similarity:.4f}  from {hit.engine}")


if __name__ == "__main__":
    main()
