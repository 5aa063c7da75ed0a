"""The references the differential suites compare the broker against.

Every production estimate — the broker's, the paper tables', ``repro
estimate``'s and ``repro allocate``'s — comes off the batched kernel
(``repro.core.vectorized``); the paper's scalar estimators looped over dict
representatives are what that kernel must equal, bit for bit.
``ScalarOracle`` is exactly that loop — no fleet store, no caches, no
kernel — behind the broker's estimate surface, so a suite (or
``GatewayApp``'s ``/estimate``) can take it wherever it took a broker.  ``apply_delta`` is the same idea for live deltas: the dict-form
application that ``FleetRepresentativeStore.apply_delta`` must equal; and
``per_term_representative`` is the builder's one-reduction-per-term loop,
which the grouped ``build_representative`` must equal bit for bit.
``RebuiltLiveEngine`` is the live engine done the slow way — rebuild the
collection, index and canonical representative after every mutation and
diff two rebuilds — which ``LiveEngineServer``'s in-place edits must equal.
``threshold_select`` and ``top_k_select`` are the selection policies done
on objects — filter on ``nodoc_rounded``, sort by ``sort_key`` — which the
policies' array reads of an ``EstimateRow`` must equal.
"""

from collections import OrderedDict
from typing import Dict, List

from repro.core import SubrangeEstimator
from repro.corpus import Collection
from repro.engine import SearchEngine
from repro.fleet.delta import (
    RepresentativeDelta,
    canonicalize,
    diff_representatives,
    rescale_probability,
)
from repro.metasearch import EstimatedUsefulness
from repro.metasearch.broker import broadcast_thresholds
from repro.representatives import build_representative
from repro.representatives.representative import DatabaseRepresentative
from repro.representatives.term_stats import TermStats


def threshold_select(estimates, min_nodoc=1):
    """``ThresholdPolicy(min_nodoc).select`` over estimate objects."""
    chosen = [e for e in estimates if e.usefulness.nodoc_rounded >= min_nodoc]
    chosen.sort(key=lambda e: e.sort_key)
    return [e.engine for e in chosen]


def top_k_select(estimates, k):
    """``TopKPolicy(k).select`` over estimate objects."""
    ranked = sorted(estimates, key=lambda e: e.sort_key)
    return [e.engine for e in ranked[:k] if e.usefulness.nodoc > 0.0]


class HalvedSubrange(SubrangeEstimator):
    """A subclass whose override changes the numbers.  The batched kernel
    would silently ignore the override, so it has none: the grid and the
    broker refuse it with ``TypeError``, while the scalar oracle honours
    it."""

    def term_polynomial(self, u, stats, context):
        exponents, coeffs = super().term_polynomial(u, stats, context)
        return exponents * 0.5, coeffs


class ScalarOracle:
    def __init__(self, estimator=None):
        self.estimator = estimator or SubrangeEstimator()
        self.representatives = {}

    def register(self, engine, representative=None, **_):
        if representative is None:
            representative = build_representative(engine)
        self.representatives[engine.name] = representative

    @property
    def engine_names(self):
        return sorted(self.representatives)

    def estimate_all(self, query, threshold):
        row = [
            EstimatedUsefulness(
                engine=name,
                usefulness=self.estimator.estimate(query, rep, threshold),
            )
            for name, rep in self.representatives.items()
        ]
        return sorted(row, key=lambda e: e.sort_key)

    def estimate_batch(self, queries, thresholds):
        queries = list(queries)
        per_query = broadcast_thresholds(queries, thresholds)
        return [self.estimate_all(q, t) for q, t in zip(queries, per_query)]


def per_term_representative(
    source, include_max_weight: bool = True
) -> DatabaseRepresentative:
    """The representative of ``source`` (an engine or an inverted index),
    one ``mean`` / ``std`` / ``max`` reduction per posting list, in the
    index's iteration order."""
    index = source.index if isinstance(source, SearchEngine) else source
    n = index.n_documents
    vocabulary = index.collection.vocabulary
    term_stats = {}
    for term_id, plist in index.items():
        weights = plist.weights
        term_stats[vocabulary.term_of(term_id)] = TermStats(
            probability=plist.document_frequency / n if n else 0.0,
            mean=float(weights.mean()),
            std=float(weights.std(ddof=0)),
            max_weight=float(weights.max()) if include_max_weight else None,
        )
    return DatabaseRepresentative(
        name=index.collection.name, n_documents=n, term_stats=term_stats
    )


def apply_delta(
    representative: DatabaseRepresentative, delta: RepresentativeDelta
) -> DatabaseRepresentative:
    """Apply ``delta`` to a dict representative; returns the new one.

    The result is bit-exact against a fresh canonical representative at
    ``delta.to_version``: touched terms take the final stats the delta
    carries, untouched terms rescale their probability exactly, and the
    output iterates in canonical sorted-term order.  Deleting an absent
    term is a no-op (state-based records are idempotent), but a mismatched
    base document count is an error — it means the caller is applying the
    delta to the wrong version.
    """
    if representative.name != delta.name:
        raise ValueError(
            f"delta for {delta.name!r} applied to {representative.name!r}"
        )
    if representative.n_documents != delta.from_n_documents:
        raise ValueError(
            f"delta expects a base of {delta.from_n_documents} documents, "
            f"got {representative.n_documents}"
        )
    removed = {r.term for r in delta.records if r.op == "del"}
    replaced = {r.term: r.stats for r in delta.records if r.op == "set"}
    n_old = delta.from_n_documents
    n_new = delta.n_documents
    merged: Dict[str, TermStats] = {}
    for term, stats in representative.items():
        if term in removed or term in replaced:
            continue
        if n_old != n_new:
            stats = TermStats(
                probability=rescale_probability(stats.probability, n_old, n_new),
                mean=stats.mean,
                std=stats.std,
                max_weight=stats.max_weight,
            )
        merged[term] = stats
    merged.update(replaced)
    if n_new == 0 and merged:
        raise ValueError("delta empties the database but terms survive")
    return DatabaseRepresentative(
        name=delta.name,
        n_documents=n_new,
        term_stats={term: merged[term] for term in sorted(merged)},
    )


class RebuiltLiveEngine:
    """A live engine that rebuilds ``Collection`` + ``SearchEngine`` and the
    canonical representative after every mutation and publishes the diff of
    two rebuilds.  Keeps every delta (no compaction), so it can answer
    ``delta_since`` for any version; from version 0 (or ``None``) that is
    the diff from the empty representative."""

    def __init__(self, name, documents=()):
        self.name = name
        self._documents = OrderedDict()
        for document in documents:
            if document.doc_id in self._documents:
                raise ValueError(f"duplicate doc_id {document.doc_id!r}")
            self._documents[document.doc_id] = document
        self.version = 1 if self._documents else 0
        self._log: List[RepresentativeDelta] = []
        self._rebuild()

    @property
    def n_documents(self):
        return len(self._documents)

    @property
    def doc_ids(self):
        return list(self._documents)

    @property
    def representative(self):
        """The canonical representative of the current documents."""
        return self._representative

    def document(self, doc_id):
        return self._documents[doc_id]

    def _rebuild(self):
        self._engine = SearchEngine(
            Collection.from_documents(self.name, self._documents.values())
        )
        if self._documents:
            self._representative = canonicalize(build_representative(self._engine))
        else:
            self._representative = DatabaseRepresentative(self.name, 0, {})

    def add_documents(self, documents):
        for document in documents:
            if document.doc_id in self._documents:
                raise ValueError(f"duplicate doc_id {document.doc_id!r}")
            self._documents[document.doc_id] = document
        return self._published()

    def remove_documents(self, doc_ids):
        for doc_id in doc_ids:
            del self._documents[doc_id]
        return self._published()

    def _published(self):
        old = self._representative
        self._rebuild()
        delta = diff_representatives(
            old, self._representative,
            from_version=self.version, to_version=self.version + 1,
        )
        self.version += 1
        self._log.append(delta)
        return delta

    def delta_since(self, since):
        if since == self.version:
            return RepresentativeDelta(
                name=self.name, from_version=since, to_version=since,
                from_n_documents=self.n_documents,
                n_documents=self.n_documents, records=(),
            )
        if not since or since > self.version:
            return diff_representatives(
                DatabaseRepresentative(self.name, 0, {}), self._representative,
                from_version=0, to_version=self.version,
            )
        first = self.version - len(self._log)  # the log's oldest base
        composed = self._log[since - first]
        for later in self._log[since - first + 1:]:
            composed = composed.compose(later)
        return composed

    def search(self, query, threshold):
        return self._engine.search(query, threshold)

    def max_similarity(self, query):
        return self._engine.max_similarity(query)
