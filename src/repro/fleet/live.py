"""A mutable search engine that publishes versioned representative deltas.

:class:`LiveEngineServer` is the engine side of the live-engine protocol: a
mutable document collection behind ``search`` / ``max_similarity`` /
``sync_representative``, with a bounded delta log.  Version 0 is the empty
representative; a server built with documents starts at version 1.  Every
mutation bumps an integer mutation version and appends the
:class:`~repro.fleet.delta.RepresentativeDelta` between the previous and
the new representative; a broker that last synced at version ``v``
catches up with ``delta_since(v)`` — the composed delta — unless ``v`` is
0, unknown, compacted out of the log or ahead of the server, in which case
it gets the *full* delta from version 0, built straight from the per-term
statistics.  Until it syncs, the broker selects from its stale copy (the
paper's "propagation can be done infrequently") while searches run live.

Why the index can be edited in place instead of rebuilt: a live engine
runs the paper's configuration — raw tf weights, Cosine normalization, no
idf — so a document's normalized weight for a term is ``tf / sqrt(sum of
tf**2)`` over that document alone.  The sum is of squared integer counts:
every partial sum is an integer below ``2**53`` for any document under
about 9·10⁷ tokens, so it is exact in float64 in *any* order, and the
rebuilt index's sum in vocabulary-id order (which a removal renumbers)
gives the very same bits.  Each weight therefore depends on its own
document only.  The server keeps one ``{doc_id: weight}`` posting per
term; dict insertion order is document order — a removal deletes its
entries in place, an addition (a re-added id included) appends at the
end — which is exactly the order a rebuilt posting list holds.  A
mutation edits the postings of the documents it adds or removes,
re-reduces only the terms they touch (:func:`reduce_weight_rows`, the
reduction ``build_representative`` runs) and emits a ``set`` record for a
touched term whose ``(df, mean, std, max)`` changed and a ``del`` for one
whose posting emptied: the records ``diff_representatives`` would find
between two rebuilt representatives, bit for bit.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.corpus.document import Document
from repro.corpus.query import Query
from repro.engine.results import SearchHit
from repro.fleet.delta import RepresentativeDelta, TermDeltaRecord
from repro.representatives.builder import reduce_weight_rows
from repro.representatives.term_stats import TermStats

__all__ = ["LiveEngineServer"]

DEFAULT_LOG_LIMIT = 64

#: A term's reduced posting: ``(df, mean, std, max_weight)``.
_Stats = Tuple[int, float, float, float]


def _normalized_weights(document: Document) -> Dict[str, float]:
    """Raw tf over the Cosine norm, per distinct term of ``document``."""
    counts: Dict[str, int] = {}
    for term in document.terms:
        counts[term] = counts.get(term, 0) + 1
    norm = math.sqrt(sum(tf * tf for tf in counts.values()))
    return {term: tf / norm for term, tf in counts.items()}


def _batch(items, what: str) -> list:
    """``items`` as a list; a bare string is refused rather than iterated."""
    if isinstance(items, str):
        raise TypeError(f"{what} must be an iterable, not a str")
    return list(items)


class LiveEngineServer:
    """A local engine whose corpus churns, with versioned delta publication.

    Args:
        name: Engine name (the broker's routing key).
        documents: Initial corpus; version 1 covers exactly these (version
            0, the empty representative, when there are none).
        log_limit: Number of per-mutation deltas retained.  Older entries
            are compacted away; ``delta_since`` below the compaction
            horizon answers the full delta.
    """

    def __init__(
        self,
        name: str,
        documents: Optional[Iterable[Document]] = None,
        *,
        log_limit: int = DEFAULT_LOG_LIMIT,
    ):
        if log_limit < 1:
            raise ValueError(f"log_limit must be >= 1, got {log_limit!r}")
        self._name = name
        #: doc_id -> {term: normalized weight}, in document order.
        self._weights: Dict[str, Dict[str, float]] = {}
        #: term -> {doc_id: normalized weight}, in document order.
        self._postings: Dict[str, Dict[str, float]] = {}
        self._stats: Dict[str, _Stats] = {}
        # A search walks the postings a mutation edits in place; the two
        # (and a delta build) never interleave.
        self._lock = threading.Lock()
        for document in documents or []:
            if document.doc_id in self._weights:
                raise ValueError(f"duplicate doc_id {document.doc_id!r}")
            self._insert(document)
        self._restat(self._postings)
        self._version = 1 if self._weights else 0
        self._log_limit = log_limit
        self._log: Deque[RepresentativeDelta] = deque()

    # -- identity and versioning ----------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def version(self) -> int:
        """Mutation counter: one tick per non-empty add/remove batch."""
        return self._version

    @property
    def n_documents(self) -> int:
        return len(self._weights)

    @property
    def doc_ids(self) -> List[str]:
        return list(self._weights)

    @property
    def compacted_below(self) -> int:
        """Oldest base version ``delta_since`` composes from the log; any
        base below it (other than 0) gets the full delta."""
        return self._log[0].from_version if self._log else self._version

    # -- mutation --------------------------------------------------------------

    def add_documents(self, documents: Iterable[Document]) -> RepresentativeDelta:
        """Ingest new documents; returns the mutation's delta.  An id already
        held, or repeated in ``documents``, rejects the whole batch; an
        empty batch is no mutation (the live version's empty delta)."""
        documents = _batch(documents, "documents")
        seen = set()
        for document in documents:
            if document.doc_id in self._weights or document.doc_id in seen:
                raise ValueError(f"duplicate doc_id {document.doc_id!r}")
            seen.add(document.doc_id)
        return self._mutate(add=documents, remove=())

    def remove_documents(
        self, doc_ids: Iterable[str]
    ) -> RepresentativeDelta:
        """Drop documents by id; returns the mutation's delta.  An unknown
        or repeated id rejects the whole batch; an empty batch is no
        mutation (the live version's empty delta)."""
        doc_ids = _batch(doc_ids, "doc_ids")
        seen = set()
        for doc_id in doc_ids:
            if doc_id not in self._weights:
                raise KeyError(f"unknown doc_id {doc_id!r}")
            if doc_id in seen:
                raise ValueError(f"doc_id {doc_id!r} listed twice")
            seen.add(doc_id)
        return self._mutate(add=(), remove=doc_ids)

    def _insert(self, document: Document) -> Dict[str, float]:
        weights = _normalized_weights(document)
        self._weights[document.doc_id] = weights
        for term, weight in weights.items():
            self._postings.setdefault(term, {})[document.doc_id] = weight
        return weights

    def _restat(self, terms: Iterable[str]) -> Dict[str, _Stats]:
        """Re-reduce ``terms``' postings; returns the terms whose stats
        changed, with their new stats (all of them stored)."""
        terms = list(terms)
        reduced = reduce_weight_rows(
            [list(self._postings[term].values()) for term in terms]
        )
        changed = {}
        for term, stats in zip(terms, zip(*(column.tolist() for column in reduced))):
            if self._stats.get(term) != stats:
                self._stats[term] = changed[term] = stats
        return changed

    def _mutate(
        self, add: Sequence[Document], remove: Sequence[str]
    ) -> RepresentativeDelta:
        if not add and not remove:
            return self.delta_since(self._version)
        with self._lock:
            n_before = self.n_documents
            touched = set()
            for doc_id in remove:
                for term in self._weights.pop(doc_id):
                    del self._postings[term][doc_id]
                    touched.add(term)
            for document in add:
                touched.update(self._insert(document))
            emptied = {term for term in touched if not self._postings[term]}
            records = []
            for term in emptied:  # held before: only a removal empties
                del self._postings[term], self._stats[term]
                records.append(TermDeltaRecord(op="del", term=term))
            n = self.n_documents
            for term, (df, mean, std, mw) in self._restat(touched - emptied).items():
                records.append(TermDeltaRecord(
                    op="set", term=term, stats=TermStats(df / n, mean, std, mw)
                ))
            delta = RepresentativeDelta(
                name=self._name,
                from_version=self._version,
                to_version=self._version + 1,
                from_n_documents=n_before,
                n_documents=n,
                records=tuple(records),
            )
            self._version += 1
            self._log.append(delta)
            while len(self._log) > self._log_limit:
                self._log.popleft()
        return delta

    # -- representative publication --------------------------------------------

    def delta_since(self, since: Optional[int]) -> RepresentativeDelta:
        """The delta from version ``since`` to the live version.

        A ``since`` the log still covers gets the composed delta (the
        empty delta at the live version itself).  Anything else — ``None``,
        0, a version compacted out of the log, or one ahead of the server
        (a broker that synced with an earlier run of this engine) — gets
        the full delta from version 0, built from the per-term statistics
        in sorted-term order.

        Raises:
            ValueError: ``since`` is negative.
        """
        if since is not None and since < 0:
            raise ValueError(f"version {since} is negative")
        with self._lock:
            n = self.n_documents
            if since == self._version:
                return RepresentativeDelta(
                    name=self._name,
                    from_version=since,
                    to_version=since,
                    from_n_documents=n,
                    n_documents=n,
                    records=(),
                )
            if since and self.compacted_below <= since < self._version:
                start = since - self._log[0].from_version
                composed = self._log[start]
                for index in range(start + 1, len(self._log)):
                    composed = composed.compose(self._log[index])
                return composed
            return RepresentativeDelta(
                name=self._name,
                from_version=0,
                to_version=self._version,
                from_n_documents=0,
                n_documents=n,
                records=tuple(
                    TermDeltaRecord("set", term, TermStats(df / n, mean, std, mw))
                    for term, (df, mean, std, mw) in sorted(self._stats.items())
                ),
            )

    def sync_representative(
        self, since: Optional[int] = None
    ) -> RepresentativeDelta:
        """:meth:`delta_since` under the name every engine answers it by:
        the in-process twin of ``GET /representative?since=v``, which
        :class:`~repro.serving.remote_engine.RemoteEngine` asks over HTTP."""
        return self.delta_since(since)

    # -- serving ---------------------------------------------------------------

    def _similarities(self, query: Query) -> Dict[str, float]:
        """Similarity of every document sharing a term with ``query``: each
        sum starts at 0.0 and adds ``weight * w`` in query-term order, the
        additions a rebuilt index's accumulator makes."""
        sims: Dict[str, float] = {}
        with self._lock:
            for term, weight in query.normalized_items():
                for doc_id, w in self._postings.get(term, {}).items():
                    sims[doc_id] = sims.get(doc_id, 0.0) + weight * w
        return sims

    def search(self, query: Query, threshold: float) -> List[SearchHit]:
        """Serve a query against the *current* documents."""
        hits = [
            SearchHit(similarity=sim, doc_id=doc_id, engine=self._name)
            for doc_id, sim in self._similarities(query).items()
            if sim > threshold
        ]
        hits.sort(reverse=True)
        return hits

    def max_similarity(self, query: Query) -> float:
        return max(self._similarities(query).values(), default=0.0)

    def __repr__(self) -> str:
        return (
            f"LiveEngineServer({self._name!r}, version={self._version}, "
            f"docs={self.n_documents})"
        )
