"""A mutable search engine that publishes versioned representative deltas.

:class:`LiveEngineServer` is the engine side of the live-engine protocol: a
mutable document collection behind ``search`` / ``max_similarity`` /
``sync_representative``, with a bounded delta log.  Every mutation bumps an
integer mutation version and appends the
:class:`~repro.fleet.delta.RepresentativeDelta` between the previous and
the new canonical snapshot; a broker that last synced at version ``v``
catches up with ``delta_since(v)`` — the composed delta — unless ``v`` has
been compacted out of the log, in which case it falls back to a full
snapshot.  Until it syncs, the broker selects from its stale copy (the
paper's "propagation can be done infrequently") while searches run live.

Why the deltas are generated by *diffing* full rebuilds rather than by
streaming sufficient-statistics updates: a search engine's normalized
weights are document-local under the paper's Cosine model, but the order in
which a rebuilt index sums a document's squared weights follows the
collection-wide vocabulary numbering, which shifts when documents are
removed.  Diffing two rebuilt snapshots makes the delta describe exactly
the statistics the engine will serve next, so delta application is
bit-exact by construction.  This diff of rebuilds is the one way a
representative is maintained under mutation.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Union

from repro.corpus.collection import Collection
from repro.corpus.document import Document
from repro.corpus.query import Query
from repro.engine.results import SearchHit
from repro.engine.search_engine import SearchEngine
from repro.fleet.delta import (
    DeltaCompactedError,
    RepresentativeDelta,
    RepresentativeSnapshot,
    canonicalize,
    diff_representatives,
)
from repro.representatives.builder import build_representative
from repro.representatives.representative import DatabaseRepresentative

__all__ = ["LiveEngineServer"]

DEFAULT_LOG_LIMIT = 64


class LiveEngineServer:
    """A local engine whose corpus churns, with versioned delta publication.

    Args:
        name: Engine name (the broker's routing key).
        documents: Initial corpus; version 0 covers exactly these.
        log_limit: Number of per-mutation deltas retained.  Older entries
            are compacted away; ``delta_since`` below the compaction
            horizon raises :class:`DeltaCompactedError` and
            :meth:`sync_representative` falls back to a full snapshot.
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
        self._documents: "OrderedDict[str, Document]" = OrderedDict()
        for document in documents or []:
            if document.doc_id in self._documents:
                raise ValueError(f"duplicate doc_id {document.doc_id!r}")
            self._documents[document.doc_id] = document
        self._engine: Optional[SearchEngine] = None
        self._version = 0
        self._log_limit = log_limit
        self._log: Deque[RepresentativeDelta] = deque()
        self._representative = self._build_canonical()

    # -- identity and versioning ----------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def version(self) -> int:
        """Mutation counter: one tick per add/remove batch."""
        return self._version

    @property
    def n_documents(self) -> int:
        return len(self._documents)

    @property
    def doc_ids(self) -> List[str]:
        return list(self._documents)

    @property
    def compacted_below(self) -> int:
        """Oldest base version ``delta_since`` can still serve."""
        return self._log[0].from_version if self._log else self._version

    # -- mutation --------------------------------------------------------------

    def add_documents(self, documents: Iterable[Document]) -> RepresentativeDelta:
        """Ingest new documents; returns the mutation's delta.  An id already
        held, or repeated in ``documents``, rejects the whole batch."""
        documents = list(documents)
        seen = set()
        for document in documents:
            if document.doc_id in self._documents or document.doc_id in seen:
                raise ValueError(f"duplicate doc_id {document.doc_id!r}")
            seen.add(document.doc_id)
        return self._mutate(add=documents, remove=())

    def remove_documents(
        self, doc_ids: Iterable[str]
    ) -> RepresentativeDelta:
        """Drop documents by id; returns the mutation's delta.  An unknown
        or repeated id rejects the whole batch."""
        doc_ids = list(doc_ids)
        seen = set()
        for doc_id in doc_ids:
            if doc_id not in self._documents:
                raise KeyError(f"unknown doc_id {doc_id!r}")
            if doc_id in seen:
                raise ValueError(f"doc_id {doc_id!r} listed twice")
            seen.add(doc_id)
        return self._mutate(add=(), remove=doc_ids)

    def _mutate(
        self, add: Sequence[Document], remove: Sequence[str]
    ) -> RepresentativeDelta:
        old = self._representative
        for doc_id in remove:
            del self._documents[doc_id]
        for document in add:
            self._documents[document.doc_id] = document
        self._engine = None
        new = self._build_canonical()
        delta = diff_representatives(
            old, new, from_version=self._version, to_version=self._version + 1
        )
        self._version += 1
        self._representative = new
        self._log.append(delta)
        while len(self._log) > self._log_limit:
            self._log.popleft()
        return delta

    # -- representative publication --------------------------------------------

    def _built(self) -> SearchEngine:
        if self._engine is None:
            collection = Collection.from_documents(
                self._name, self._documents.values()
            )
            self._engine = SearchEngine(collection)
        return self._engine

    def _build_canonical(self) -> DatabaseRepresentative:
        if not self._documents:
            return DatabaseRepresentative(self._name, 0, {})
        return canonicalize(build_representative(self._built()))

    def snapshot(self) -> RepresentativeSnapshot:
        """The current canonical representative, version-stamped."""
        return RepresentativeSnapshot(
            name=self._name,
            version=self._version,
            representative=self._representative,
        )

    def delta_since(self, since: int) -> RepresentativeDelta:
        """The composed delta from version ``since`` to the live version.

        Raises :class:`DeltaCompactedError` when ``since`` predates the
        retained log and :class:`ValueError` when it lies in the future.
        """
        if since > self._version or since < 0:
            raise ValueError(
                f"version {since} outside [0, {self._version}]"
            )
        if since == self._version:
            return RepresentativeDelta(
                name=self._name,
                from_version=since,
                to_version=since,
                from_n_documents=self.n_documents,
                n_documents=self.n_documents,
                records=(),
            )
        if not self._log or self._log[0].from_version > since:
            raise DeltaCompactedError(
                f"version {since} compacted (log starts at "
                f"{self.compacted_below})"
            )
        start = since - self._log[0].from_version
        composed = self._log[start]
        for index in range(start + 1, len(self._log)):
            composed = composed.compose(self._log[index])
        return composed

    def sync_representative(
        self, since: Optional[int] = None
    ) -> Union[RepresentativeDelta, RepresentativeSnapshot]:
        """Delta when the base version is still in the log, else snapshot.

        This is the in-process twin of ``GET /representative/delta`` — the
        :class:`~repro.serving.remote_engine.RemoteEngine` method of the
        same name performs the identical negotiation over HTTP.
        """
        if since is None:
            return self.snapshot()
        try:
            return self.delta_since(since)
        except (DeltaCompactedError, ValueError):
            return self.snapshot()

    # -- serving ---------------------------------------------------------------

    def search(self, query: Query, threshold: float) -> List[SearchHit]:
        """Serve a query against the *current* documents."""
        return self._built().search(query, threshold)

    def max_similarity(self, query: Query) -> float:
        return self._built().max_similarity(query)

    def __repr__(self) -> str:
        return (
            f"LiveEngineServer({self._name!r}, version={self._version}, "
            f"docs={self.n_documents})"
        )
