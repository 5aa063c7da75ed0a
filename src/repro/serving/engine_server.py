"""HTTP front for one local :class:`~repro.engine.SearchEngine`.

The paper's architecture has each search engine answering two remote
calls: serve a query, and publish the database representative the broker
estimates from.  :class:`EngineApp` exposes exactly those over the wire:

* ``POST /search`` — ``{"query": <wire query>, "threshold": t}`` →
  the engine's hits, best first.
* ``POST /max_similarity`` — the oracle call used by ``true_selection``.
* ``GET /representative`` — the engine's representative as a versioned
  :class:`~repro.fleet.delta.RepresentativeSnapshot`; a static engine
  stamps its *document count*, so a broker can tell whether its copy is
  stale without re-downloading.
  ``?quantize=256`` ships the one-byte form (~4 bytes/term, Section 3.2);
  ``?format=npz`` ships the columnar binary form
  (:meth:`~repro.representatives.columnar.ColumnarRepresentative.save_npz`)
  as ``application/octet-stream`` with the version echoed in the
  ``X-Repro-Representative-Version`` header — no JSON decode, no float
  text round-trip, directly loadable into a broker's fleet store.

The representative is built lazily and cached per version: rebuilding is
the expensive call a deployment batches, and repeated ``GET``\\ s at the
same version must not repeat the work.

:class:`LiveEngineApp` wraps a mutable
:class:`~repro.fleet.live.LiveEngineServer` and adds the live-fleet
protocol on top of the same engine surface:

* ``POST /mutate`` — ``{"add": [<documents>], "remove": [<doc ids>]}``
  mutates the corpus; each non-empty list is one versioned mutation
  whose delta lands in the server's replay log.  The request is validated
  whole first: a refused one (400) has applied neither list.
* ``GET /representative/delta?since=v`` — the composed
  :class:`~repro.fleet.delta.RepresentativeDelta` from version ``v`` to
  now, or the full ``representative.snapshot`` payload when ``v`` has
  been compacted out of the log (callers discriminate on ``kind``).

Versions here are *mutation counters*, not document counts — a remove
followed by an add leaves ``n_documents`` unchanged but must still be
visible to a syncing broker.
"""

from __future__ import annotations

import io
import threading
from typing import Optional, Tuple

from repro.corpus.document import Document
from repro.engine.search_engine import SearchEngine
from repro.fleet.delta import RepresentativeSnapshot
from repro.fleet.live import LiveEngineServer
from repro.representatives.builder import build_representative
from repro.representatives.columnar import ColumnarRepresentative
from repro.representatives.representative import DatabaseRepresentative
from repro.serving.http import HTTPError, Response, ServingApp
from repro.serving.wire import (
    encode_hits,
    query_from_wire,
    snapshot_to_wire,
    threshold_from_wire,
)

__all__ = ["EngineApp", "LiveEngineApp"]


class EngineApp(ServingApp):
    """Serve one search engine over HTTP.

    Args:
        engine: The engine to expose.  Its ``name`` is the routing key
            brokers register it under.
        registry: Metrics sink (a fresh registry when omitted).
        max_body: Request body cap in bytes.
        default_deadline: Budget applied to requests without an
            ``X-Repro-Deadline`` header.
    """

    role = "engine"

    def __init__(self, engine: SearchEngine, **kwargs):
        self.engine = engine
        self._rep_lock = threading.Lock()
        self._rep_cache: Optional[Tuple[int, DatabaseRepresentative]] = None
        self._npz_cache: Optional[Tuple[int, bytes]] = None
        super().__init__(**kwargs)
        self._m_searches = self.registry.counter("serving.engine.searches")
        self._m_snapshots = self.registry.counter("serving.engine.snapshots")

    def add_routes(self) -> None:
        self.route("POST", "/search", self._route_search)
        self.route("POST", "/max_similarity", self._route_max_similarity)
        self.route("GET", "/representative", self._route_representative)

    def health_info(self) -> dict:
        return {
            "engine": self.engine.name,
            "documents": self.engine.n_documents,
        }

    # -- routes --------------------------------------------------------------

    def _route_search(self, params, payload) -> Response:
        query = query_from_wire(payload.get("query"))
        threshold = threshold_from_wire(payload)
        hits = self.engine.search(query, threshold)
        self._m_searches.inc()
        return Response(
            payload={
                "kind": "hits",
                "engine": self.engine.name,
                "hits": encode_hits(hits),
            }
        )

    def _route_max_similarity(self, params, payload) -> Response:
        query = query_from_wire(payload.get("query"))
        return Response(
            payload={
                "kind": "max_similarity",
                "engine": self.engine.name,
                "value": float(self.engine.max_similarity(query)),
            }
        )

    def _representative(self) -> Tuple[int, DatabaseRepresentative]:
        """The current representative, rebuilt only when the version moved."""
        version = self.engine.n_documents
        with self._rep_lock:
            if self._rep_cache is None or self._rep_cache[0] != version:
                self._rep_cache = (version, build_representative(self.engine))
                self._m_snapshots.inc()
            return self._rep_cache

    def _npz_snapshot(self) -> Tuple[int, bytes]:
        """The columnar binary form, cached per version like the dict form."""
        version, representative = self._representative()
        with self._rep_lock:
            if self._npz_cache is None or self._npz_cache[0] != version:
                buffer = io.BytesIO()
                ColumnarRepresentative.from_representative(
                    representative
                ).save_npz(buffer)
                self._npz_cache = (version, buffer.getvalue())
            return self._npz_cache

    def _route_representative(self, params, payload) -> Response:
        fmt = params.get("format", "json")
        if fmt not in ("json", "npz"):
            raise HTTPError(
                400, f"unknown representative format {fmt!r} (json or npz)"
            )
        if fmt == "npz":
            if params.get("quantize") is not None:
                raise HTTPError(
                    400, "quantize is not supported with format=npz"
                )
            version, blob = self._npz_snapshot()
            return Response(
                raw=blob,
                content_type="application/octet-stream",
                headers={"X-Repro-Representative-Version": str(version)},
            )
        quantize: Optional[int] = None
        raw = params.get("quantize")
        if raw is not None:
            try:
                quantize = int(raw)
            except ValueError as exc:
                raise HTTPError(400, f"bad quantize parameter: {exc}") from exc
            if quantize < 1:
                raise HTTPError(
                    400, f"quantize must be >= 1, got {quantize}"
                )
        version, representative = self._representative()
        return Response(
            payload=snapshot_to_wire(
                RepresentativeSnapshot(self.engine.name, version, representative),
                quantize=quantize,
            )
        )


class LiveEngineApp(EngineApp):
    """Serve one mutable :class:`~repro.fleet.live.LiveEngineServer`.

    All of :class:`EngineApp`'s routes work unchanged (the live server is
    duck-compatible with a search engine), plus the mutation and delta
    endpoints of the live-fleet protocol.  ``/representative`` versions
    are the server's mutation counter rather than the document count, and
    the representative itself is the server's canonical snapshot, built
    once per version from the statistics it edits in place — no rebuild
    per ``GET``.
    """

    role = "engine"

    def __init__(self, server: LiveEngineServer, **kwargs):
        self.server = server
        self._last_snapshot_version: Optional[int] = None
        super().__init__(server, **kwargs)
        self._m_mutations = self.registry.counter("serving.engine.mutations")
        self._m_deltas = self.registry.counter("serving.engine.deltas")
        self._m_delta_fallbacks = self.registry.counter(
            "serving.engine.delta.fallbacks"
        )

    def add_routes(self) -> None:
        super().add_routes()
        self.route("POST", "/mutate", self._route_mutate)
        self.route("GET", "/representative/delta", self._route_delta)

    def health_info(self) -> dict:
        info = super().health_info()
        info["live"] = True
        info["version"] = self.server.version
        return info

    def _representative(self) -> Tuple[int, DatabaseRepresentative]:
        """The server's maintained canonical snapshot — never rebuilt here."""
        with self._rep_lock:
            snapshot = self.server.snapshot()
            if self._last_snapshot_version != snapshot.version:
                self._last_snapshot_version = snapshot.version
                self._m_snapshots.inc()
            return snapshot.version, snapshot.representative

    # -- live-fleet routes ---------------------------------------------------

    @staticmethod
    def _parse_document(raw) -> Document:
        if not isinstance(raw, dict):
            raise HTTPError(400, "each added document must be an object")
        doc_id = raw.get("doc_id")
        terms = raw.get("terms")
        if not isinstance(doc_id, str) or not doc_id:
            raise HTTPError(400, "added document missing a 'doc_id' string")
        if not isinstance(terms, list) or not all(
            isinstance(t, str) for t in terms
        ):
            raise HTTPError(
                400, f"document {doc_id!r} needs 'terms': a list of strings"
            )
        text = raw.get("text")
        if text is not None and not isinstance(text, str):
            raise HTTPError(400, f"document {doc_id!r} has a non-string text")
        try:
            return Document(doc_id=doc_id, terms=list(terms), text=text)
        except ValueError as exc:
            raise HTTPError(400, f"bad document {doc_id!r}: {exc}") from exc

    def _route_mutate(self, params, payload) -> Response:
        raw_remove = payload.get("remove", [])
        raw_add = payload.get("add", [])
        if not isinstance(raw_remove, list) or not all(
            isinstance(d, str) for d in raw_remove
        ):
            raise HTTPError(400, "'remove' must be a list of doc id strings")
        if not isinstance(raw_add, list):
            raise HTTPError(400, "'add' must be a list of documents")
        documents = [self._parse_document(raw) for raw in raw_add]
        with self._rep_lock:
            # Validate both halves before touching the corpus: each is its
            # own versioned mutation, and a 400 must mean neither applied.
            surviving = set(self.server.doc_ids)
            for doc_id in raw_remove:
                if doc_id not in surviving:  # absent, or listed twice
                    raise HTTPError(400, f"bad mutation: unknown doc_id {doc_id!r}")
                surviving.remove(doc_id)
            for document in documents:
                if document.doc_id in surviving:  # kept, or added twice
                    raise HTTPError(
                        400, f"bad mutation: duplicate doc_id {document.doc_id!r}"
                    )
                surviving.add(document.doc_id)
            if raw_remove:
                self.server.remove_documents(raw_remove)
                self._m_mutations.inc()
            if documents:
                self.server.add_documents(documents)
                self._m_mutations.inc()
            # The dict representative moved; drop the stale columnar blob.
            self._npz_cache = None
        return Response(
            payload={
                "kind": "engine.mutated",
                "engine": self.server.name,
                "version": self.server.version,
                "documents": self.server.n_documents,
                "removed": len(raw_remove),
                "added": len(documents),
            }
        )

    def _route_delta(self, params, payload) -> Response:
        raw_since = params.get("since")
        since: Optional[int] = None
        if raw_since is not None:
            try:
                since = int(raw_since)
            except ValueError as exc:
                raise HTTPError(400, f"bad since parameter: {exc}") from exc
            if since < 0:
                raise HTTPError(400, f"since={since} must be >= 0")
        with self._rep_lock:
            result = self.server.sync_representative(since=since)
        if hasattr(result, "to_json_dict"):  # a RepresentativeDelta
            self._m_deltas.inc()
            return Response(payload=result.to_json_dict())
        # No ``since``, compacted past it, or ``since`` ahead of the server
        # (this engine restarted and its counter began again): full snapshot.
        if since is not None:
            self._m_delta_fallbacks.inc()
        return Response(payload=snapshot_to_wire(result))
