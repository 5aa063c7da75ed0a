"""HTTP front for one local :class:`~repro.engine.SearchEngine`.

The paper's architecture has each search engine answering two remote
calls: serve a query, and publish the database representative the broker
estimates from.  :class:`EngineApp` exposes exactly those over the wire:

* ``POST /dispatch`` — every engine host's route (:func:`dispatch_route`,
  a shard's too): ``{query, threshold, engines}`` entries → one report
  per entry, the engine's hits (best first) or its failure record.
* ``POST /max_similarity`` — the oracle call used by ``true_selection``.
* ``GET /representative?since=v`` — the
  :class:`~repro.fleet.delta.RepresentativeDelta` from version ``v`` to
  the engine's current version, as a ``representative.delta`` JSON
  document.  Without ``since`` (first contact), or for a ``v`` the engine
  cannot build a delta from, the answer is the *full* delta from version
  0, the empty representative.  A static engine's version is its
  *document count*: it answers the empty delta for its own version, so a
  broker can tell its copy is current without re-downloading, and the
  full delta for any other.

The full delta is built lazily and cached per version: building the
representative is the expensive call a deployment batches, and repeated
``GET``\\ s at the same version must not repeat the work.

:class:`LiveEngineApp` wraps a mutable
:class:`~repro.fleet.live.LiveEngineServer` and adds mutation on top of
the same engine surface:

* ``POST /mutate`` — ``{"add": [<documents>], "remove": [<doc ids>]}``
  mutates the corpus; each non-empty list is one versioned mutation
  whose delta lands in the server's replay log.  The request is validated
  whole first: a refused one (400) has applied neither list.
* ``GET /representative?since=v`` answers the server's
  :meth:`~repro.fleet.live.LiveEngineServer.delta_since`: the composed
  delta while ``v`` is in the log, the full delta when ``v`` is absent,
  compacted out of the log or ahead of the server (the engine restarted).

Versions here are *mutation counters*, not document counts — a remove
followed by an add leaves ``n_documents`` unchanged but must still be
visible to a syncing broker.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Container, List, Optional

from repro.corpus.document import Document
from repro.engine.search_engine import SearchEngine
from repro.fleet.delta import RepresentativeDelta, diff_representatives
from repro.fleet.live import LiveEngineServer
from repro.metasearch.dispatch import ConcurrentDispatcher, DispatchReport
from repro.representatives.builder import build_representative
from repro.representatives.representative import DatabaseRepresentative
from repro.serving.http import HTTPError, Response, ServingApp
from repro.serving.wire import (
    encode_hits,
    failure_to_wire,
    query_from_wire,
    threshold_from_wire,
)

__all__ = ["EngineApp", "LiveEngineApp", "dispatch_route"]


def batch_from_wire(payload: dict, name: str, limit: Optional[int]) -> list:
    """``payload[name]``, which must be a list (else 400) of at most
    ``limit`` items, if given (else 413)."""
    raw = payload.get(name)
    if not isinstance(raw, list):
        raise HTTPError(400, f"{name!r} must be a list")
    if limit is not None and len(raw) > limit:
        raise HTTPError(
            413, f"{len(raw)} {name} exceed the batch limit of {limit}"
        )
    return raw


def dispatch_route(
    payload: dict,
    *,
    serves: Container[str],
    where: str,
    reports: Callable[..., List[DispatchReport]],
    limit: Optional[int] = None,
) -> Response:
    """``POST /dispatch`` of every engine host: ``{query, threshold,
    engines}`` entries through ``reports(queries, thresholds, engine
    lists)``, which isolates failures per (entry, engine) as a dispatcher
    does; one report per entry.  An engine the host does not ``serve`` is
    a 400 naming ``where``, before any engine is called; more entries
    than a given ``limit``, a 413 (else the body cap bounds a batch)."""
    entries = batch_from_wire(payload, "entries", limit)
    queries, thresholds, engine_lists = [], [], []
    for entry in entries:
        if not isinstance(entry, dict):
            raise HTTPError(400, "each dispatch entry must be an object")
        queries.append(query_from_wire(entry.get("query")))
        thresholds.append(threshold_from_wire(entry))
        names = entry.get("engines")
        if not isinstance(names, list):
            raise HTTPError(400, "'engines' must be a list of names")
        engine_lists.append([str(name) for name in names])
        for name in engine_lists[-1]:
            if name not in serves:
                raise HTTPError(400, f"engine {name!r} is not on {where}")
    return Response(
        payload={
            "kind": "dispatches",
            "reports": [
                {
                    "results": {
                        name: encode_hits(hits)
                        for name, hits in report.results.items()
                    },
                    "failures": [failure_to_wire(f) for f in report.failures],
                    "latencies": {
                        name: float(v) for name, v in report.latencies.items()
                    },
                }
                for report in reports(queries, thresholds, engine_lists)
            ],
        }
    )


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
        self._full: Optional[RepresentativeDelta] = None
        super().__init__(**kwargs)
        self._dispatcher = ConcurrentDispatcher(registry=self.registry)
        self._m_searches = self.registry.counter("serving.engine.searches")
        self._m_deltas = self.registry.counter("serving.engine.deltas")
        self._m_delta_fallbacks = self.registry.counter(
            "serving.engine.delta.fallbacks"
        )

    def add_routes(self) -> None:
        self.route("POST", "/dispatch", self._route_dispatch)
        self.route("POST", "/max_similarity", self._route_max_similarity)
        self.route("GET", "/representative", self._route_representative)

    def health_info(self) -> dict:
        return {
            "engine": self.engine.name,
            "documents": self.engine.n_documents,
        }

    # -- routes --------------------------------------------------------------

    def _route_dispatch(self, params, payload) -> Response:
        return dispatch_route(
            payload,
            serves=(self.engine.name,),
            where=f"engine server {self.engine.name!r}",
            reports=self._reports,
        )

    def _reports(self, queries, thresholds, engine_lists) -> List[DispatchReport]:
        reports = self._dispatcher.dispatch_many([
            {
                name: functools.partial(self.engine.search, query, threshold)
                for name in names
            }
            for query, threshold, names in zip(queries, thresholds, engine_lists)
        ])
        self._m_searches.inc(sum(map(len, engine_lists)))
        return reports

    def _route_max_similarity(self, params, payload) -> Response:
        query = query_from_wire(payload.get("query"))
        return Response(
            payload={
                "kind": "max_similarity",
                "engine": self.engine.name,
                "value": float(self.engine.max_similarity(query)),
            }
        )

    def _delta(self, since: Optional[int]) -> RepresentativeDelta:
        """The empty delta when ``since`` is the engine's version (its
        document count), else the full delta, built once per version."""
        version = self.engine.n_documents
        if since == version:
            return RepresentativeDelta(
                self.engine.name, version, version, version, version, ()
            )
        with self._rep_lock:
            if self._full is None or self._full.to_version != version:
                self._full = diff_representatives(
                    DatabaseRepresentative(self.engine.name, 0, {}),
                    build_representative(self.engine),
                    from_version=0,
                    to_version=version,
                )
            return self._full

    def _route_representative(self, params, payload) -> Response:
        raw_since = params.get("since")
        since: Optional[int] = None
        if raw_since is not None:
            try:
                since = int(raw_since)
            except ValueError as exc:
                raise HTTPError(400, f"bad since parameter: {exc}") from exc
            if since < 0:
                raise HTTPError(400, f"since={since} must be >= 0")
        delta = self._delta(since)
        self._m_deltas.inc()
        if since and delta.is_full:
            # Compacted past ``since``, or ``since`` ahead of the engine
            # (a restart, or another static corpus under the same name).
            self._m_delta_fallbacks.inc()
        return Response(payload=delta.to_json_dict())


class LiveEngineApp(EngineApp):
    """Serve one mutable :class:`~repro.fleet.live.LiveEngineServer`.

    All of :class:`EngineApp`'s routes work unchanged (the live server is
    duck-compatible with a search engine), plus ``POST /mutate``.
    ``/representative`` versions are the server's mutation counter rather
    than the document count, and its answer is the server's own
    :meth:`~repro.fleet.live.LiveEngineServer.delta_since` — no rebuild
    per ``GET``.
    """

    role = "engine"

    def __init__(self, server: LiveEngineServer, **kwargs):
        self.server = server
        super().__init__(server, **kwargs)
        self._m_mutations = self.registry.counter("serving.engine.mutations")

    def add_routes(self) -> None:
        super().add_routes()
        self.route("POST", "/mutate", self._route_mutate)

    def health_info(self) -> dict:
        info = super().health_info()
        info["live"] = True
        info["version"] = self.server.version
        return info

    def _delta(self, since: Optional[int]) -> RepresentativeDelta:
        with self._rep_lock:  # not between the two halves of a /mutate
            return self.server.delta_since(since)

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
