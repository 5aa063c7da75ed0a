"""HTTP front for one local :class:`~repro.engine.SearchEngine`.

The paper has each search engine answer two remote calls: serve a query,
and publish the database representative the broker estimates from.
:class:`EngineApp` exposes exactly those, through the two route
functions every engine host (a shard too) answers with:

* ``POST /dispatch`` (:func:`dispatch_route`): ``{query, threshold,
  engines}`` entries → one report per entry, the engine's hits (best
  first) or its failure record.
* ``GET /representative?engine=<name>&since=v``
  (:func:`representative_route`): the
  :class:`~repro.fleet.delta.RepresentativeDelta` from version ``v`` to
  the engine's current version; the *full* delta from version 0 without
  ``since`` or for a ``v`` no delta can be built from.  ``engine`` may be
  left out on an engine server.

plus ``POST /max_similarity``, the oracle call of ``true_selection``.
Every ``/dispatch`` and ``/healthz`` reply reports ``versions``, the
current version of every engine the host serves, and a broker that sees
another version than the one it holds pulls ``/representative``: the
engines own their data, and nothing is pushed to a broker.

A static engine's version is its *document count*: it answers the empty
delta for its own version and the full delta (built lazily, once per
version) for any other.  :class:`LiveEngineApp` serves a mutable
:class:`~repro.fleet.live.LiveEngineServer`, whose version is its
mutation counter, answers ``/representative`` from its
:meth:`~repro.fleet.live.LiveEngineServer.delta_since`, and adds ``POST
/mutate`` — ``{"add": [<documents>], "remove": [<doc ids>]}``, one
versioned mutation per non-empty list, validated whole first (a refused
one applied neither list).
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Container, Dict, List, Optional

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

__all__ = [
    "EngineApp",
    "LiveEngineApp",
    "dispatch_route",
    "representative_route",
]


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
    versions: Callable[[], Dict[str, int]],
) -> Response:
    """``POST /dispatch`` of every engine host: ``{query, threshold,
    engines}`` entries through ``reports(queries, thresholds, engine
    lists)``, which isolates failures per (entry, engine) as a dispatcher
    does; one report per entry, and the host's ``versions()`` of every
    engine it serves.  An engine the host does not ``serve`` is a 400
    naming ``where``, before any engine is called; the request body cap
    bounds a batch."""
    entries = batch_from_wire(payload, "entries", None)
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
            "versions": versions(),
        }
    )


def representative_route(
    params: dict,
    *,
    serves: Container[str],
    where: str,
    delta: Callable[[str, Optional[int]], RepresentativeDelta],
    default: Optional[str] = None,
) -> Response:
    """``GET /representative?engine=<name>&since=v`` of every engine host:
    ``delta(name, since)`` as a ``representative.delta`` document; the
    engine is ``default`` without ``engine``.  An engine the host does not
    ``serve``, or a ``since`` that is not a count, is a 400."""
    name = params.get("engine", default)
    if name is None:
        raise HTTPError(400, "missing engine parameter")
    if name not in serves:
        raise HTTPError(400, f"engine {name!r} is not on {where}")
    raw_since = params.get("since")
    since: Optional[int] = None
    if raw_since is not None:
        try:
            since = int(raw_since)
        except ValueError as exc:
            raise HTTPError(400, f"bad since parameter: {exc}") from exc
        if since < 0:
            raise HTTPError(400, f"since={since} must be >= 0")
    return Response(payload=delta(name, since).to_json_dict())


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
            "versions": self.versions(),
        }

    def versions(self) -> Dict[str, int]:
        """The version report of every ``/dispatch`` and ``/healthz``
        reply: a static engine's version is its document count."""
        return {self.engine.name: self.engine.n_documents}

    # -- routes --------------------------------------------------------------

    def _route_dispatch(self, params, payload) -> Response:
        return dispatch_route(
            payload,
            serves=(self.engine.name,),
            where=f"engine server {self.engine.name!r}",
            reports=self._reports,
            versions=self.versions,
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
        return representative_route(
            params,
            serves=(self.engine.name,),
            where=f"engine server {self.engine.name!r}",
            delta=self._pulled,
            default=self.engine.name,
        )

    def _pulled(self, name: str, since: Optional[int]) -> RepresentativeDelta:
        delta = self._delta(since)
        self._m_deltas.inc()
        if since and delta.is_full:
            # Compacted past ``since``, or ``since`` ahead of the engine
            # (a restart, or another static corpus under the same name).
            self._m_delta_fallbacks.inc()
        return delta


class LiveEngineApp(EngineApp):
    """Serve one mutable :class:`~repro.fleet.live.LiveEngineServer`:
    :class:`EngineApp`'s routes plus ``POST /mutate``, versioned by the
    server's mutation counter (see the module docstring)."""

    role = "engine"

    def __init__(self, server: LiveEngineServer, **kwargs):
        self.server = server
        super().__init__(server, **kwargs)
        self._m_mutations = self.registry.counter("serving.engine.mutations")

    def add_routes(self) -> None:
        super().add_routes()
        self.route("POST", "/mutate", self._route_mutate)

    def health_info(self) -> dict:
        return {**super().health_info(), "live": True}

    def versions(self) -> Dict[str, int]:
        return {self.server.name: self.server.version}

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
