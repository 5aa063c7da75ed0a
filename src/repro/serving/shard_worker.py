"""One shard of a partitioned fleet, behind HTTP.

A shard worker owns a *slice* of the fleet: a
:class:`~repro.metasearch.broker.MetasearchBroker` whose
:class:`~repro.representatives.columnar.FleetRepresentativeStore` holds
the representatives of the engines assigned to this shard (typically
loaded from an ``.npz`` bundle written by
:meth:`~repro.representatives.columnar.FleetRepresentativeStore.save_npz`).
The scatter-gather coordinator (:mod:`repro.serving.coordinator`) fans
each request out to the shards that can answer it and merges the
answers, so a shard never sees the rest of the fleet — and never needs
to: per-engine usefulness estimates depend only on that engine's
representative and the query, so a slice estimates bit-identically to
the full fleet.

:class:`ShardApp` exposes the shard broker's own two pipeline steps (the
shard protocol *is* :class:`~repro.metasearch.broker.SearchPipeline`'s
backend protocol, one process removed) plus the summary and the deltas
that keep the slice current:

* ``POST /estimate`` — the *rows* step: a batch of queries with per-query
  thresholds; returns one estimate row per query covering this shard's
  engines (``broker.estimate_batch``).
* ``POST /dispatch`` — the *reports* step: a batch of ``{query, threshold,
  engines}`` entries; ``broker.reports`` forwards each query to the named
  engines (which must live on this shard) and the answer carries
  per-engine hits, failure records, and latencies.  Selection is *not*
  applied here — the coordinator selects centrally on the merged estimate
  rows, so any policy behaves exactly as it would in one process.
* ``GET /headroom`` — the shard's headroom summary (kind
  ``shard.headroom``): ``headroom`` maps each term to the largest
  per-unit-weight bound on a factor exponent over this shard's engines
  (:func:`~repro.core.vectorized.fleet_headroom`; ``null`` for a bound
  that is not finite, and ``null`` in place of the map when the estimator
  has no whole-row bound), and ``term_local`` says whether a delta moves
  only its own terms' values (``false``: every value may move).  The
  coordinator skips a shard whose summary proves every estimate zero.
* ``POST /delta`` — one :class:`~repro.fleet.delta.RepresentativeDelta`
  document (the canonical wire form) for an engine on this shard;
  applied through the broker's
  :meth:`~repro.metasearch.broker.MetasearchBroker.
  apply_representative_delta`, so the columnar slice mutates in place
  and only the affected cache entries are evicted.  A delta whose base
  version does not match the shard's resident representative is a 409;
  the caller re-ships the engine's full delta (from version 0), which
  replaces the representative whatever the shard held.  A malformed
  delta — a full one not starting from 0 documents included — is a 400.
  The reply's ``headroom`` holds the new summary values the delta can
  have moved, computed under the apply: its own terms, or the whole
  summary when ``term_local`` is false.

The coordinator treats a dead shard as a set of per-engine failures,
so the shard's own error story stays simple: malformed requests are
400s, unknown engines are 400s, and anything else is the substrate's
generic 500.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional

from repro.core.vectorized import fleet_headroom
from repro.fleet.delta import RepresentativeDelta
from repro.metasearch.broker import MetasearchBroker
from repro.obs.registry import OCCUPANCY_BUCKETS
from repro.serving.http import HTTPError, Response, ServingApp
from repro.serving.wire import (
    encode_hits,
    estimate_row_to_wire,
    failure_to_wire,
    query_from_wire,
    threshold_from_wire,
    thresholds_from_wire,
)

__all__ = ["ShardApp"]


def _headroom_to_wire(summary: Optional[Dict[str, float]]) -> Optional[dict]:
    """A headroom summary as JSON: a value that is not finite is ``null``
    (the coordinator reads it as ``+inf``, never skip)."""
    if summary is None:
        return None
    return {
        term: value if math.isfinite(value) else None
        for term, value in summary.items()
    }


class ShardApp(ServingApp):
    """Serve one fleet shard: batch estimation, targeted dispatch, deltas.

    Args:
        broker: The shard's broker, holding this shard's engines.
        shard_index: This shard's position in the coordinator's shard
            list; echoed in ``/healthz`` and every reply so a
            misconfigured topology is visible.
        max_batch: Queries accepted per ``/estimate`` request and entries
            per ``/dispatch`` request.
    """

    role = "shard"

    def __init__(
        self,
        broker: MetasearchBroker,
        *,
        shard_index: int = 0,
        max_batch: int = 256,
        **kwargs,
    ):
        if shard_index < 0:
            raise ValueError(f"shard_index must be >= 0, got {shard_index!r}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        self.broker = broker
        self.shard_index = shard_index
        self.max_batch = max_batch
        # A delta and the headroom values it reports are one step.
        self._delta_lock = threading.Lock()
        super().__init__(**kwargs)
        self._m_estimates = self.registry.counter("serving.shard.estimates")
        self._m_dispatches = self.registry.counter("serving.shard.dispatches")
        self._m_deltas = self.registry.counter("serving.shard.deltas")
        # Occupancy of each /estimate RPC: front-door coalescing shows up
        # here as batches > 1 where per-request scatter would show all 1s.
        self._m_batch_occupancy = self.registry.histogram(
            "serving.shard.batch.occupancy", buckets=OCCUPANCY_BUCKETS
        )

    def add_routes(self) -> None:
        self.route("POST", "/estimate", self._route_estimate)
        self.route("POST", "/dispatch", self._route_dispatch)
        self.route("GET", "/headroom", self._route_headroom)
        self.route("POST", "/delta", self._route_delta)

    def health_info(self) -> dict:
        return {
            "shard": self.shard_index,
            "engines": self.broker.engine_names,
        }

    # -- request parsing -----------------------------------------------------

    def _parse_batch(self, payload: dict, name: str) -> list:
        raw = payload.get(name)
        if not isinstance(raw, list):
            raise HTTPError(400, f"{name!r} must be a list")
        if len(raw) > self.max_batch:
            raise HTTPError(
                413,
                f"{len(raw)} {name} exceed the shard batch limit of "
                f"{self.max_batch}",
            )
        return raw

    # -- routes --------------------------------------------------------------

    def _route_estimate(self, params, payload) -> Response:
        raw_queries = self._parse_batch(payload, "queries")
        queries = [query_from_wire(raw) for raw in raw_queries]
        thresholds = thresholds_from_wire(payload)
        try:
            rows = self.broker.estimate_batch(queries, thresholds)
        except ValueError as exc:  # thresholds/queries length mismatch
            raise HTTPError(400, str(exc)) from exc
        self._m_estimates.inc(len(queries))
        self._m_batch_occupancy.observe(len(queries))
        return Response(
            payload={
                "kind": "shard.estimates",
                "shard": self.shard_index,
                "rows": [estimate_row_to_wire(row) for row in rows],
            }
        )

    def _route_dispatch(self, params, payload) -> Response:
        entries = self._parse_batch(payload, "entries")
        owned = set(self.broker.engine_names)
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
                if name not in owned:
                    raise HTTPError(
                        400,
                        f"engine {name!r} is not on shard {self.shard_index}",
                    )
        reports = self.broker.reports(queries, thresholds, engine_lists)
        self._m_dispatches.inc(len(entries))
        return Response(
            payload={
                "kind": "shard.dispatches",
                "shard": self.shard_index,
                "reports": [
                    {
                        "results": {
                            name: encode_hits(hits)
                            for name, hits in report.results.items()
                        },
                        "failures": [
                            failure_to_wire(f) for f in report.failures
                        ],
                        "latencies": {
                            name: float(v)
                            for name, v in report.latencies.items()
                        },
                    }
                    for report in reports
                ],
            }
        )

    def _headroom(self, terms=None) -> Optional[dict]:
        return _headroom_to_wire(
            fleet_headroom(self.broker.estimator, self.broker.fleet, terms)
        )

    def _route_headroom(self, params, payload) -> Response:
        with self._delta_lock:
            summary = self._headroom()
        return Response(
            payload={
                "kind": "shard.headroom",
                "shard": self.shard_index,
                "term_local": self.broker.estimator.term_local,
                "headroom": summary,
            }
        )

    def _route_delta(self, params, payload) -> Response:
        try:
            delta = RepresentativeDelta.from_json_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise HTTPError(400, f"bad delta: {exc}") from exc
        try:
            with self._delta_lock:
                report = self.broker.apply_representative_delta(delta)
                headroom = self._headroom(
                    delta.terms if self.broker.estimator.term_local else None
                )
        except KeyError:
            raise HTTPError(
                400,
                f"engine {delta.name!r} is not on shard {self.shard_index}",
            ) from None
        except ValueError as exc:
            # Base version / document count mismatch: the caller's view of
            # this shard is stale — re-ship the full delta instead.
            raise HTTPError(409, f"delta conflict: {exc}") from exc
        self._m_deltas.inc()
        return Response(
            payload={
                "kind": "shard.delta",
                "shard": self.shard_index,
                "engine": report.name,
                "to_version": report.to_version,
                "mode": report.mode,
                "cache_evicted": report.cache_evicted,
                "cache_retained": report.cache_retained,
                "polycache_evicted": report.polycache_evicted,
                "polycache_retained": report.polycache_retained,
                "headroom": headroom,
            }
        )
