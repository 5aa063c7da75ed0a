"""One shard of a partitioned fleet, behind HTTP.

A shard worker owns a *slice* of the fleet: a
:class:`~repro.metasearch.broker.MetasearchBroker` over this shard's
engines (built from collections, or from an ``.npz`` bundle written by
:meth:`~repro.representatives.columnar.FleetRepresentativeStore.save_npz`).
The coordinator (:mod:`repro.serving.coordinator`) holds a copy of every
representative and estimates and selects locally, so a shard is an
engine host like an engine server, answering the same two routes
(:mod:`repro.serving.engine_server`):

* ``GET /representative?engine=<name>&since=v`` — the empty delta when
  ``v`` is the version the shard records for the engine, else its *full*
  delta at that version (``0`` when it records none).
* ``POST /dispatch`` — the shard broker's *reports* step over entries
  naming engines on this shard; its body cap bounds a batch.

Both ``/dispatch`` and ``/healthz`` report ``versions``: the version the
shard's broker records per engine (``0`` for none).  The shard owns its
representatives — a delta is applied by its own broker — and the
coordinator pulls what changed.  ``POST /estimate``, the shard broker's
*rows* step, is kept only for the benchmark's shard probes.  Malformed
requests and unknown engines are 400s.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.fleet.delta import RepresentativeDelta, diff_representatives
from repro.metasearch.broker import MetasearchBroker
from repro.obs.registry import OCCUPANCY_BUCKETS
from repro.representatives.representative import DatabaseRepresentative
from repro.serving.engine_server import (
    batch_from_wire,
    dispatch_route,
    representative_route,
)
from repro.serving.http import HTTPError, Response, ServingApp
from repro.serving.wire import (
    estimate_row_to_wire,
    query_from_wire,
    thresholds_from_wire,
)

__all__ = ["ShardApp"]


class ShardApp(ServingApp):
    """Serve one fleet shard: representatives and targeted dispatch.

    Args:
        broker: The shard's broker, holding this shard's engines.
        shard_index: This shard's position in the coordinator's shard
            list; echoed in ``/healthz`` and the shard's own replies so a
            misconfigured topology is visible.
        max_batch: Queries accepted per ``/estimate`` request (the
            benchmark's probe route); a ``/dispatch`` batch is bounded by
            the request body cap alone, as on every engine host.
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
        super().__init__(**kwargs)
        self._m_estimates = self.registry.counter("serving.shard.estimates")
        self._m_dispatches = self.registry.counter("serving.shard.dispatches")
        # Queries per /estimate RPC.
        self._m_batch_occupancy = self.registry.histogram(
            "serving.shard.batch.occupancy", buckets=OCCUPANCY_BUCKETS
        )

    def add_routes(self) -> None:
        # Kept only for bench/'s shard_rpcs and shard_handle_estimate probes.
        self.route("POST", "/estimate", self._route_estimate)
        self.route("GET", "/representative", self._route_representative)
        self.route("POST", "/dispatch", self._route_dispatch)

    def health_info(self) -> dict:
        return {
            "shard": self.shard_index,
            "engines": self.broker.engine_names,
            "versions": self.versions(),
        }

    def versions(self) -> Dict[str, int]:
        """The version report of every ``/dispatch`` and ``/healthz``
        reply: the version the broker records per engine, ``0`` for
        none."""
        broker = self.broker
        return {
            name: broker.representative_version(name) or 0
            for name in broker.engine_names
        }

    # -- routes --------------------------------------------------------------

    def _route_estimate(self, params, payload) -> Response:
        raw_queries = batch_from_wire(payload, "queries", self.max_batch)
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
        response = dispatch_route(
            payload,
            serves=set(self.broker.engine_names),
            where=f"shard {self.shard_index}",
            reports=self.broker.reports,
            versions=self.versions,
        )
        self._m_dispatches.inc(len(payload["entries"]))
        return response

    def _route_representative(self, params, payload) -> Response:
        return representative_route(
            params,
            serves=set(self.broker.engine_names),
            where=f"shard {self.shard_index}",
            delta=self._delta,
        )

    def _delta(self, name: str, since: Optional[int]) -> RepresentativeDelta:
        """The empty delta when ``since`` is the version the broker
        records for ``name``, else the full delta at that version."""
        representative, version = self.broker.versioned_representative(name)
        version = version or 0
        if since and since == version:
            n = representative.n_documents
            return RepresentativeDelta(name, version, version, n, n, ())
        return diff_representatives(
            DatabaseRepresentative(name, 0, {}),
            representative,
            from_version=0,
            to_version=version,
        )
