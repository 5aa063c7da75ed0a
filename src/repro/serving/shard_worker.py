"""One shard of a partitioned fleet, behind HTTP.

A shard worker owns a *slice* of the fleet: a
:class:`~repro.metasearch.broker.MetasearchBroker` holding the engines
assigned to this shard and their representatives (typically loaded from
collections, or from an ``.npz`` bundle written by
:meth:`~repro.representatives.columnar.FleetRepresentativeStore.save_npz`).
The coordinator (:mod:`repro.serving.coordinator`) is the paper's broker:
it holds a copy of every representative, estimates and selects locally,
and asks a shard only for what needs the documents.  So a shard serves:

* ``GET /representative?engine=<name>`` — that engine's *full* delta (the
  delta from version 0), the same ``representative.delta`` document an
  engine server answers, built from this shard's store; its
  ``to_version`` is the version the shard records for the engine, ``0``
  when it records none.  The coordinator reads it at attach.  An engine
  that is not on this shard is a 400.
* ``POST /dispatch`` — the pipeline's *reports* step: a batch of
  ``{query, threshold, engines}`` entries; ``broker.reports`` forwards
  each query to the named engines (which must live on this shard) and the
  answer carries per-engine hits, failure records, and latencies.
  Selection is *not* applied here — the coordinator has already selected.
* ``POST /delta`` — one :class:`~repro.fleet.delta.RepresentativeDelta`
  document (the canonical wire form) for an engine on this shard;
  applied through the broker's
  :meth:`~repro.metasearch.broker.MetasearchBroker.
  apply_representative_delta`, so the shard stays the source the next
  attach reads.  A delta whose base version does not match the shard's
  resident representative is a 409; the caller re-ships the engine's
  full delta (from version 0), which replaces the representative
  whatever the shard held.  A malformed delta — a full one not starting
  from 0 documents included — is a 400.
* ``POST /estimate`` — the shard broker's *rows* step over its own
  engines; only the benchmark's shard probes call it.

The coordinator treats a dead shard as a set of per-engine failures,
so the shard's own error story stays simple: malformed requests are
400s, unknown engines are 400s, and anything else is the substrate's
generic 500.
"""

from __future__ import annotations

from repro.fleet.delta import RepresentativeDelta, diff_representatives
from repro.metasearch.broker import MetasearchBroker
from repro.obs.registry import OCCUPANCY_BUCKETS
from repro.representatives.representative import DatabaseRepresentative
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


class ShardApp(ServingApp):
    """Serve one fleet shard: representatives, targeted dispatch, deltas.

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
        super().__init__(**kwargs)
        self._m_estimates = self.registry.counter("serving.shard.estimates")
        self._m_dispatches = self.registry.counter("serving.shard.dispatches")
        self._m_deltas = self.registry.counter("serving.shard.deltas")
        # Queries per /estimate RPC.
        self._m_batch_occupancy = self.registry.histogram(
            "serving.shard.batch.occupancy", buckets=OCCUPANCY_BUCKETS
        )

    def add_routes(self) -> None:
        # Kept only for bench/'s shard_rpcs and shard_handle_estimate probes.
        self.route("POST", "/estimate", self._route_estimate)
        self.route("GET", "/representative", self._route_representative)
        self.route("POST", "/dispatch", self._route_dispatch)
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

    def _route_representative(self, params, payload) -> Response:
        name = params.get("engine", "")
        try:
            representative, version = self.broker.versioned_representative(
                name
            )
        except KeyError:
            raise HTTPError(
                400, f"engine {name!r} is not on shard {self.shard_index}"
            ) from None
        delta = diff_representatives(
            DatabaseRepresentative(name, 0, {}),
            representative,
            from_version=0,
            to_version=version or 0,
        )
        return Response(payload=delta.to_json_dict())

    def _route_delta(self, params, payload) -> Response:
        try:
            delta = RepresentativeDelta.from_json_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise HTTPError(400, f"bad delta: {exc}") from exc
        try:
            report = self.broker.apply_representative_delta(delta)
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
            }
        )
