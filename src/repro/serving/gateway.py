"""The broker gateway: a metasearch broker behind HTTP admission control.

:class:`GatewayApp` puts a :class:`~repro.metasearch.broker.MetasearchBroker`
— whose registered engines may be local objects, :class:`~repro.serving.
remote_engine.RemoteEngine` adapters, or a mix — behind three endpoints:

* ``POST /estimate`` — per-engine usefulness estimates, best first.
* ``POST /search`` — the full pipeline (estimate, select, dispatch,
  merge); the response decodes back into a
  :class:`~repro.metasearch.broker.MetasearchResponse` that compares
  equal to an in-process answer.
* ``POST /batch`` — many queries through the broker's amortized batch
  pipeline in one request.

Every broker-touching request passes the :class:`~repro.serving.admission.
AdmissionQueue` first: ``max_active`` requests execute concurrently,
``max_queued`` more wait (no longer than their remaining deadline), and
the rest are shed instantly with ``503`` + ``Retry-After``.  Draining
closes the queue — new work is refused while admitted and queued requests
run to completion — which combined with
:meth:`~repro.serving.http.ServingServer.drain`'s stop-accept /
wait-idle / final-metrics-flush sequence gives the gateway a complete
graceful-shutdown story under SIGTERM.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.metasearch.broker import SearchPipeline
from repro.metasearch.cache import EstimateCache
from repro.metasearch.deadlines import Deadline, ambient_deadline
from repro.obs.registry import MetricsRegistry
from repro.serving.admission import ADMITTED, CLOSED, EXPIRED, AdmissionQueue
from repro.serving.coalesce import (
    CoalesceClosed,
    CoalesceExpired,
    CoalescingWindow,
)
from repro.serving.http import HTTPError, Response, Route, ServingApp
from repro.serving.wire import (
    estimate_row_to_wire,
    limit_from_wire,
    query_from_wire,
    response_to_wire,
    threshold_from_wire,
    thresholds_from_wire,
)

__all__ = ["GatewayApp"]

#: Largest /batch request accepted (queries per call).
DEFAULT_MAX_BATCH = 256

#: Default coalescing window occupancy cap.
DEFAULT_COALESCE_MAX_BATCH = 64


class GatewayApp(ServingApp):
    """Serve a metasearch broker with bounded admission.

    Args:
        broker: The :class:`~repro.metasearch.broker.SearchPipeline` to
            expose — a broker (register its engines, local or remote,
            before serving) or a sharded fleet.
        max_active: Broker requests allowed to execute concurrently.
        max_queued: Further requests allowed to wait for a slot; beyond
            this the gateway sheds.
        max_queue_wait: Wait cap in seconds for queued requests carrying
            no deadline (deadline-carrying requests wait at most their
            remaining budget).
        retry_after: The ``Retry-After`` hint sent with shed responses.
        max_batch: Queries accepted per ``/batch`` request.
        coalesce_window: Continuous micro-batching window in *seconds*
            (``0``, the default, disables coalescing entirely).  When
            enabled, concurrent ``/estimate`` and ``/search`` requests
            coalesce into single broker batch calls through a
            :class:`~repro.serving.coalesce.CoalescingWindow` per route —
            responses are bit-for-bit the per-request path's, and a lone
            request under zero concurrency takes the idle fast-path
            (never delayed).
        coalesce_max_batch: Occupancy cap per coalesced window.
        registry: Metrics sink shared by the app, the admission queue,
            and (if constructed with it) the broker.
        max_body: Request body cap in bytes.
        default_deadline: Budget applied to requests without an
            ``X-Repro-Deadline`` header.
    """

    role = "gateway"

    def __init__(
        self,
        broker: SearchPipeline,
        *,
        max_active: int = 8,
        max_queued: int = 32,
        max_queue_wait: float = 5.0,
        retry_after: float = 1.0,
        max_batch: int = DEFAULT_MAX_BATCH,
        coalesce_window: float = 0.0,
        coalesce_max_batch: int = DEFAULT_COALESCE_MAX_BATCH,
        registry=None,
        **kwargs,
    ):
        if max_queue_wait < 0:
            raise ValueError(
                f"max_queue_wait must be >= 0, got {max_queue_wait!r}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        if coalesce_window < 0:
            raise ValueError(
                f"coalesce_window must be >= 0, got {coalesce_window!r}"
            )
        registry = registry if registry is not None else MetricsRegistry()
        self.broker = broker
        self.max_queue_wait = max_queue_wait
        self.retry_after = retry_after
        self.max_batch = max_batch
        self.coalesce_window = coalesce_window
        self.coalesce_max_batch = coalesce_max_batch
        self.admission = AdmissionQueue(
            max_active, max_queued, registry=registry
        )
        self._coalesce_estimate: Optional[CoalescingWindow] = None
        self._coalesce_search: Optional[CoalescingWindow] = None
        if coalesce_window > 0:
            # Repeat queries answer straight from the estimate cache
            # without joining a window; a pipeline without a full-row cache
            # (a ShardedFleet) answers None and so always batches.
            self._coalesce_estimate = CoalescingWindow(
                self._execute_estimates,
                max_wait=coalesce_window,
                max_batch=coalesce_max_batch,
                key=lambda item: (EstimateCache.query_key(item[0]), item[1]),
                probe=lambda item: broker.estimate_all_cached(*item),
                registry=registry,
                name="estimate",
            )
            # Searches dispatch to engines (side effects per call), so the
            # search window batches without intra-window dedup; the broker
            # still shares expansions across duplicate queries internally.
            self._coalesce_search = CoalescingWindow(
                self._execute_searches,
                max_wait=coalesce_window,
                max_batch=coalesce_max_batch,
                registry=registry,
                name="search",
            )
        super().__init__(registry=registry, **kwargs)

    def add_routes(self) -> None:
        self.route("POST", "/estimate", self._route_estimate)
        self.route("POST", "/search", self._route_search)
        self.route("POST", "/batch", self._route_batch)

    def health_info(self) -> dict:
        info = {
            "engines": self.broker.engine_names,
            "admission": {
                "active": self.admission.active,
                "queued": self.admission.queued,
            },
        }
        if self._coalesce_estimate is not None:
            info["coalesce"] = {
                "window_seconds": self.coalesce_window,
                "max_batch": self.coalesce_max_batch,
            }
        return info

    # -- admission wrapping --------------------------------------------------

    def _invoke(
        self,
        route: Route,
        params,
        payload,
        deadline: Optional[Deadline],
    ) -> Response:
        if route.drain_ok:  # healthz/metrics bypass admission
            return route.handler(params, payload)
        wait = self.max_queue_wait
        if deadline is not None:
            wait = min(wait, deadline.remaining())
        outcome = self.admission.acquire(timeout=wait)
        if outcome != ADMITTED:
            if outcome == CLOSED:
                raise HTTPError(503, "gateway is draining", close=True)
            if outcome == EXPIRED:
                raise HTTPError(
                    504, "deadline expired while queued for admission"
                )
            raise HTTPError(  # SHED
                503,
                "gateway overloaded; retry later",
                retry_after=self.retry_after,
                close=True,
            )
        try:
            return route.handler(params, payload)
        finally:
            self.admission.release()

    def begin_drain(self) -> None:
        super().begin_drain()
        self.admission.close()
        # Already-queued window members still flush; new arrivals refuse.
        if self._coalesce_estimate is not None:
            self._coalesce_estimate.close()
        if self._coalesce_search is not None:
            self._coalesce_search.close()

    # -- coalescing ----------------------------------------------------------

    def _execute_estimates(self, items):
        """One broker batch call for a flushed estimate window."""
        return self.broker.estimate_batch(
            [query for query, __ in items],
            [threshold for __, threshold in items],
        )

    def _execute_searches(self, items):
        """One broker batch call for a flushed search window.

        Runs un-limited; each member's own ``limit`` is applied at demux
        (``merge_hits`` sorts under a total key before truncating, so
        ``hits[:limit]`` equals a limited merge exactly).
        """
        return self.broker.search_batch(
            [query for query, __ in items],
            [threshold for __, threshold in items],
            limit=None,
        )

    def _coalesced(self, window: CoalescingWindow, item):
        """Submit to a window, mapping its refusals onto HTTP errors."""
        try:
            return window.submit(item, deadline=ambient_deadline())
        except CoalesceExpired as exc:
            raise HTTPError(504, str(exc)) from exc
        except CoalesceClosed as exc:
            raise HTTPError(503, "gateway is draining", close=True) from exc

    # -- routes --------------------------------------------------------------

    def _route_estimate(self, params, payload) -> Response:
        query = query_from_wire(payload.get("query"))
        threshold = threshold_from_wire(payload)
        if self._coalesce_estimate is not None:
            estimates = self._coalesced(
                self._coalesce_estimate, (query, threshold)
            )
        else:
            estimates = self.broker.estimate_all(query, threshold)
        return Response(
            payload={
                "kind": "estimates",
                "estimates": estimate_row_to_wire(estimates),
            }
        )

    def _route_search(self, params, payload) -> Response:
        query = query_from_wire(payload.get("query"))
        threshold = threshold_from_wire(payload)
        limit = limit_from_wire(payload)
        if self._coalesce_search is not None:
            response = self._coalesced(
                self._coalesce_search, (query, threshold)
            )
            if limit is not None and len(response.hits) > limit:
                response = replace(response, hits=response.hits[:limit])
        else:
            response = self.broker.search(query, threshold, limit=limit)
        return Response(payload=response_to_wire(response))

    def _route_batch(self, params, payload) -> Response:
        raw_queries = payload.get("queries")
        if not isinstance(raw_queries, list):
            raise HTTPError(400, "'queries' must be a list")
        if len(raw_queries) > self.max_batch:
            raise HTTPError(
                413,
                f"batch of {len(raw_queries)} queries exceeds limit of "
                f"{self.max_batch}",
            )
        queries = [query_from_wire(raw) for raw in raw_queries]
        thresholds = thresholds_from_wire(payload)
        limit = limit_from_wire(payload)
        try:
            responses = self.broker.search_batch(
                queries, thresholds, limit=limit
            )
        except ValueError as exc:  # e.g. thresholds/queries length mismatch
            raise HTTPError(400, str(exc)) from exc
        return Response(
            payload={
                "kind": "responses",
                "responses": [response_to_wire(r) for r in responses],
            }
        )
