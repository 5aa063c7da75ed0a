"""Scatter-gather over a sharded fleet.

:class:`ShardedFleet` makes N shard workers (:mod:`repro.serving.
shard_worker`) look like one :class:`~repro.metasearch.broker.
MetasearchBroker`: it implements the broker surface the gateway consumes
(``engine_names``, ``estimate_all``, ``estimate_batch``, ``search``,
``search_batch``), so :class:`CoordinatorApp` is the ordinary
:class:`~repro.serving.gateway.GatewayApp` pointed at it — same wire
schema, same admission control, same drain story.

The merge is **bit-exact** by construction, not by luck:

* Per-engine usefulness estimates depend only on that engine's
  representative and the query — never on the rest of the fleet — so a
  shard computes exactly the numbers the in-process broker would.
* An estimate row is engines sorted by ``sort_key = (-nodoc, -avgsim,
  engine)``.  Engine names are unique, so the key is a *total* order and
  sorting the concatenation of per-shard rows yields the identical row
  the in-process broker produces (stability never has to break a tie).
* Selection runs *centrally* on that merged row, so any policy — the
  paper's threshold, top-k, anything rank-dependent — sees exactly the
  input it would see in one process.
* ``merge_hits`` is a global sort under a total key, so merging each
  shard's per-engine hit lists equals merging the same lists locally.

Dispatch is two-phase: scatter the query batch to every shard's
``/estimate``, merge and select, then scatter ``{query, threshold,
engines}`` entries to only the shards owning selected engines.  Both
phases fan out on a :class:`~repro.metasearch.dispatch.
ConcurrentDispatcher`, reusing its deadline/retry/degradation machinery
with shards in the engine seat.  A dead shard degrades, never sinks the
query: the coordinator knows which engines the shard owned (from
``/healthz`` at :meth:`ShardedFleet.attach` time) and records one
:class:`~repro.metasearch.dispatch.EngineFailure` per affected engine,
while the surviving shards' answers merge exactly as the in-process
broker restricted to the surviving engines would.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

from repro.corpus.query import Query
from repro.engine.results import SearchHit
from repro.metasearch.broker import MetasearchResponse, broadcast_thresholds
from repro.metasearch.dispatch import ConcurrentDispatcher, EngineFailure
from repro.metasearch.merge import merge_hits
from repro.metasearch.selection import (
    EstimatedUsefulness,
    SelectionPolicy,
    ThresholdPolicy,
)
from repro.obs.registry import NULL_REGISTRY, OCCUPANCY_BUCKETS
from repro.obs.trace import QueryTrace
from repro.serving.gateway import GatewayApp
from repro.serving.remote_engine import RemoteServingError, _HTTPJsonClient
from repro.serving.wire import (
    WireFormatError,
    decode_hits,
    estimate_from_wire,
    failure_from_wire,
    query_to_wire,
)

__all__ = ["CoordinatorApp", "ShardedFleet"]


class _ShardHandle:
    """One attached shard: its client plus the engine ownership map."""

    __slots__ = ("name", "url", "client", "engines", "index")

    def __init__(self, name: str, url: str, client: _HTTPJsonClient):
        self.name = name
        self.url = url
        self.client = client
        self.engines: List[str] = []
        self.index: int = -1

    def __repr__(self) -> str:
        return f"_ShardHandle({self.name} @ {self.url}, {len(self.engines)} engines)"


class ShardedFleet:
    """A fleet of shard workers behind the broker interface.

    Args:
        shard_urls: One ``http://host:port`` per shard worker.
        policy: Selection policy applied centrally to the merged estimate
            rows; the paper's threshold criterion by default.
        timeout: Scatter deadline in seconds per fan-out (both phases);
            a shard that has not answered by then is treated as dead for
            that request.  ``None`` waits indefinitely.
        retries: Extra attempts per shard call after one raises.
        backoff: Base retry backoff in seconds (jittered and clamped to
            the remaining scatter/ambient deadline by the dispatcher).
        shard_timeout: Per-request socket budget for shard calls.
        registry: Metrics sink; the shared no-op registry by default.
    """

    def __init__(
        self,
        shard_urls: Sequence[str],
        *,
        policy: Optional[SelectionPolicy] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
        shard_timeout: Optional[float] = 30.0,
        registry=None,
    ):
        if not shard_urls:
            raise ValueError("shard_urls must name at least one shard")
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.policy = policy or ThresholdPolicy()
        self._shards = [
            _ShardHandle(
                f"shard{i}", url, _HTTPJsonClient(url, timeout=shard_timeout)
            )
            for i, url in enumerate(shard_urls)
        ]
        # Shards sit in the dispatcher's engine seat: per-shard deadline
        # enforcement, retry with clamped backoff, and degradation-not-
        # failure all come from the same machinery engine calls use.
        self.dispatcher = ConcurrentDispatcher(
            workers=max(2, len(self._shards)),
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            registry=self.registry,
        )
        self._owner: Dict[str, _ShardHandle] = {}
        self._m_searches = self.registry.counter("coordinator.searches")
        self._m_degraded = self.registry.counter("coordinator.searches.degraded")
        self._m_shard_failures = self.registry.counter(
            "coordinator.shard.failures"
        )
        # Scatter accounting: one "fanout" is one scatter-gather round
        # (a batch of queries to all/owning shards); "rpcs" counts the
        # per-shard calls it cost.  With front-door coalescing these are
        # the proof that a whole window costs one RPC per shard —
        # rpcs/fanouts stays at the shard count while queries/fanout
        # grows with window occupancy.
        self._m_fanouts = {
            phase: self.registry.counter(
                "coordinator.scatter.fanouts", labels={"phase": phase}
            )
            for phase in ("estimate", "dispatch")
        }
        self._m_rpcs = {
            phase: self.registry.counter(
                "coordinator.scatter.rpcs", labels={"phase": phase}
            )
            for phase in ("estimate", "dispatch")
        }
        self._m_fanout_queries = self.registry.histogram(
            "coordinator.scatter.batch.queries", buckets=OCCUPANCY_BUCKETS
        )

    # -- attachment ----------------------------------------------------------

    def attach(self, timeout: float = 10.0, interval: float = 0.05) -> "ShardedFleet":
        """Wait for every shard's ``/healthz`` and learn which engines it
        owns — the map that turns a dead shard into per-engine failures.

        Returns ``self`` so construction chains:
        ``ShardedFleet(urls).attach()``.
        """
        deadline = time.monotonic() + timeout
        for shard in self._shards:
            while True:
                try:
                    info = shard.client.request("GET", "/healthz")
                except RemoteServingError as exc:
                    if time.monotonic() >= deadline:
                        raise RemoteServingError(
                            f"shard at {shard.url} not ready within "
                            f"{timeout}s: {exc}"
                        ) from exc
                    time.sleep(interval)
                    continue
                shard.engines = [str(n) for n in info.get("engines", [])]
                shard.index = int(info.get("shard", -1))
                break
        self._owner = {}
        for shard in self._shards:
            for name in shard.engines:
                if name in self._owner:
                    raise ValueError(
                        f"engine {name!r} is owned by both "
                        f"{self._owner[name].url} and {shard.url}"
                    )
                self._owner[name] = shard
        return self

    @property
    def engine_names(self) -> List[str]:
        return sorted(self._owner)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def __len__(self) -> int:
        return len(self._owner)

    def shards_info(self) -> List[dict]:
        return [
            {
                "index": shard.index,
                "url": shard.url,
                "engines": len(shard.engines),
            }
            for shard in self._shards
        ]

    def close(self) -> None:
        for shard in self._shards:
            shard.client.close()

    # -- live-fleet delta propagation ----------------------------------------

    def apply_delta(self, delta) -> dict:
        """Ship one representative delta to the shard owning its engine.

        The delta travels in its canonical wire form to exactly one
        shard's ``POST /delta`` — the fan-out is a *routing* decision,
        not a broadcast, because each engine's representative lives on
        one shard only.  Returns the shard's apply report (mode, cache
        eviction counts, new version).

        Raises:
            KeyError: No attached shard owns ``delta.name``.
            RemoteServingError: The shard rejected the delta (including
                the 409 base-version conflict — callers should fall back
                to re-shipping a snapshot) or answered malformed JSON.
        """
        shard = self._owner.get(delta.name)
        if shard is None:
            raise KeyError(
                f"engine {delta.name!r} is not owned by any attached shard"
            )
        answer = shard.client.request("POST", "/delta", delta.to_json_dict())
        if answer.get("kind") != "shard.delta":
            raise RemoteServingError(
                f"{shard.url} answered kind {answer.get('kind')!r} to /delta"
            )
        return answer

    # -- shard RPC -----------------------------------------------------------

    def _shard_estimates(
        self, shard: _ShardHandle, payload: dict, n_queries: int
    ) -> List[List[EstimatedUsefulness]]:
        answer = shard.client.request("POST", "/estimate", payload)
        try:
            if answer.get("kind") != "shard.estimates":
                raise WireFormatError(
                    f"expected kind 'shard.estimates', got {answer.get('kind')!r}"
                )
            rows = [
                [estimate_from_wire(e) for e in row]
                for row in answer["rows"]
            ]
        except (KeyError, TypeError, WireFormatError) as exc:
            raise RemoteServingError(
                f"{shard.url} returned malformed estimates: {exc}"
            ) from exc
        if len(rows) != n_queries:
            raise RemoteServingError(
                f"{shard.url} answered {len(rows)} estimate rows for "
                f"{n_queries} queries"
            )
        return rows

    def _shard_dispatch(
        self, shard: _ShardHandle, entries: List[dict]
    ) -> List[tuple]:
        answer = shard.client.request(
            "POST", "/dispatch", {"entries": entries}
        )
        try:
            if answer.get("kind") != "shard.dispatches":
                raise WireFormatError(
                    f"expected kind 'shard.dispatches', got {answer.get('kind')!r}"
                )
            reports = []
            for report in answer["reports"]:
                reports.append(
                    (
                        {
                            str(name): list(decode_hits(rows))
                            for name, rows in report["results"].items()
                        },
                        [failure_from_wire(f) for f in report["failures"]],
                        {
                            str(name): float(v)
                            for name, v in report["latencies"].items()
                        },
                    )
                )
        except (KeyError, TypeError, WireFormatError) as exc:
            raise RemoteServingError(
                f"{shard.url} returned malformed dispatch reports: {exc}"
            ) from exc
        if len(reports) != len(entries):
            raise RemoteServingError(
                f"{shard.url} answered {len(reports)} dispatch reports for "
                f"{len(entries)} entries"
            )
        return reports

    def _shard_failures(
        self, shard: _ShardHandle, failure: EngineFailure, engines: List[str]
    ) -> List[EngineFailure]:
        """Translate one shard-level failure into per-engine records — the
        coordinator's callers reason about engines, not topology."""
        self._m_shard_failures.inc()
        return [
            EngineFailure(
                engine=name,
                kind=failure.kind,
                attempts=failure.attempts,
                elapsed=failure.elapsed,
                message=f"shard {shard.index} at {shard.url}: {failure.message}",
            )
            for name in engines
        ]

    # -- phase 1: scatter estimation -----------------------------------------

    def _scatter_estimates(
        self, queries: List[Query], per_query: List[float]
    ) -> tuple:
        """Fan ``/estimate`` to every shard; returns ``(rows, failures)``.

        Each returned row is the merged, sorted estimate row over every
        *answering* shard's engines; ``failures`` carries one per-engine
        record for each engine whose shard did not answer.
        """
        payload = {
            "queries": [query_to_wire(q) for q in queries],
            "thresholds": per_query,
        }
        calls = {
            shard.name: (
                lambda shard=shard: self._shard_estimates(
                    shard, payload, len(queries)
                )
            )
            for shard in self._shards
        }
        self._m_fanouts["estimate"].inc()
        self._m_rpcs["estimate"].inc(len(calls))
        self._m_fanout_queries.observe(len(queries))
        report = self.dispatcher.dispatch(calls)
        rows: List[List[EstimatedUsefulness]] = [[] for __ in queries]
        for shard in self._shards:
            shard_rows = report.results.get(shard.name)
            if shard_rows is None:
                continue
            for row, shard_row in zip(rows, shard_rows):
                row.extend(shard_row)
        for row in rows:
            # sort_key is a total order (unique engine names), so sorting
            # the concatenation reproduces the in-process row exactly.
            row.sort(key=lambda e: e.sort_key)
        by_name = {shard.name: shard for shard in self._shards}
        failures: List[EngineFailure] = []
        for failure in report.failures:
            shard = by_name[failure.engine]
            failures.extend(self._shard_failures(shard, failure, shard.engines))
        return rows, failures

    def estimate_all(
        self, query: Query, threshold: float
    ) -> List[EstimatedUsefulness]:
        """Usefulness estimate for every engine in the fleet, best first."""
        rows, __ = self._scatter_estimates([query], [float(threshold)])
        return rows[0]

    def estimate_batch(
        self,
        queries: Sequence[Query],
        thresholds: Union[float, Sequence[float]],
    ) -> List[List[EstimatedUsefulness]]:
        queries = list(queries)
        per_query = broadcast_thresholds(queries, thresholds)
        rows, __ = self._scatter_estimates(queries, per_query)
        return rows

    def select(self, query: Query, threshold: float) -> List[str]:
        return self.policy.select(self.estimate_all(query, threshold))

    # -- phase 2: scatter dispatch, gather, merge ----------------------------

    def _scatter_dispatch(
        self,
        queries: List[Query],
        per_query: List[float],
        invoked_lists: List[List[str]],
    ) -> tuple:
        """Fan ``/dispatch`` to the shards owning invoked engines.

        Returns per-query ``(hits, failure_map, latencies)`` triples,
        where ``failure_map`` maps engine name to its failure record.
        """
        entries_by_shard: Dict[str, List[dict]] = {}
        meta_by_shard: Dict[str, List[tuple]] = {}
        for i, (query, threshold, invoked) in enumerate(
            zip(queries, per_query, invoked_lists)
        ):
            by_shard: Dict[str, List[str]] = {}
            for name in invoked:
                by_shard.setdefault(self._owner[name].name, []).append(name)
            wire_query = query_to_wire(query)
            for shard_name, names in by_shard.items():
                entries_by_shard.setdefault(shard_name, []).append(
                    {
                        "query": wire_query,
                        "threshold": float(threshold),
                        "engines": names,
                    }
                )
                meta_by_shard.setdefault(shard_name, []).append((i, names))
        by_name = {shard.name: shard for shard in self._shards}
        calls = {
            shard_name: (
                lambda shard=by_name[shard_name], entries=entries: (
                    self._shard_dispatch(shard, entries)
                )
            )
            for shard_name, entries in entries_by_shard.items()
        }
        if calls:
            self._m_fanouts["dispatch"].inc()
            self._m_rpcs["dispatch"].inc(len(calls))
        report = self.dispatcher.dispatch(calls)
        results: List[Dict[str, List[SearchHit]]] = [{} for __ in queries]
        failure_maps: List[Dict[str, EngineFailure]] = [{} for __ in queries]
        latencies: List[Dict[str, float]] = [{} for __ in queries]
        shard_failures = {f.engine: f for f in report.failures}
        for shard_name, meta in meta_by_shard.items():
            shard = by_name[shard_name]
            shard_reports = report.results.get(shard_name)
            if shard_reports is None:
                failure = shard_failures[shard_name]
                elapsed = report.latencies.get(shard_name, failure.elapsed)
                for i, names in meta:
                    for record in self._shard_failures(shard, failure, names):
                        failure_maps[i][record.engine] = record
                        latencies[i][record.engine] = elapsed
                continue
            for (i, names), (hits_by_engine, entry_failures, entry_latencies) in zip(
                meta, shard_reports
            ):
                results[i].update(hits_by_engine)
                for record in entry_failures:
                    failure_maps[i][record.engine] = record
                latencies[i].update(entry_latencies)
        return results, failure_maps, latencies

    def _assemble(
        self,
        invoked: List[str],
        estimates: List[EstimatedUsefulness],
        est_failures: List[EngineFailure],
        results: Dict[str, List[SearchHit]],
        failure_map: Dict[str, EngineFailure],
        engine_latencies: Dict[str, float],
        limit: Optional[int],
        trace: QueryTrace,
    ) -> MetasearchResponse:
        for name in invoked:
            trace.add(
                f"dispatch:{name}",
                engine_latencies.get(name, 0.0),
                ok=name not in failure_map,
            )
        with trace.span("merge") as span:
            hits = merge_hits(
                [results[name] for name in invoked if name in results],
                limit=limit,
            )
            span.metadata["hits"] = len(hits)
        failures = list(est_failures)
        failures.extend(
            failure_map[name] for name in invoked if name in failure_map
        )
        response = MetasearchResponse(
            hits=hits,
            invoked=invoked,
            estimates=estimates,
            failures=failures,
            latencies={
                name: engine_latencies[name]
                for name in invoked
                if name in engine_latencies
            },
            trace=trace,
        )
        self._m_searches.inc()
        if response.degraded:
            self._m_degraded.inc()
        return response

    def search(
        self,
        query: Query,
        threshold: float,
        limit: Optional[int] = None,
    ) -> MetasearchResponse:
        """Estimate, select, dispatch, merge — across the shard fleet."""
        responses = self.search_batch([query], float(threshold), limit=limit)
        return responses[0]

    def search_batch(
        self,
        queries: Sequence[Query],
        thresholds: Union[float, Sequence[float]],
        limit: Optional[int] = None,
    ) -> List[MetasearchResponse]:
        """The full pipeline for a batch: one estimate scatter, one
        dispatch scatter, per-query responses equal to the in-process
        broker's (restricted to the engines of answering shards)."""
        queries = list(queries)
        per_query = broadcast_thresholds(queries, thresholds)
        traces = [QueryTrace() for __ in queries]

        est_start = time.perf_counter()
        rows, est_failures = self._scatter_estimates(queries, per_query)
        est_elapsed = time.perf_counter() - est_start
        shared = est_elapsed / len(queries) if queries else 0.0
        for trace in traces:
            trace.add("estimate", shared, engines=len(self._owner))

        invoked_lists: List[List[str]] = []
        for estimates, trace in zip(rows, traces):
            with trace.span("select") as span:
                invoked = self.policy.select(estimates)
                span.metadata["selected"] = len(invoked)
            invoked_lists.append(invoked)

        results, failure_maps, latencies = self._scatter_dispatch(
            queries, per_query, invoked_lists
        )
        return [
            self._assemble(
                invoked,
                estimates,
                est_failures,
                results[i],
                failure_maps[i],
                latencies[i],
                limit,
                trace,
            )
            for i, (invoked, estimates, trace) in enumerate(
                zip(invoked_lists, rows, traces)
            )
        ]

    def __repr__(self) -> str:
        return (
            f"ShardedFleet({len(self._shards)} shards, "
            f"{len(self._owner)} engines)"
        )


class CoordinatorApp(GatewayApp):
    """The gateway app served over a :class:`ShardedFleet` backend.

    Same routes, admission control, and wire schema as
    :class:`~repro.serving.gateway.GatewayApp` — clients cannot tell a
    coordinator from a single-broker gateway except by ``/healthz``,
    which adds the shard topology.
    """

    role = "coordinator"

    def __init__(self, fleet: ShardedFleet, **kwargs):
        super().__init__(fleet, **kwargs)

    @property
    def fleet(self) -> ShardedFleet:
        return self.broker

    def health_info(self) -> dict:
        info = super().health_info()
        info["shards"] = self.fleet.shards_info()
        return info
