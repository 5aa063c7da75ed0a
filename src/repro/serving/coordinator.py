"""Scatter-gather over a sharded fleet.

:class:`ShardedFleet` is a :class:`~repro.metasearch.broker.SearchPipeline`
backend, not a second pipeline: it supplies the two steps — estimate rows,
dispatch reports — as scatters over N shard workers (:mod:`repro.serving.
shard_worker`) and inherits everything else (the estimate/search surface,
selection, traces, merge, response assembly) from the class the in-process
broker uses.  So :class:`CoordinatorApp` is the ordinary
:class:`~repro.serving.gateway.GatewayApp` pointed at it — same wire
schema, same admission control, same drain story.

The merge is **bit-exact** by construction, not by luck:

* Per-engine usefulness estimates depend only on that engine's
  representative and the query — never on the rest of the fleet — so a
  shard computes exactly the numbers the in-process broker would.
* An estimate row is engines ranked by ``sort_key = (-nodoc, -avgsim,
  engine)``: one ``np.lexsort`` over the row's arrays, names entering as
  their rank under Python ``sorted``.  Engine names are unique, so the key
  is a *total* order, and ranking the concatenation of the answering
  shards' names and ``nodoc`` / ``avgsim`` arrays yields the identical
  :class:`~repro.metasearch.selection.EstimateRow` the in-process broker
  produces (stability never has to break a tie).
* Selection runs *centrally*, in the pipeline, on that merged row, so any
  policy — the paper's threshold, top-k, anything rank-dependent — sees
  exactly the input it would see in one process.
* ``merge_hits`` is a global sort under a total key, so merging each
  shard's per-engine hit lists equals merging the same lists locally.

The two steps: ``rows`` scatters the query batch to every shard's
``/estimate`` and merges the rows; after the pipeline has selected,
``reports`` scatters ``{query, threshold, engines}`` entries to only the
shards owning selected engines.  Both fan out on a
:class:`~repro.metasearch.dispatch.ConcurrentDispatcher`, reusing its
deadline/retry/degradation machinery with shards in the engine seat.  A
dead shard degrades, never sinks the query: the coordinator knows which
engines the shard owned (from
``/healthz`` at :meth:`ShardedFleet.attach` time) and records one
:class:`~repro.metasearch.dispatch.EngineFailure` per affected engine,
while the surviving shards' answers merge exactly as the in-process
broker restricted to the surviving engines would.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.corpus.query import Query
from repro.metasearch.broker import SearchPipeline
from repro.metasearch.dispatch import (
    ConcurrentDispatcher,
    DispatchReport,
    EngineFailure,
)

# Not called here any more (the merge runs in SearchPipeline._respond); the
# name stays importable because bench/adapter.py::Fixture.trace_replica
# wraps repro.serving.coordinator.merge_hits by module attribute and
# bench/test_smoke.py asserts probe.errors == 0 (ROADMAP, item 1(a)).
from repro.metasearch.merge import merge_hits  # noqa: F401
from repro.metasearch.selection import EstimateRow, SelectionPolicy
from repro.obs.registry import OCCUPANCY_BUCKETS
from repro.serving.gateway import GatewayApp
from repro.serving.remote_engine import RemoteServingError, _HTTPJsonClient
from repro.serving.wire import (
    WireFormatError,
    _expect_kind,
    decode_hits,
    estimate_row_from_wire,
    failure_from_wire,
    query_to_wire,
)

__all__ = ["CoordinatorApp", "ShardedFleet"]


def _concatenated(parts: Sequence[EstimateRow]) -> EstimateRow:
    """One ranked row over every part's engines."""
    return EstimateRow.ranked(
        [name for part in parts for name in part.names],
        np.concatenate([part.nodoc for part in parts] or [np.empty(0)]),
        np.concatenate([part.avgsim for part in parts] or [np.empty(0)]),
    )


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


def _in_order(mapping: dict, names: List[str]) -> dict:
    """``mapping`` restricted to ``names``, in their order."""
    return {name: mapping[name] for name in names if name in mapping}


class ShardedFleet(SearchPipeline):
    """A fleet of shard workers as a :class:`~repro.metasearch.broker.
    SearchPipeline` backend: its two steps are the two scatters.

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

    series_prefix = "coordinator"

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
        super().__init__(policy, registry)
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
                    shard.engines, shard.index = shard.client.request(
                        "GET",
                        "/healthz",
                        decode=lambda info: (
                            [str(n) for n in info.get("engines", [])],
                            int(info.get("shard", -1)),
                        ),
                    )
                except RemoteServingError as exc:
                    if time.monotonic() >= deadline:
                        raise RemoteServingError(
                            f"shard at {shard.url} not ready within "
                            f"{timeout}s: {exc}"
                        ) from exc
                    time.sleep(interval)
                    continue
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
        """Close every pooled shard connection, then retire the scatter
        threads that held them."""
        for shard in self._shards:
            shard.client.close()
        self.dispatcher.close()

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
        return shard.client.request(
            "POST",
            "/delta",
            delta.to_json_dict(),
            decode=lambda answer: _expect_kind(answer, "shard.delta"),
        )

    # -- shard RPC -----------------------------------------------------------

    def _shard_estimates(
        self, shard: _ShardHandle, payload: dict, n_queries: int
    ) -> List[EstimateRow]:
        def decode(answer):
            rows = [
                estimate_row_from_wire(row)
                for row in _expect_kind(answer, "shard.estimates")["rows"]
            ]
            if len(rows) != n_queries:
                raise WireFormatError(
                    f"{len(rows)} estimate rows for {n_queries} queries"
                )
            return rows

        return shard.client.request("POST", "/estimate", payload, decode=decode)

    def _shard_dispatch(
        self, shard: _ShardHandle, entries: List[dict]
    ) -> List[DispatchReport]:
        def decode(answer):
            reports = [
                DispatchReport(
                    results={
                        str(name): list(decode_hits(hits))
                        for name, hits in report["results"].items()
                    },
                    failures=[failure_from_wire(f) for f in report["failures"]],
                    latencies={
                        str(name): float(v)
                        for name, v in report["latencies"].items()
                    },
                )
                for report in _expect_kind(answer, "shard.dispatches")["reports"]
            ]
            if len(reports) != len(entries):
                raise WireFormatError(
                    f"{len(reports)} dispatch reports for {len(entries)} entries"
                )
            return reports

        return shard.client.request(
            "POST", "/dispatch", {"entries": entries}, decode=decode
        )

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

    # -- step 1: scatter estimation ------------------------------------------

    def rows(self, queries: List[Query], thresholds: List[float]) -> tuple:
        """Fan ``/estimate`` to every shard; returns ``(rows, failures)``.

        Each returned row is the merged, sorted estimate row over every
        *answering* shard's engines; ``failures`` carries one per-engine
        record for each engine whose shard did not answer.
        """
        payload = {
            "queries": [query_to_wire(q) for q in queries],
            "thresholds": thresholds,
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
        answered = list(report.results.values())  # answering shards only
        # sort_key is a total order (unique engine names), so ranking the
        # concatenation reproduces the in-process row exactly.
        rows = [
            _concatenated([shard_rows[i] for shard_rows in answered])
            for i in range(len(queries))
        ]
        by_name = {shard.name: shard for shard in self._shards}
        failures: List[EngineFailure] = []
        for failure in report.failures:
            shard = by_name[failure.engine]
            failures.extend(self._shard_failures(shard, failure, shard.engines))
        return rows, failures

    # -- step 2: scatter dispatch, gather ------------------------------------

    def reports(
        self,
        queries: List[Query],
        thresholds: List[float],
        invoked_lists: List[List[str]],
    ) -> List[DispatchReport]:
        """Fan ``/dispatch`` to the shards owning invoked engines; one
        report per query, stitched from its owning shards' reports (or, for
        a shard that did not answer, one failure per engine asked of it)
        and put back in invoked order."""
        asked: Dict[_ShardHandle, List[tuple]] = {}  # -> [(query index, entry)]
        for i, (query, threshold, invoked) in enumerate(
            zip(queries, thresholds, invoked_lists)
        ):
            by_shard: Dict[_ShardHandle, List[str]] = {}
            for name in invoked:
                by_shard.setdefault(self._owner[name], []).append(name)
            wire_query = query_to_wire(query)
            for shard, names in by_shard.items():
                entry = {
                    "query": wire_query,
                    "threshold": float(threshold),
                    "engines": names,
                }
                asked.setdefault(shard, []).append((i, entry))
        calls = {
            shard.name: (
                lambda shard=shard, entries=[entry for __, entry in pairs]: (
                    self._shard_dispatch(shard, entries)
                )
            )
            for shard, pairs in asked.items()
        }
        if calls:
            self._m_fanouts["dispatch"].inc()
            self._m_rpcs["dispatch"].inc(len(calls))
        scatter = self.dispatcher.dispatch(calls)
        shard_failures = {f.engine: f for f in scatter.failures}
        gathered = [DispatchReport() for __ in queries]
        for shard, pairs in asked.items():
            shard_reports = scatter.results.get(shard.name)
            if shard_reports is None:
                failure = shard_failures[shard.name]
                elapsed = scatter.latencies.get(shard.name, failure.elapsed)
                shard_reports = [
                    DispatchReport(
                        failures=self._shard_failures(
                            shard, failure, entry["engines"]
                        ),
                        latencies=dict.fromkeys(entry["engines"], elapsed),
                    )
                    for __, entry in pairs
                ]
            for (i, __), part in zip(pairs, shard_reports):
                gathered[i].results.update(part.results)
                gathered[i].failures.extend(part.failures)
                gathered[i].latencies.update(part.latencies)
        reports = []
        for invoked, part in zip(invoked_lists, gathered):
            failed = {failure.engine: failure for failure in part.failures}
            reports.append(
                DispatchReport(
                    results=_in_order(part.results, invoked),
                    failures=list(_in_order(failed, invoked).values()),
                    latencies=_in_order(part.latencies, invoked),
                )
            )
        return reports

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
