"""The paper's broker over a sharded fleet.

In the paper, the metasearch engine keeps one small representative per
local engine and estimates usefulness from it locally; only the engines
it selects ever see the query.  :class:`ShardedFleet` is that broker with
its engines spread over N shard workers (:mod:`repro.serving.
shard_worker`).  At :meth:`ShardedFleet.attach` it reads every engine's
full delta (``GET /representative?engine=<name>``) from the shard that
owns it into one local :class:`~repro.metasearch.broker.MetasearchBroker`;
from then on the *rows* step is that broker's own estimate — its columnar
store, estimate cache, generation lock and precise invalidation — and
asks no shard.  Only the *reports* step leaves the process: after the
pipeline has selected, it scatters ``{query, threshold, engines}``
entries to the shards owning selected engines, one ``/dispatch`` RPC per
owning shard per round.

:class:`ShardedFleet` is a :class:`~repro.metasearch.broker.SearchPipeline`
backend, not a second pipeline: it supplies the two steps and inherits
everything else (the estimate/search surface, selection, traces, merge,
response assembly) from the class the in-process broker uses.  So
:class:`CoordinatorApp` is the ordinary
:class:`~repro.serving.gateway.GatewayApp` pointed at it — same wire
schema, same admission control, same drain story, and the same idle fast
path and coalescing probe (``estimate_all_cached``).

The answers are **bit-exact** against an in-process broker over the same
representatives: a full delta is state-based, so the local store holds
exactly the statistics the shard holds, and ``merge_hits`` is a global
sort under a total key, so merging each shard's per-engine hit lists
equals merging the same lists locally.

The shards stay the source of the representatives:
:meth:`ShardedFleet.apply_delta` forwards a delta to its owning shard
first and applies it locally only once the shard has accepted it.  The
local store records the version each shard records (none when the shard
records none), so a delta the shard accepts is never refused locally.

Each dispatch is a :class:`~repro.metasearch.dispatch.SplitCall` on a
:class:`~repro.metasearch.dispatch.ConcurrentDispatcher`, reusing its
deadline/retry/degradation machinery with shards in the engine seat: the
request thread writes every shard's request, then reads each reply as it
arrives, and a shard that never answers holds up no other.  The shard
connections are pooled per shard client and shared by every request
thread, so a new client connection to the coordinator dials no shard.

A dead shard behaves like a dead engine behind a gateway: its engines
keep their (local) estimates and may be selected; each invoked one fails
at dispatch with one :class:`~repro.metasearch.dispatch.EngineFailure`
naming the shard, while the other engines answer as usual.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Sequence
from urllib.parse import quote

from repro.core.base import UsefulnessEstimator
from repro.corpus.query import Query
from repro.fleet.delta import RepresentativeDelta
from repro.metasearch.broker import MetasearchBroker, SearchPipeline
from repro.metasearch.dispatch import (
    ConcurrentDispatcher,
    DispatchReport,
    EngineFailure,
    SplitCall,
)

# Kept only for bench/'s trace_replica, which wraps
# repro.serving.coordinator.merge_hits by module attribute.
from repro.metasearch.merge import merge_hits  # noqa: F401
from repro.metasearch.selection import EstimateRow, SelectionPolicy
from repro.obs.registry import OCCUPANCY_BUCKETS
from repro.serving.gateway import GatewayApp
from repro.serving.remote_engine import RemoteServingError, _HTTPJsonClient
from repro.serving.wire import (
    WireFormatError,
    _expect_kind,
    decode_hits,
    failure_from_wire,
    query_to_wire,
)

__all__ = ["CoordinatorApp", "ShardedFleet"]


class _ShardHandle:
    """One attached shard: its client, the engines it owns, and the lock
    that keeps a forwarded delta and its local apply one step."""

    __slots__ = (
        "name", "url", "client", "engines", "index", "delta_lock", "stale"
    )

    def __init__(self, name: str, url: str, client: _HTTPJsonClient):
        self.name = name
        self.url = url
        self.client = client
        self.engines: List[str] = []
        self.index: int = -1
        self.delta_lock = threading.Lock()
        # Engines whose local copy may trail the shard: a forward's reply
        # was lost and re-reading the representative failed too.
        self.stale: set = set()

    def representative(self, engine: str) -> RepresentativeDelta:
        """``engine``'s full delta, as the shard holds it."""
        return self.client.request(
            "GET",
            f"/representative?engine={quote(engine)}",
            decode=RepresentativeDelta.from_json_dict,
        )

    def __repr__(self) -> str:
        return f"_ShardHandle({self.name} @ {self.url}, {len(self.engines)} engines)"


class _ShardEngine(NamedTuple):
    """An engine in the local broker's engine seat: its name, and the
    shard that serves its documents."""

    name: str
    shard: _ShardHandle


def _in_order(mapping: dict, names: List[str]) -> dict:
    """``mapping`` restricted to ``names``, in their order."""
    return {name: mapping[name] for name in names if name in mapping}


class ShardedFleet(SearchPipeline):
    """A fleet of shard workers as a :class:`~repro.metasearch.broker.
    SearchPipeline` backend: local estimates, one dispatch scatter.

    Args:
        shard_urls: One ``http://host:port`` per shard worker.
        estimator: Usefulness estimator of the local broker; the paper's
            subrange method by default, as in
            :class:`~repro.metasearch.broker.MetasearchBroker`.
        policy: Selection policy applied to the local estimate rows; the
            paper's threshold criterion by default.
        timeout: Scatter deadline in seconds per dispatch fan-out; a shard
            that has not answered by then is treated as dead for that
            request.  ``None`` waits indefinitely.
        retries: Extra attempts per shard call after one raises.
        backoff: Base retry backoff in seconds (jittered and clamped to
            the remaining scatter/ambient deadline by the dispatcher).
        shard_timeout: Per-request socket budget for shard calls.
        registry: Metrics sink; the shared no-op registry by default.  The
            local broker's cache, estimator and delta series land here too.
    """

    series_prefix = "coordinator"

    def __init__(
        self,
        shard_urls: Sequence[str],
        *,
        estimator: Optional[UsefulnessEstimator] = None,
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
        # Every engine's representative, read off its shard at attach, and
        # the estimate cache over them: the rows step.
        self.local = MetasearchBroker(estimator, registry=self.registry)
        self._shards = [
            _ShardHandle(
                f"shard{i}", url, _HTTPJsonClient(url, timeout=shard_timeout)
            )
            for i, url in enumerate(shard_urls)
        ]
        # Shards sit in the dispatcher's engine seat: per-shard deadline
        # enforcement, retry with clamped backoff, and degradation-not-
        # failure all come from the same machinery engine calls use.
        # The scatters are split calls, which use no thread; ``workers``
        # bounds plain calls only, and is > 1 because a ``timeout`` is
        # refused on a dispatcher that would run plain calls inline.
        self.dispatcher = ConcurrentDispatcher(
            workers=max(2, len(self._shards)),
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            registry=self.registry,
        )
        self._m_shard_failures = self.registry.counter(
            "coordinator.shard.failures"
        )
        # Scatter accounting: one "fanout" is one dispatch round (a batch
        # of queries to the owning shards); "rpcs" counts the per-shard
        # calls it cost — at most one per shard, whatever the batch.
        self._m_fanouts = self.registry.counter(
            "coordinator.scatter.fanouts", labels={"phase": "dispatch"}
        )
        self._m_rpcs = self.registry.counter(
            "coordinator.scatter.rpcs", labels={"phase": "dispatch"}
        )
        self._m_fanout_queries = self.registry.histogram(
            "coordinator.scatter.batch.queries", buckets=OCCUPANCY_BUCKETS
        )

    # -- attachment ----------------------------------------------------------

    def attach(self, timeout: float = 10.0, interval: float = 0.05) -> "ShardedFleet":
        """Wait for every shard's ``/healthz``, learn which engines it
        owns, and read each one's full delta from it into the local
        broker, at the version the shard records (none when it records
        none).  Call it once.

        Returns ``self`` so construction chains:
        ``ShardedFleet(urls).attach()``.

        Raises:
            RemoteServingError: A shard was not ready within ``timeout``,
                or refused or garbled a representative.
            ValueError: A shard's representatives do not name exactly the
                engines its ``/healthz`` reported, or two shards own one
                engine.
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
        for shard in self._shards:
            deltas = [shard.representative(name) for name in shard.engines]
            named = [delta.name for delta in deltas]
            if named != shard.engines:
                raise ValueError(
                    f"shard at {shard.url} answered representatives of "
                    f"{named}, but /healthz reported {shard.engines}"
                )
            for delta in deltas:
                self._install(_ShardEngine(delta.name, shard), delta)
        return self

    def _install(self, engine: _ShardEngine, delta: RepresentativeDelta) -> None:
        """Hold ``delta``, a full delta read off the engine's shard, at the
        version the shard records (none when it records none)."""
        self.local.register(
            engine, delta.as_representative(), version=delta.to_version or None
        )

    def _resync(self, name: str) -> None:
        """Re-read ``name``'s full delta off its shard and hold it, unless
        the shard records the version already held."""
        engine = self.local.engine_of(name)
        delta = engine.shard.representative(name)
        held = self.local.representative_version(name)
        if held is None or held != delta.to_version:
            self._install(engine, delta)
        engine.shard.stale.discard(name)

    @property
    def engine_names(self) -> List[str]:
        return self.local.engine_names

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def __len__(self) -> int:
        return len(self.local)

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
        """Close every pooled shard connection, idle or in use.  There
        are no scatter threads to retire: a scatter of split calls starts
        none."""
        for shard in self._shards:
            shard.client.close()

    # -- live-fleet delta propagation ----------------------------------------

    def apply_delta(self, delta) -> dict:
        """Forward one representative delta to the shard owning its
        engine, then apply it to the local broker.

        The shard goes first, so it stays the source the next attach
        reads; a delta it refuses (a 4xx) raises here and leaves the local
        store and estimate cache untouched.  The local apply evicts precisely
        (:meth:`~repro.metasearch.broker.MetasearchBroker.
        apply_representative_delta`).  Returns the shard's apply report
        (mode, cache eviction counts, new version).

        When the local copy may differ from the shard's — the reply was
        lost (a transport error or a 5xx, after which the shard may hold
        the delta), or the local copy refuses a delta the shard accepted
        (a delta sent to the shard directly came between) — the engine's
        full delta is read off the shard again and replaces the local
        copy; if that read fails too, the next accepted delta for the
        engine re-reads it instead of applying.  Deltas to different
        shards do not wait for each other.

        Raises:
            KeyError: No attached shard owns ``delta.name``.
            RemoteServingError: The shard rejected the delta (including
                the 409 base-version conflict — callers re-ship the
                engine's full delta, ``delta_since(0)``, which the shard
                applies whatever it holds), answered malformed JSON, or
                could not be reached.
        """
        shard = self.local.engine_of(delta.name).shard
        with shard.delta_lock:
            try:
                answer = shard.client.request(
                    "POST",
                    "/delta",
                    delta.to_json_dict(),
                    decode=lambda answer: _expect_kind(answer, "shard.delta"),
                )
            except RemoteServingError as exc:
                if exc.status is None or exc.status >= 500:
                    # The shard may have applied it before the reply was lost.
                    shard.stale.add(delta.name)
                    with contextlib.suppress(RemoteServingError):
                        self._resync(delta.name)
                raise
            if delta.name in shard.stale:
                self._resync(delta.name)
            else:
                try:
                    self.local.apply_representative_delta(delta)
                except ValueError:
                    self._resync(delta.name)
        return answer

    # -- shard RPC -----------------------------------------------------------

    def _shard_dispatch(
        self, shard: _ShardHandle, entries: List[dict]
    ) -> SplitCall:
        """The ``/dispatch`` call to ``shard``; it answers one report per
        entry."""

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

        return SplitCall(functools.partial(
            shard.client.start, "POST", "/dispatch", {"entries": entries},
            decode,
        ))

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

    # -- step 1: local estimation ---------------------------------------------

    def rows(self, queries: List[Query], thresholds: List[float]) -> tuple:
        """The local broker's estimate step; asks no shard and cannot
        fail."""
        # Kept only for bench/'s coordinator_scatter probe, whose spy on
        # dispatcher.dispatch needs one call per estimate.
        self.dispatcher.dispatch({})
        return self.local.rows(queries, thresholds)

    def estimate_all_cached(
        self, query: Query, threshold: float
    ) -> Optional[EstimateRow]:
        return self.local.estimate_all_cached(query, threshold)

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
                shard = self.local.engine_of(name).shard
                by_shard.setdefault(shard, []).append(name)
            wire_query = query_to_wire(query)
            for shard, names in by_shard.items():
                entry = {
                    "query": wire_query,
                    "threshold": float(threshold),
                    "engines": names,
                }
                asked.setdefault(shard, []).append((i, entry))
        calls = {
            shard.name: self._shard_dispatch(
                shard, [entry for __, entry in pairs]
            )
            for shard, pairs in asked.items()
        }
        if calls:
            self._m_fanouts.inc()
            self._m_rpcs.inc(len(calls))
            self._m_fanout_queries.observe(len(queries))
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
            f"{len(self.local)} engines)"
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
