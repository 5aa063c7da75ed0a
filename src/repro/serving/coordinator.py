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

The two steps: ``rows`` scatters the query batch to the ``/estimate`` of
every shard that can answer it and merges the rows; after the pipeline
has selected, ``reports`` scatters ``{query, threshold, engines}``
entries to only the shards owning selected engines.  Both fan out on a
:class:`~repro.metasearch.dispatch.ConcurrentDispatcher`, reusing its
deadline/retry/degradation machinery with shards in the engine seat.
Each shard call is a :class:`~repro.metasearch.dispatch.SplitCall`, so a
scatter runs on the thread handling the request: it writes every shard's
request, then reads each reply as it arrives — the shards work in
parallel because they are other processes, and no fan-out thread is
woken just to block on one socket; a shard that never answers holds up
no other.  The shard connections are pooled per
shard client and shared by every request thread, so a new client
connection to the coordinator dials no shard.

A shard that cannot answer is not asked.  Each shard serves a *headroom
summary* at attach (``GET /headroom``): per term, the largest
per-unit-weight bound on a factor exponent over its engines.  When
``sum_j u_j * H[term_j]`` proves, by the kernel's own whole-row rule
(:func:`~repro.core.vectorized.summary_rules_out`), that every engine of
the shard estimates exactly ``(0.0, 0.0)`` for every query of the
scatter, the shard's engines enter the merged row as those zeros — the
values the shard would have sent, so rows, selection and hits do not
change, and a skipped shard that is down costs no failure.  The summary
is never stale low: :meth:`ShardedFleet.apply_delta` sets the terms a
delta touches to ``+inf`` before it sends the delta and installs the
exact values the shard reports under the apply.  A shard mutated behind
the coordinator's back (a direct ``POST /delta``, an engine registered
on the shard) is outside this guarantee.

A dead shard degrades, never sinks the query: the coordinator knows which
engines the shard owned (from ``/healthz`` at :meth:`ShardedFleet.attach`
time) and records one
:class:`~repro.metasearch.dispatch.EngineFailure` per affected engine,
while the surviving shards' answers merge exactly as the in-process
broker restricted to the surviving engines would.  A row naming any
other engine than those is malformed, so that shard fails the request.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.vectorized import summary_rules_out
from repro.corpus.query import Query
from repro.metasearch.broker import SearchPipeline
from repro.metasearch.dispatch import (
    ConcurrentDispatcher,
    DispatchReport,
    EngineFailure,
    SplitCall,
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


def _headroom_value(value) -> float:
    """A summary value off the wire: a finite number ``>= 0``, else
    ``+inf`` (never rules a shard out)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            return math.inf
        if 0.0 <= value < math.inf:
            return value
    return math.inf


def _headroom_from_wire(raw) -> Optional[Dict[str, float]]:
    """A shard's headroom summary; ``None`` (always ask the shard) when
    the shard has none or it is not a map of term strings."""
    if not isinstance(raw, dict) or not all(isinstance(t, str) for t in raw):
        return None
    return {term: _headroom_value(value) for term, value in raw.items()}


class _ShardHandle:
    """One attached shard: its client, the engines it owns and its
    headroom summary (``None``: always asked)."""

    __slots__ = (
        "name", "url", "client", "engines", "owned", "index", "zeros",
        "headroom", "term_local", "delta_lock",
    )

    def __init__(self, name: str, url: str, client: _HTTPJsonClient):
        self.name = name
        self.url = url
        self.client = client
        self.index: int = -1
        self.own([])
        self.headroom: Optional[Dict[str, float]] = None
        self.term_local = False
        # Deltas to one shard go one at a time (see apply_delta).
        self.delta_lock = threading.Lock()

    def own(self, engines: List[str]) -> None:
        self.engines = engines
        self.owned = frozenset(engines)
        zeros = np.zeros(len(engines))
        self.zeros = EstimateRow.ranked(engines, zeros, zeros)

    def fetch_headroom(self) -> None:
        """Read the shard's summary; a shard that serves none is always
        asked."""
        try:
            self.headroom, self.term_local = self.client.request(
                "GET",
                "/headroom",
                decode=lambda answer: (
                    _headroom_from_wire(
                        _expect_kind(answer, "shard.headroom").get("headroom")
                    ),
                    answer.get("term_local") is True,
                ),
            )
        except RemoteServingError:
            self.headroom = None

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
        self._owner: Dict[str, _ShardHandle] = {}
        self._m_shard_failures = self.registry.counter(
            "coordinator.shard.failures"
        )
        # Scatter accounting: one "fanout" is one scatter-gather round
        # (a batch of queries to all/owning shards); "rpcs" counts the
        # per-shard calls it cost.  With front-door coalescing these are
        # the proof that a whole window costs at most one RPC per shard —
        # (rpcs + skipped)/fanouts stays at the shard count while
        # queries/fanout grows with window occupancy.
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
        # Shards a round did not ask because their headroom summary
        # proved every estimate zero: rpcs + skipped = fanouts * shards.
        self._m_skipped = self.registry.counter(
            "coordinator.scatter.skipped", labels={"phase": "estimate"}
        )
        self._m_fanout_queries = self.registry.histogram(
            "coordinator.scatter.batch.queries", buckets=OCCUPANCY_BUCKETS
        )

    # -- attachment ----------------------------------------------------------

    def attach(self, timeout: float = 10.0, interval: float = 0.05) -> "ShardedFleet":
        """Wait for every shard's ``/healthz`` and learn which engines it
        owns — the map that turns a dead shard into per-engine failures —
        and its headroom summary (``GET /headroom``), which lets a
        scatter skip it.

        Returns ``self`` so construction chains:
        ``ShardedFleet(urls).attach()``.
        """
        deadline = time.monotonic() + timeout
        for shard in self._shards:
            while True:
                try:
                    engines, shard.index = shard.client.request(
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
            shard.own(engines)
            shard.fetch_headroom()
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
        """Close every pooled shard connection, idle or in use.  There
        are no scatter threads to retire: a scatter of split calls starts
        none."""
        for shard in self._shards:
            shard.client.close()

    # -- live-fleet delta propagation ----------------------------------------

    def apply_delta(self, delta) -> dict:
        """Ship one representative delta to the shard owning its engine.

        The delta travels in its canonical wire form to exactly one
        shard's ``POST /delta`` — the fan-out is a *routing* decision,
        not a broadcast, because each engine's representative lives on
        one shard only.  Returns the shard's apply report (mode, cache
        eviction counts, new version, new headroom values).

        The shard's headroom summary is never stale low.  Deltas to one
        shard go one at a time; before one is sent, every term it touches
        reads ``+inf`` (every term, for a shard whose summary is not
        term-local), and the exact values the shard computed under the
        apply replace them once it answers.  A rejected delta leaves them
        at ``+inf``, so the shard is asked for those terms from then on.

        Raises:
            KeyError: No attached shard owns ``delta.name``.
            RemoteServingError: The shard rejected the delta (including
                the 409 base-version conflict — callers re-ship the
                engine's full delta, ``delta_since(0)``, which the shard
                applies whatever it holds) or answered malformed JSON.
        """
        shard = self._owner.get(delta.name)
        if shard is None:
            raise KeyError(
                f"engine {delta.name!r} is not owned by any attached shard"
            )
        with shard.delta_lock:
            summary = shard.headroom
            if summary is not None and shard.term_local:
                summary.update(dict.fromkeys(delta.terms, math.inf))
            else:
                shard.headroom = None
            answer = shard.client.request(
                "POST",
                "/delta",
                delta.to_json_dict(),
                decode=lambda answer: _expect_kind(answer, "shard.delta"),
            )
            fresh = _headroom_from_wire(answer.get("headroom"))
            if summary is not None and fresh is not None:
                # A term no engine holds any more may keep its old value:
                # stale high is allowed.
                summary.update(fresh)
                shard.headroom = summary
        return answer

    # -- shard RPC -----------------------------------------------------------

    def _shard_estimates(
        self, shard: _ShardHandle, payload: dict, n_queries: int
    ) -> SplitCall:
        """The ``/estimate`` call to ``shard``; it answers one row per
        query, over exactly the engines the shard owned at attach."""

        def decode(answer):
            rows = [
                estimate_row_from_wire(row)
                for row in _expect_kind(answer, "shard.estimates")["rows"]
            ]
            if len(rows) != n_queries:
                raise WireFormatError(
                    f"{len(rows)} estimate rows for {n_queries} queries"
                )
            for row in rows:
                if len(row.names) != len(shard.owned) or not (
                    shard.owned.issuperset(row.names)
                ):
                    raise WireFormatError(
                        "an estimate row names other engines than the "
                        f"{len(shard.owned)} the shard owned at attach"
                    )
            return rows

        return SplitCall(functools.partial(
            shard.client.start, "POST", "/estimate", payload, decode
        ))

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

    # -- step 1: scatter estimation ------------------------------------------

    def _ruled_out(
        self, queries: List[Query], thresholds: List[float]
    ) -> List[_ShardHandle]:
        """The shards whose headroom summary proves every engine's
        estimate ``(0.0, 0.0)`` for every query."""
        # One read of each summary: a delta may withdraw it meanwhile.
        held = [(shard, shard.headroom) for shard in self._shards]
        held = [(shard, summary) for shard, summary in held if summary is not None]
        if not queries or not held:
            return []
        width = max(len(query.terms) for query in queries)
        u = np.zeros((len(queries), width))
        head = np.zeros((len(held), len(queries), width))
        for i, query in enumerate(queries):
            u[i, : len(query.terms)] = query.normalized_weights()
            for s, (__, summary) in enumerate(held):
                head[s, i, : len(query.terms)] = [
                    summary.get(term, 0.0) for term in query.terms
                ]
        with np.errstate(invalid="ignore"):  # inf * 0.0: NaN, never skips
            totals = (u * head).sum(axis=2)
        dead = summary_rules_out(
            totals,
            np.array([len(query.terms) for query in queries]),
            np.array(thresholds, dtype=np.float64),
        )
        return [shard for (shard, __), out in zip(held, dead.all(axis=1)) if out]

    def rows(self, queries: List[Query], thresholds: List[float]) -> tuple:
        """Fan ``/estimate`` to every shard its headroom summary does not
        rule out; returns ``(rows, failures)``.

        Each returned row is the merged, sorted estimate row over every
        answering shard's engines and every skipped shard's engines (as
        the exact zeros the shard would have answered); ``failures``
        carries one per-engine record for each engine whose shard was
        asked and did not answer.
        """
        payload = {
            "queries": [query_to_wire(q) for q in queries],
            "thresholds": thresholds,
        }
        skipped = self._ruled_out(queries, thresholds)
        calls = {
            shard.name: self._shard_estimates(shard, payload, len(queries))
            for shard in self._shards
            if shard not in skipped
        }
        self._m_fanouts["estimate"].inc()
        self._m_rpcs["estimate"].inc(len(calls))
        self._m_skipped.inc(len(skipped))
        self._m_fanout_queries.observe(len(queries))
        report = self.dispatcher.dispatch(calls)
        answered = list(report.results.values())  # answering shards only
        answered += [[shard.zeros] * len(queries) for shard in skipped]
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
            shard.name: self._shard_dispatch(
                shard, [entry for __, entry in pairs]
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
