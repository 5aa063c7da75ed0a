"""The metasearch broker.

The broker is "just an interface" plus representatives, exactly as the paper
describes: it holds no document index of its own.  For each query it (1)
estimates every registered engine's usefulness from its representative,
(2) applies a selection policy, (3) forwards the query to the selected
engines only, and (4) merges their results.  A ``search_all`` baseline
broadcasts to every engine, which is what selection is meant to avoid.

There is one path through it — ``estimate rows → select → dispatch →
merge`` — and one of everything on that path:

* **One pipeline, for every topology.**  :class:`SearchPipeline` owns the
  path over a backend of two steps, *rows* and *reports*.
  :class:`MetasearchBroker` supplies them from its fleet store and
  dispatcher; the serving layer's ``ShardedFleet`` supplies its local
  broker's.  The broker's solo ``search`` is the one remaining fork.
* **One representative backend.**  Every representative is packed into
  the broker's
  :class:`~repro.representatives.columnar.FleetRepresentativeStore`
  (``broker.fleet``, never ``None``); a dict
  :class:`~repro.representatives.representative.DatabaseRepresentative` is
  only the builder/interchange format.
* **One estimation routine.**  :meth:`MetasearchBroker._estimate_rows`
  answers any ``(queries, thresholds)`` batch: one
  :func:`~repro.core.vectorized.fleet_usefulness_grid` call per normalized
  query over the thresholds the
  :class:`~repro.metasearch.cache.EstimateCache` could not answer, each
  row ranked with one ``np.lexsort`` into an
  :class:`~repro.metasearch.selection.EstimateRow` (names plus ``nodoc`` /
  ``avgsim`` arrays); no per-engine object is built unless a caller reads
  one.  Every estimator type has a batched kernel, bit-identical to the
  scalar estimators, which stay public as the paper's reference
  algorithms and the oracle the test suites compare against.
* **One dispatcher.**  A :class:`~repro.metasearch.dispatch.ConcurrentDispatcher`
  (timeout, bounded retry, graceful degradation) fans every query's
  engine calls out under one batch deadline, one split call per engine
  *host* (an engine server or a shard) for all the invoked engines it
  serves; the fan-out runs on the request's thread unless it has a
  deadline to enforce over an in-process engine.
* **One freshness path.**  The engines own their data and the broker
  pulls: :meth:`MetasearchBroker.catch_up`, run before every estimate,
  re-reads through :meth:`~MetasearchBroker.sync_representative` each
  engine whose host reported another version than the one held, asking a
  host that has reported nothing for :data:`REPORT_MAX_AGE` seconds first.
  In-process engines are synced by their callers.

The estimate cache invalidates per engine on registration and per term on
a representative delta (``cache_size=0`` makes it the zero-capacity cache
that counts every read as a miss); ``broker.polycache``, a
:class:`~repro.metasearch.cache.TermPolynomialCache`, is invalidated
alongside though nothing fills it any more.  Cached answers are
bit-identical to fresh computation.  Every search builds a
:class:`~repro.obs.QueryTrace` with one span per stage, and a
:class:`~repro.obs.MetricsRegistry` passed at construction collects the
search, stage, dispatcher, cache and estimator series (the default
:class:`~repro.obs.NullRegistry` keeps every hook free).
"""

from __future__ import annotations

import functools
import numbers
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base import UsefulnessEstimator
from repro.core.subrange_estimator import SubrangeEstimator
from repro.core.vectorized import fleet_usefulness_grid, require_kernel
from repro.corpus.query import Query
from repro.engine.results import SearchHit
from repro.engine.search_engine import SearchEngine
from repro.fleet.delta import RepresentativeDelta
from repro.metasearch.cache import EstimateCache, TermPolynomialCache
from repro.metasearch.deadlines import Deadline, deadline_scope
from repro.metasearch.dispatch import (
    ConcurrentDispatcher,
    DispatchReport,
    EngineFailure,
)
from repro.metasearch.merge import merge_hits
from repro.metasearch.selection import (
    EstimatedUsefulness,
    EstimateRow,
    SelectionPolicy,
    ThresholdPolicy,
    rank_names,
)
from repro.obs.registry import LATENCY_BUCKETS, NULL_REGISTRY, OCCUPANCY_BUCKETS
from repro.obs.trace import QueryTrace
from repro.representatives.builder import build_representative
from repro.representatives.columnar import (
    FleetRepresentativeRef,
    FleetRepresentativeStore,
)
from repro.representatives.representative import DatabaseRepresentative

__all__ = [
    "DeltaApplyReport",
    "MetasearchBroker",
    "MetasearchResponse",
    "REPORT_MAX_AGE",
    "broadcast_thresholds",
]

#: Seconds an engine host may go without reporting its engines' versions
#: before a request asks it for them (``host.probe()``, its ``/healthz``):
#: the served bound on how long a change at a host that no query invokes
#: stays unseen.  A host whose probe or pull failed is left alone as long.
REPORT_MAX_AGE = 1.0


def broadcast_thresholds(
    queries: Sequence[Query], thresholds: Union[float, Sequence[float]]
) -> List[float]:
    """One float threshold per query: a scalar (any :class:`numbers.Real`,
    numpy scalars included) is repeated, a sequence must be parallel to
    ``queries``.

    Raises:
        ValueError: A sequence whose length differs from ``len(queries)``.
    """
    if isinstance(thresholds, numbers.Real):
        return [float(thresholds)] * len(queries)
    per_query = [float(t) for t in thresholds]
    if len(per_query) != len(queries):
        raise ValueError(
            f"got {len(per_query)} thresholds for {len(queries)} queries"
        )
    return per_query


@dataclass(frozen=True)
class DeltaApplyReport:
    """Outcome of applying one representative delta at the broker.

    Attributes:
        name: Engine whose representative was updated.
        from_version: Version the delta was built against.
        to_version: Version the representative is now at.
        mode: ``"precise"`` when only the affected terms' cache entries
            were evicted, ``"full"`` when the delta was a full one (it
            replaced the representative) or the estimator is not
            term-local, and the broker evicted the whole engine.
        terms_touched: Terms the delta adds, removes, or reweights.
        cache_evicted / cache_retained: Estimate-cache entries for this
            engine dropped vs. kept by the invalidation.
        seconds: Wall-clock apply time (mutation plus invalidation).
    """

    name: str
    from_version: int
    to_version: int
    mode: str
    terms_touched: int
    cache_evicted: int
    cache_retained: int
    seconds: float = field(compare=False)


class _HostWatch:
    """The broker's side of one engine host: the report it last caught up
    with, its last failure, and the single-flight lock."""

    __slots__ = ("seen", "failed_at", "lock")

    def __init__(self):
        self.seen: Optional[dict] = None
        self.failed_at = float("-inf")
        self.lock = threading.Lock()


@dataclass(frozen=True)
class MetasearchResponse:
    """Outcome of one brokered search.

    Attributes:
        hits: Globally ranked merged hits from the engines that answered.
        invoked: Names of the engines the query was forwarded to.
        estimates: All per-engine usefulness estimates (invoked or not),
            most promising first — an
            :class:`~repro.metasearch.selection.EstimateRow` from the
            pipeline, a list once decoded from the wire — useful for
            diagnostics and the paper's evaluation harness.
        failures: One :class:`~repro.metasearch.dispatch.EngineFailure`
            per invoked engine that timed out or errored; such an engine
            contributes no hits but does not sink the query.
        latencies: Seconds per invoked engine: wall-clock until it
            answered or was given up on, or, for an engine its host
            answered for, the seconds the host reports.
        trace: The per-stage :class:`~repro.obs.QueryTrace` recorded while
            answering (estimate/select/dispatch/merge spans plus one
            ``dispatch:<engine>`` span per invoked engine).  Excluded from
            equality: two identical answers differ only in timing.
    """

    hits: List[SearchHit]
    invoked: List[str]
    estimates: Sequence[EstimatedUsefulness]
    failures: List[EngineFailure] = field(default_factory=list)
    latencies: Dict[str, float] = field(default_factory=dict)
    trace: Optional[QueryTrace] = field(default=None, compare=False, repr=False)

    @property
    def degraded(self) -> bool:
        """True when at least one invoked engine failed to answer."""
        return bool(self.failures)

    @property
    def answered(self) -> List[str]:
        """Invoked engines that actually contributed results."""
        failed = {f.engine for f in self.failures}
        return [name for name in self.invoked if name not in failed]


class SearchPipeline:
    """The paper's broker loop — estimate every engine, select, forward to
    the selected engines only, merge — defined once over a backend of two
    steps, :meth:`rows` and :meth:`reports`, which say *where the estimates
    and the hits come from* (plus ``__len__`` and ``engine_names``).

    Everything else lives here for every backend: the estimate/select/search
    surface, the per-query :class:`~repro.obs.QueryTrace`, the response
    assembly, and the ``<series_prefix>.searches``, ``.searches.degraded``,
    ``.engines.invoked``, ``.batch.{batches,queries,seconds}`` and
    ``.stage.seconds{stage}`` series.  ``policy`` and ``registry`` default
    to the paper's threshold criterion and the shared no-op registry.
    """

    #: First component of every series name this pipeline emits.
    series_prefix = "broker"

    def __init__(self, policy: Optional[SelectionPolicy] = None, registry=None):
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.policy = policy or ThresholdPolicy()
        prefix = self.series_prefix
        self._m_searches = self.registry.counter(f"{prefix}.searches")
        self._m_degraded = self.registry.counter(f"{prefix}.searches.degraded")
        self._m_invoked = self.registry.counter(f"{prefix}.engines.invoked")
        self._m_batches = self.registry.counter(f"{prefix}.batch.batches")
        self._m_batch_queries = self.registry.counter(f"{prefix}.batch.queries")
        self._m_batch_seconds = self.registry.histogram(
            f"{prefix}.batch.seconds", buckets=LATENCY_BUCKETS
        )

    def _stage_seconds(self, stage: str):
        return self.registry.histogram(
            f"{self.series_prefix}.stage.seconds",
            buckets=LATENCY_BUCKETS,
            labels={"stage": stage},
        )

    # -- the backend's two steps -------------------------------------------------------

    def rows(self, queries: List[Query], thresholds: List[float]) -> tuple:
        """``(rows, failures)``: one best-first
        :class:`~repro.metasearch.selection.EstimateRow` per ``(query,
        threshold)``, and one :class:`~repro.metasearch.dispatch.EngineFailure`
        per engine whose estimate could not be had (absent from every row)."""
        raise NotImplementedError

    def reports(
        self, queries: List[Query], thresholds: List[float], invoked_lists: list
    ) -> List[DispatchReport]:
        """Forward each query to its invoked engines: one report per query,
        its results, failures and latencies in that query's invoked order."""
        raise NotImplementedError

    # -- estimation ------------------------------------------------------------------------

    def estimate_all(self, query: Query, threshold: float) -> EstimateRow:
        """Usefulness estimate for every engine that answered, best first."""
        return self.rows([query], [float(threshold)])[0][0]

    def estimate_all_cached(
        self, query: Query, threshold: float
    ) -> Optional[EstimateRow]:
        """:meth:`estimate_all`'s answer iff it is already cached — never,
        for a backend without a full-row estimate cache."""
        return None

    def estimate_batch(
        self,
        queries: Sequence[Query],
        thresholds: Union[float, Sequence[float]],
    ) -> List[EstimateRow]:
        """Usefulness estimates for many queries in one amortized pass.

        Args:
            queries: The batch, in answer order.
            thresholds: One threshold applied to every query, or a
                sequence parallel to ``queries``.

        Returns:
            One best-first estimate row per query — each row exactly what
            :meth:`estimate_all` would return for that (query, threshold).
        """
        started = time.perf_counter()
        queries = list(queries)
        rows, __ = self.rows(queries, broadcast_thresholds(queries, thresholds))
        self._m_batches.inc()
        self._m_batch_queries.inc(len(queries))
        self._m_batch_seconds.observe(time.perf_counter() - started)
        return rows

    def select(self, query: Query, threshold: float) -> List[str]:
        """Names of the engines the policy picks for this query."""
        return self.policy.select(self.estimate_all(query, threshold))

    # -- search ------------------------------------------------------------------------------

    def _select(
        self, estimates: EstimateRow, trace: QueryTrace
    ) -> List[str]:
        with trace.span("select") as span:
            invoked = self.policy.select(estimates)
            span.metadata["selected"] = len(invoked)
        self._stage_seconds("select").observe(span.duration)
        return invoked

    def _respond(
        self,
        invoked: List[str],
        estimates: Sequence[EstimatedUsefulness],
        report: DispatchReport,
        limit: Optional[int],
        trace: QueryTrace,
        estimate_failures: Sequence[EngineFailure] = (),
    ) -> MetasearchResponse:
        """Dispatch report -> traced, merged, counted response: the one
        assembly behind every search entry point of every backend.
        Estimate failures come first in ``response.failures``."""
        failed = {failure.engine for failure in report.failures}
        for name in invoked:
            trace.add(
                f"dispatch:{name}",
                report.latencies.get(name, 0.0),
                ok=name not in failed,
            )
        with trace.span("merge") as span:
            hits = merge_hits(report.result_lists(), limit=limit)
            span.metadata["hits"] = len(hits)
        self._stage_seconds("merge").observe(span.duration)
        response = MetasearchResponse(
            hits=hits,
            invoked=invoked,
            estimates=estimates,
            failures=[*estimate_failures, *report.failures],
            latencies=report.latencies,
            trace=trace,
        )
        self._m_searches.inc()
        self._m_invoked.inc(len(invoked))
        if response.degraded:
            self._m_degraded.inc()
        return response

    def search(
        self, query: Query, threshold: float, limit: Optional[int] = None
    ) -> MetasearchResponse:
        """Estimate, select, dispatch, merge — a batch of one."""
        return self.search_batch([query], float(threshold), limit=limit)[0]

    def search_batch(
        self,
        queries: Sequence[Query],
        thresholds: Union[float, Sequence[float]],
        limit: Optional[int] = None,
    ) -> List[MetasearchResponse]:
        """The full pipeline — estimate, select, dispatch, merge — for a
        whole batch of queries: one :meth:`rows` call, central selection on
        each row, one :meth:`reports` call.  Each query gets its own
        :class:`~repro.obs.QueryTrace` and its own
        :class:`MetasearchResponse`.
        """
        started = time.perf_counter()
        queries = list(queries)
        per_query = broadcast_thresholds(queries, thresholds)
        traces = [QueryTrace() for __ in queries]

        est_start = time.perf_counter()
        all_estimates, estimate_failures = self.rows(queries, per_query)
        est_elapsed = time.perf_counter() - est_start
        self._stage_seconds("estimate").observe(est_elapsed)
        shared = est_elapsed / len(queries) if queries else 0.0
        for trace in traces:
            trace.add("estimate", shared, engines=len(self))

        invoked_lists = [
            self._select(estimates, trace)
            for estimates, trace in zip(all_estimates, traces)
        ]
        dispatch_start = time.perf_counter()
        reports = self.reports(queries, per_query, invoked_lists)
        self._stage_seconds("dispatch").observe(
            time.perf_counter() - dispatch_start
        )
        responses = [
            self._respond(
                invoked, estimates, report, limit, trace, estimate_failures
            )
            for invoked, estimates, report, trace in zip(
                invoked_lists, all_estimates, reports, traces
            )
        ]
        self._m_batches.inc()
        self._m_batch_queries.inc(len(queries))
        self._m_batch_seconds.observe(time.perf_counter() - started)
        return responses


class MetasearchBroker(SearchPipeline):
    """Selects and queries search engines via usefulness estimates.

    Args:
        estimator: Usefulness estimator applied to each representative; the
            paper's subrange method by default; a type without a batched
            kernel (a subclass included) is a ``TypeError``.
        policy: Engine selection policy; the paper's threshold criterion
            (estimated NoDoc >= 1) by default.
        workers: Threads a fan-out with a ``timeout`` runs its in-process
            engine calls on; without one, every fan-out runs on the
            caller's thread whatever ``workers`` is.
        timeout: Fan-out deadline in seconds; ``None`` waits indefinitely.
            Requires ``workers > 1`` (a call on the caller's thread cannot
            be preempted, so the combination raises :class:`ValueError`
            instead of silently never enforcing the deadline).
        retries: Extra attempts after an engine call raises.
        backoff: Base backoff in seconds between retry attempts.
        cache_size: Capacity of the estimate cache, in estimates (engines
            × distinct (query, threshold) rows); ``0`` disables caching
            (a zero-capacity cache that still counts its misses).
        fleet: A pre-built
            :class:`~repro.representatives.columnar.FleetRepresentativeStore`
            to adopt instead of creating an empty one.  Shard workers use
            this to serve a slice shipped as an ``.npz`` bundle: engines
            registered without an explicit representative reuse their
            resident fleet entry rather than rebuilding from the engine
            (which may be remote).
        registry: A :class:`~repro.obs.MetricsRegistry` receiving search
            totals, per-stage latency histograms, and the dispatcher /
            cache / estimator series; the shared no-op registry by default,
            which keeps every hook free.
    """

    #: ``<series_prefix>.<host_series>.failures`` counts failed host calls.
    host_series = "host"

    def __init__(
        self,
        estimator: Optional[UsefulnessEstimator] = None,
        policy: Optional[SelectionPolicy] = None,
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
        cache_size: int = 1024,
        fleet: Optional[FleetRepresentativeStore] = None,
        registry=None,
    ):
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size!r}")
        estimator = estimator or SubrangeEstimator()
        require_kernel(estimator)
        super().__init__(policy, registry)
        self.estimator = estimator.instrument(self.registry)
        self.dispatcher = ConcurrentDispatcher(
            workers=workers,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            registry=self.registry,
        )
        self.fleet: FleetRepresentativeStore = (
            fleet if fleet is not None else FleetRepresentativeStore()
        )
        self.cache = EstimateCache(cache_size, registry=self.registry)
        self._rank_of = rank_names([])
        self.polycache = TermPolynomialCache(registry=self.registry)
        self._engines: Dict[str, SearchEngine] = {}
        self._rep_versions: Dict[str, int] = {}
        # Engine hosts (an engine's duck-typed ``host``), for catch_up.
        self._hosts: Dict[object, _HostWatch] = {}
        # The two write sites (register, apply_representative_delta) edit
        # the store, invalidate and bump the generation under this lock; a
        # computed row goes into the cache under it only if the generation
        # it was gathered at is still current.
        self._write_lock = threading.Lock()
        self._generation = 0
        self._m_search_seconds = self.registry.histogram(
            "broker.search.seconds", buckets=LATENCY_BUCKETS
        )
        prefix = self.series_prefix
        self._m_host_fanouts = self.registry.counter(
            f"{prefix}.scatter.fanouts", labels={"phase": "dispatch"}
        )
        self._m_host_rpcs = self.registry.counter(
            f"{prefix}.scatter.rpcs", labels={"phase": "dispatch"}
        )
        self._m_host_queries = self.registry.histogram(
            f"{prefix}.scatter.batch.queries", buckets=OCCUPANCY_BUCKETS
        )
        self._m_host_failures = self.registry.counter(
            f"{prefix}.{self.host_series}.failures"
        )
        self._m_pulls = self.registry.counter(f"{prefix}.pulls")
        self._m_pulls_failed = self.registry.counter(f"{prefix}.pulls.failed")
        self._m_probes = self.registry.counter(f"{prefix}.probes")
        self._m_probes_failed = self.registry.counter(f"{prefix}.probes.failed")
        self._m_delta_applies = self.registry.counter("fleet.delta.applies")
        self._m_delta_terms = self.registry.counter("fleet.delta.terms")
        self._m_delta_full = self.registry.counter("fleet.delta.full_evictions")
        self._m_delta_cache_evicted = self.registry.counter(
            "fleet.delta.cache.evicted"
        )
        self._m_delta_cache_retained = self.registry.counter(
            "fleet.delta.cache.retained"
        )
        self._m_delta_seconds = self.registry.histogram(
            "fleet.delta.apply.seconds", buckets=LATENCY_BUCKETS
        )

    # -- registration -------------------------------------------------------------

    def register(
        self,
        engine: SearchEngine,
        representative: Optional[DatabaseRepresentative] = None,
        *,
        version: Optional[int] = None,
    ) -> None:
        """Register a local engine; builds its representative when omitted.

        Engine names must be unique — the name is the routing key.
        Re-registering the *same engine object* is a refresh: its
        representative is rebuilt (or replaced by the one given) and any
        cached estimates for it are invalidated, so a corpus change
        becomes visible to selection immediately.  Registering a
        *different* engine under an existing name stays an error.

        Args:
            engine: The engine to register (or refresh).
            representative: Pre-built representative; built from the
                engine when omitted.
            version: Mutation version of the source this representative
                snapshots, recorded so a later
                :meth:`apply_representative_delta` can check the delta's
                base version and :meth:`sync_representative` can request
                only the missing suffix.  ``None`` clears any recorded
                version (unknown provenance).
        """
        existing = self._engines.get(engine.name)
        if existing is not None and existing is not engine:
            raise ValueError(f"engine {engine.name!r} already registered")
        # First registration of an engine whose representative is already
        # resident in a pre-built fleet (a shard slice): adopt the resident
        # entry instead of rebuilding from the engine, which may be remote
        # or expensive to walk.
        adopt = (
            representative is None
            and existing is None
            and engine.name in self.fleet
        )
        if not adopt:
            if representative is None:
                representative = build_representative(engine)
            if representative.name != engine.name:
                representative = DatabaseRepresentative(
                    name=engine.name,
                    n_documents=representative.n_documents,
                    term_stats=dict(representative.items()),
                )
        with self._write_lock:
            if not adopt:
                # The fleet owns the packed arrays; the dict representative
                # is dropped here, so the two forms are never resident
                # together.
                self.fleet.add(representative)
            self._engines[engine.name] = engine
            self._watch(engine)
            if version is not None:
                self._rep_versions[engine.name] = version
            else:
                self._rep_versions.pop(engine.name, None)
            self.cache.invalidate_engine(engine.name)
            self.polycache.invalidate_engine(engine.name)
            self._generation += 1

    @property
    def engine_names(self) -> List[str]:
        return sorted(self._engines)

    def __len__(self) -> int:
        return len(self._engines)

    def representative_of(self, name: str) -> FleetRepresentativeRef:
        """A read-through view of ``name``'s packed representative
        (``.materialize()`` rebuilds the dict form on demand)."""
        if name not in self._engines:
            raise KeyError(name)
        return FleetRepresentativeRef(name, self.fleet)

    def representative_version(self, name: str) -> Optional[int]:
        """Recorded source version of ``name``'s representative, if known."""
        if name not in self._engines:
            raise KeyError(f"engine {name!r} not registered")
        return self._rep_versions.get(name)

    def versioned_representative(
        self, name: str
    ) -> Tuple[DatabaseRepresentative, Optional[int]]:
        """``name``'s representative and its recorded source version, read
        together: a delta applied concurrently lands before or after
        both, never between them."""
        with self._write_lock:
            version = self.representative_version(name)
            return self.fleet.materialize(name), version

    def engine_of(self, name: str) -> SearchEngine:
        """The registered engine object itself."""
        return self._engines[name]

    # -- live-fleet delta propagation ---------------------------------------------

    def _present_terms(self, name: str) -> set:
        """Term strings currently present in ``name``'s representative."""
        vocab = self.fleet.vocab
        return {
            vocab.term_of(int(t))
            for t in self.fleet.columnar_of(name).term_ids
        }

    def apply_representative_delta(
        self, delta: RepresentativeDelta
    ) -> DeltaApplyReport:
        """Apply one versioned delta to a registered representative.

        A *full* delta (from version 0, the empty representative) replaces
        whatever the broker holds — no base-version check — and evicts the
        whole engine from both caches (mode ``"full"``).  Any other delta
        edits the representative in place.  The edit is bit-exact: the
        updated representative equals the one a full rebuild of the
        mutated corpus would produce (in canonical sorted-term order); the
        dict-form reference the fleet store's in-place edit is tested
        against is ``tests/oracle.py::apply_delta``.

        An edit's cache invalidation is *precise* when the estimator
        declares ``term_local``: only estimate-cache entries whose queries
        touch an affected term are evicted, and only the affected terms'
        polynomial factors.  "Affected" is the delta's own terms; when the
        document count changes it widens to every term present before the
        apply (all per-term probabilities rescale), which still retains
        entries for queries over terms this engine never held.  Estimators
        whose estimates mix in representative-global state (``term_local =
        False``) fall back to whole-engine eviction, which is always sound.

        Raises:
            KeyError: ``delta.name`` is not a registered engine.
            ValueError: A full delta that does not start from 0 documents;
                or an edit whose base version differs from the one the
                broker knows, or whose base document count does not match.
        """
        started = time.perf_counter()
        name = delta.name
        if name not in self._engines:
            raise KeyError(f"engine {name!r} not registered")
        full = delta.is_full
        if full:
            representative = delta.as_representative()
        with self._write_lock:
            known = self._rep_versions.get(name)
            if not full and known is not None and known != delta.from_version:
                raise ValueError(
                    f"delta for {name!r} is based on version "
                    f"{delta.from_version}, but the broker holds version {known}"
                )
            affected: Optional[set] = None
            if not full and self.estimator.term_local:
                affected = set(delta.terms)
                if delta.n_documents != delta.from_n_documents:
                    # Every present term's probability rescales with n;
                    # terms this engine never held keep their (zero /
                    # negative) entries — they do not depend on the
                    # document count.
                    affected |= self._present_terms(name)
            if full:
                self.fleet.add(representative)
            else:
                self.fleet.apply_delta(delta)
            cache_retained = 0
            if affected is not None:
                mode = "precise"
                cache_evicted, cache_retained = self.cache.invalidate_terms(
                    name, affected
                )
                self.polycache.invalidate_terms(name, affected)
            else:
                mode = "full"
                cache_evicted = self.cache.invalidate_engine(name)
                self.polycache.invalidate_engine(name)
                self._m_delta_full.inc()
            self._rep_versions[name] = delta.to_version
            self._generation += 1
        elapsed = time.perf_counter() - started
        self._m_delta_applies.inc()
        self._m_delta_terms.inc(len(delta.records))
        self._m_delta_cache_evicted.inc(cache_evicted)
        self._m_delta_cache_retained.inc(cache_retained)
        self._m_delta_seconds.observe(elapsed)
        return DeltaApplyReport(
            name=name,
            from_version=delta.from_version,
            to_version=delta.to_version,
            mode=mode,
            terms_touched=len(delta.records),
            cache_evicted=cache_evicted,
            cache_retained=cache_retained,
            seconds=elapsed,
        )

    def sync_representative(self, engine) -> DeltaApplyReport:
        """Catch ``engine``'s representative up to its source: apply
        ``engine.sync_representative(since=<last known version>)`` — live
        engine servers and remote engine proxies both implement it.

        An engine the broker does not hold yet asks with no version, gets
        the full delta, and is first entered under its name.

        Raises:
            ValueError: An answer for another engine's name, or a first
                contact answered by anything but a full delta.
        """
        name = engine.name
        if name in self._engines:
            delta = engine.sync_representative(since=self._rep_versions.get(name))
            if delta.name != name:
                raise ValueError(
                    f"sync of {name!r} answered a delta for {delta.name!r}"
                )
            return self.apply_representative_delta(delta)
        delta = engine.sync_representative(since=None)
        if delta.name != name or not delta.is_full or delta.from_n_documents:
            raise ValueError(
                f"first sync of {name!r} answered a delta for {delta.name!r} "
                f"from version {delta.from_version}, not a full delta"
            )
        with self._write_lock:
            if self._engines.setdefault(name, engine) is not engine:
                raise ValueError(f"engine {name!r} already registered")
            self._watch(engine)
        return self.apply_representative_delta(delta)

    def _watch(self, engine) -> None:
        """Track ``engine``'s host for :meth:`catch_up`, if it has one."""
        host = getattr(engine, "host", None)
        if host is not None and host not in self._hosts:
            self._hosts = {**self._hosts, host: _HostWatch()}

    def catch_up(self) -> None:
        """The freshness step, run before every estimate.  Per engine host:
        if its last version report is :data:`REPORT_MAX_AGE` old, ask for
        one (``host.probe()``, under the tighter of ``REPORT_MAX_AGE`` and
        the request's remaining deadline, so a hung host holds a request
        no longer than that); then pull through
        :meth:`sync_representative` every engine of the report whose
        version differs from the held one (``!=``: a restarted engine
        reports a lower one).  Single-flight per host, on the caller's
        thread, and never raises: a failure is counted, changes nothing,
        and leaves the host alone for ``REPORT_MAX_AGE``."""
        now = time.monotonic()
        for host, watch in self._hosts.items():
            stale = now - host.reported_at >= REPORT_MAX_AGE
            if (
                now - watch.failed_at < REPORT_MAX_AGE
                or not stale and host.versions == watch.seen
                or not watch.lock.acquire(blocking=False)
            ):
                continue  # current, backing off, or being caught up
            try:
                if stale:
                    self._m_probes.inc()
                    # A report that takes longer than the bound cannot
                    # keep it.  A bound of 0 (every request asks) leaves
                    # the probe the request's own budget.
                    bound = Deadline(REPORT_MAX_AGE) if REPORT_MAX_AGE > 0 else None
                    try:
                        with deadline_scope(bound):
                            host.probe()
                    except ConnectionError:  # dead, or a garbled report
                        self._m_probes_failed.inc()
                        watch.failed_at = time.monotonic()
                        continue
                versions = host.versions
                if versions != watch.seen:
                    if self._pull(host, versions):
                        watch.seen = versions
                    else:
                        watch.failed_at = time.monotonic()
            finally:
                watch.lock.release()

    def _pull(self, host, versions: Dict[str, int]) -> bool:
        """Sync every engine of ``host``'s report whose version differs
        from the held one; True iff none failed."""
        caught_up = True
        for name, version in versions.items():
            engine = self._engines.get(name)
            if getattr(engine, "host", None) is not host:
                continue  # not an engine the broker holds from this host
            if self._rep_versions.get(name) == version:
                continue
            self._m_pulls.inc()
            try:
                self.sync_representative(engine)
            except (ConnectionError, ValueError):  # unreachable, garbled, refused
                self._m_pulls_failed.inc()
                caught_up = False
        return caught_up

    # -- estimation ------------------------------------------------------------------------

    def _name_rank(self, names: List[str]) -> np.ndarray:
        """:func:`~repro.metasearch.selection.rank_names` of ``names`` (a
        snapshot of the fleet's), recomputed only when the fleet has grown:
        its names are append-only, so their count identifies them."""
        rank = self._rank_of
        if rank.size != len(names):
            rank = self._rank_of = rank_names(names)
        return rank

    def _estimate_rows(
        self,
        queries: Sequence[Query],
        thresholds: Sequence[float],
        *,
        cached_only: bool = False,
    ) -> Optional[List[EstimateRow]]:
        """One best-first :class:`~repro.metasearch.selection.EstimateRow`
        per ``(query, threshold)`` — the only estimation routine; every
        public estimate/search entry point is a view of it.

        Queries sharing a normalized ``(terms, weights)`` identity form a
        group.  Per group, each distinct threshold's full engine row is
        read from the estimate cache in one ``get_row`` (one hit or miss
        counted per engine); the thresholds with at least one miss are
        answered by a single
        :func:`~repro.core.vectorized.fleet_usefulness_grid` call, whose
        ``(nodoc, avgsim)`` arrays fill exactly the missed slots (a row that
        missed completely takes them as they are) and go back in one
        ``put_row`` each.  Each row is then ranked by one ``np.lexsort``
        over ``(name rank, -avgsim, -nodoc)`` — ``sort_key``'s order — and
        no per-engine object is built.  So a batch both benefits from and
        warms what a single :meth:`estimate_all` would, and its rows are
        bit-identical to per-query calls.

        With ``cached_only`` nothing is ever computed: the rows are returned
        only when every needed entry is resident — checked with a
        non-counting ``peek_row`` first, so a failed probe leaves the
        hit/miss accounting untouched — and ``None`` otherwise.  Either way
        :meth:`catch_up` runs first, so no row is read from a
        representative it would have replaced.
        """
        self.catch_up()
        names = self.fleet.engine_names
        if cached_only and not names:
            return None
        groups: Dict[tuple, List[int]] = {}
        for i, query in enumerate(queries):
            groups.setdefault(EstimateCache.query_key(query), []).append(i)
        rows: List[EstimateRow] = [None] * len(queries)
        for query_key, members in groups.items():
            slots: Dict[float, list] = {}
            for t in dict.fromkeys(thresholds[i] for i in members):
                if cached_only and not self.cache.peek_row(query_key, t, names):
                    return None
                slots[t] = self.cache.get_row(query_key, t, names)
            missing = [t for t, row in slots.items() if None in row]
            if missing and cached_only:  # raced an eviction between peek and get
                return None
            values = {
                t: np.array(row, dtype=np.float64).reshape(-1, 2).T
                for t, row in slots.items()
                if t not in missing
            }
            if missing:
                # A row gathered before a write must not land after the
                # write's invalidation: read the generation first, and put
                # (under the writers' lock) only if no write finished since.
                generation = self._generation
                # An engine registered since ``names`` was read is past
                # its end: the grid's columns are cut to the snapshot.
                grid = [
                    a[:, : len(names)] for a in fleet_usefulness_grid(
                        self.estimator, self.fleet, queries[members[0]], missing
                    )
                ]
                puts = []
                for t, nodoc, avgsim in zip(missing, *grid):
                    cached = slots[t]
                    filled = names
                    fresh = list(zip(nodoc.tolist(), avgsim.tolist()))
                    if cached.count(None) < len(cached):  # hits keep theirs
                        holes = [e for e, value in enumerate(cached) if value is None]
                        for e, value in enumerate(cached):
                            if value is not None:
                                nodoc[e], avgsim[e] = value
                        filled = [names[e] for e in holes]
                        fresh = [fresh[e] for e in holes]
                    puts.append((t, filled, fresh))
                    values[t] = nodoc, avgsim
                with self._write_lock:
                    if self._generation == generation:
                        for t, filled, fresh in puts:
                            self.cache.put_row(query_key, t, filled, fresh)
            rank = self._name_rank(names)
            ranked = {
                t: EstimateRow.ranked(names, nodoc, avgsim, rank)
                for t, (nodoc, avgsim) in values.items()
            }
            for i in members:
                rows[i] = ranked[thresholds[i]]
        return rows

    def rows(self, queries: List[Query], thresholds: List[float]) -> tuple:
        """The estimate step; a resident representative cannot fail."""
        return self._estimate_rows(queries, thresholds), []

    def estimate_all_cached(
        self, query: Query, threshold: float
    ) -> Optional[EstimateRow]:
        """:meth:`estimate_all`'s answer iff it is fully cached, else None.

        Never computes anything: the row is returned only when *every*
        registered engine's ``(engine, query, threshold)`` estimate is
        already resident, in which case it is exactly what
        :meth:`estimate_all` would return (same cache reads, same sort).
        The coalescing layer uses this as its pre-window probe so repeat
        queries keep the serial path's 100% hit behavior — including its
        hit accounting: a full-row probe counts one hit per engine, and a
        failed probe counts nothing (it peeks without touching stats).
        """
        rows = self._estimate_rows(
            [query], [float(threshold)], cached_only=True
        )
        return rows[0] if rows else None

    # -- search ------------------------------------------------------------------------------

    def reports(
        self, queries: List[Query], thresholds: List[float], invoked_lists: list
    ) -> List[DispatchReport]:
        """The dispatch step, under a *single* batch deadline
        (``dispatch_many``): a plain call per in-process engine and query,
        and one ``host.dispatch(asks)`` per engine host for all its invoked
        engines (a ``(query, threshold, names)`` ask per query, answered by
        a report each); a failed host call fails each engine asked of it."""
        batches: List[dict] = [{} for __ in queries]
        asked: Dict[object, Dict[int, List[str]]] = {}  # host -> {query: names}
        for i, (query, threshold, invoked) in enumerate(
            zip(queries, thresholds, invoked_lists)
        ):
            for name in invoked:
                engine = self._engines[name]
                host = getattr(engine, "host", None)
                if host is None:
                    batches[i][name] = functools.partial(
                        engine.search, query, threshold
                    )
                else:
                    asked.setdefault(host, {}).setdefault(i, []).append(name)
        if not asked:
            return self.dispatcher.dispatch_many(batches)
        self._m_host_fanouts.inc()
        self._m_host_rpcs.inc(len(asked))
        self._m_host_queries.observe(len(queries))
        *reports, scatter = self.dispatcher.dispatch_many([*batches, {
            host.name: host.dispatch(
                [(queries[i], thresholds[i], names) for i, names in asks.items()]
            )
            for host, asks in asked.items()
        }])
        for host, asks in asked.items():
            parts = scatter.results.get(host.name)
            if parts is None:
                self._m_host_failures.inc()
                [failure] = [f for f in scatter.failures if f.engine == host.name]
                message = f"{host.name}: {failure.message}"
                parts = [
                    DispatchReport(
                        failures=[
                            replace(failure, engine=name, message=message)
                            for name in names
                        ],
                        latencies=dict.fromkeys(names, failure.elapsed),
                    )
                    for names in asks.values()
                ]
            for i, part in zip(asks, parts):
                reports[i].results.update(part.results)
                reports[i].failures.extend(part.failures)
                reports[i].latencies.update(part.latencies)
        return [  # in invoked order
            DispatchReport(
                results={n: r.results[n] for n in invoked if n in r.results},
                failures=sorted(r.failures, key=lambda f: invoked.index(f.engine)),
                latencies={n: r.latencies[n] for n in invoked if n in r.latencies},
            )
            for r, invoked in zip(reports, invoked_lists)
        ]

    def _dispatch_one(
        self,
        invoked: List[str],
        query: Query,
        threshold: float,
        limit: Optional[int],
        estimates: Sequence[EstimatedUsefulness],
        trace: QueryTrace,
        started: float,
    ) -> MetasearchResponse:
        with trace.span("dispatch", engines=len(invoked)) as span:
            [report] = self.reports([query], [threshold], [invoked])
            span.metadata["failures"] = len(report.failures)
        self._stage_seconds("dispatch").observe(span.duration)
        response = self._respond(invoked, estimates, report, limit, trace)
        self._m_search_seconds.observe(time.perf_counter() - started)
        return response

    def search(
        self,
        query: Query,
        threshold: float,
        limit: Optional[int] = None,
    ) -> MetasearchResponse:
        """Estimate, select, dispatch, merge — with a trace of each stage.
        The solo path (``estimate_all`` + :meth:`reports`, with an
        aggregate ``dispatch`` span) instead of the inherited batch of one."""
        started = time.perf_counter()
        trace = QueryTrace()
        with trace.span("estimate", engines=len(self._engines)) as span:
            estimates = self.estimate_all(query, threshold)
        self._stage_seconds("estimate").observe(span.duration)
        invoked = self._select(estimates, trace)
        return self._dispatch_one(
            invoked, query, threshold, limit, estimates, trace, started
        )

    def search_all(
        self,
        query: Query,
        threshold: float,
        limit: Optional[int] = None,
    ) -> MetasearchResponse:
        """Broadcast baseline: query every engine regardless of estimates."""
        return self._dispatch_one(
            self.engine_names, query, threshold, limit, [], QueryTrace(),
            time.perf_counter(),
        )

    def true_selection(self, query: Query, threshold: float) -> List[str]:
        """Oracle: engines that *actually* hold a document above threshold
        (by exhaustive search) — the reference for selection accuracy."""
        selected = []
        for name in self.engine_names:
            if self._engines[name].max_similarity(query) > threshold:
                selected.append(name)
        return selected

