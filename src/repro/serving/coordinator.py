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
asks no shard.  Only the *reports* step leaves the process: the local
broker's own dispatch step, over engines whose ``host`` is the shard that
serves them, so a round of queries costs one ``/dispatch`` RPC per shard
owning an invoked engine — the same path a gateway takes over engine
servers.

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

A dead shard behaves like a dead engine server behind a gateway: its
engines keep their (local) estimates and may be selected; each invoked one
fails at dispatch with one :class:`~repro.metasearch.dispatch.EngineFailure`
naming the shard, while the other engines answer as usual.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import List, Optional, Sequence
from urllib.parse import quote

from repro.core.base import UsefulnessEstimator
from repro.corpus.query import Query
from repro.fleet.delta import RepresentativeDelta
from repro.metasearch.broker import MetasearchBroker, SearchPipeline
from repro.metasearch.dispatch import DispatchReport

# Kept only for bench/'s trace_replica, which wraps
# repro.serving.coordinator.merge_hits by module attribute.
from repro.metasearch.merge import merge_hits  # noqa: F401
from repro.metasearch.selection import EstimateRow, SelectionPolicy
from repro.serving.gateway import GatewayApp
from repro.serving.remote_engine import (
    EngineHost,
    HostedEngine,
    RemoteServingError,
    _HTTPJsonClient,
)
from repro.serving.wire import _expect_kind

__all__ = ["CoordinatorApp", "ShardedFleet"]


class _ShardHandle(EngineHost):
    """One attached shard: the engine host, the engines it owns, and the
    lock that keeps a forwarded delta and its local apply one step."""

    def __init__(self, index: int, client: _HTTPJsonClient):
        super().__init__(f"shard {index} at {client.base_url}", client)
        self.engines: List[str] = []
        self.index = index
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


class _CoordinatorBroker(MetasearchBroker):
    """The local broker: ``coordinator.scatter.*``, ``.shard.failures``."""

    series_prefix = "coordinator"
    host_series = "shard"


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
            local broker's cache, estimator, delta and dispatch series land
            here too.
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
        # Both steps: the representatives read off the shards at attach,
        # and the dispatch to them.  Its shard calls are split, which use
        # no thread; ``workers`` > 1 only because a ``timeout`` needs it.
        self.local = _CoordinatorBroker(
            estimator,
            workers=max(2, len(shard_urls)),
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            registry=self.registry,
        )
        self.dispatcher = self.local.dispatcher
        self._shards = [
            _ShardHandle(i, _HTTPJsonClient(url, timeout=shard_timeout))
            for i, url in enumerate(shard_urls)
        ]

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
            shard.name = f"shard {shard.index} at {shard.url}"
            for delta in deltas:
                self._install(HostedEngine(delta.name, shard), delta)
        return self

    def _install(self, engine: HostedEngine, delta: RepresentativeDelta) -> None:
        """Hold ``delta``, a full delta read off the engine's shard, at the
        version the shard records (none when it records none)."""
        self.local.register(
            engine, delta.as_representative(), version=delta.to_version or None
        )

    def _resync(self, name: str) -> None:
        """Re-read ``name``'s full delta off its shard and hold it, unless
        the shard records the version already held."""
        engine = self.local.engine_of(name)
        delta = engine.host.representative(name)
        held = self.local.representative_version(name)
        if held is None or held != delta.to_version:
            self._install(engine, delta)
        engine.host.stale.discard(name)

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
        are no dispatch threads to retire: a fan-out of split calls starts
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
        shard = self.local.engine_of(delta.name).host
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

    # -- step 2: dispatch ------------------------------------------------------

    def reports(
        self,
        queries: List[Query],
        thresholds: List[float],
        invoked_lists: List[List[str]],
    ) -> List[DispatchReport]:
        """The local broker's dispatch step: one ``/dispatch`` per shard
        owning an invoked engine."""
        return self.local.reports(queries, thresholds, invoked_lists)

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

    @property
    def fleet(self) -> ShardedFleet:
        return self.broker

    def health_info(self) -> dict:
        info = super().health_info()
        info["shards"] = self.fleet.shards_info()
        return info
