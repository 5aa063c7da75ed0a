"""The paper's broker over a sharded fleet.

In the paper, the metasearch engine keeps one small representative per
local engine and estimates usefulness from it locally; only the engines
it selects ever see the query.  :class:`ShardedFleet` is that broker with
its engines spread over N shard workers (:mod:`repro.serving.
shard_worker`), which are engine hosts like engine servers.  Its
:meth:`~ShardedFleet.attach` enters every engine into one local
:class:`~repro.metasearch.broker.MetasearchBroker` through that broker's
own ``sync_representative`` (``GET /representative?engine=<name>`` off
the owning shard).  From then on the *rows* step is that broker's own
estimate, which asks no shard, and the *reports* step is its dispatch
step: one ``/dispatch`` per shard owning an invoked engine per round.
Freshness is the same pull a gateway's is: every shard reply reports its
engines' versions, and the local broker's catch-up step re-reads an
engine whose version changed.

:class:`ShardedFleet` is a :class:`~repro.metasearch.broker.SearchPipeline`
backend, not a second pipeline, so :class:`CoordinatorApp` is the
ordinary :class:`~repro.serving.gateway.GatewayApp` pointed at it.  The
answers are **bit-exact** against an in-process broker over the same
representatives: a full delta is state-based, and ``merge_hits`` sorts
under a total key.  A dead shard behaves like a dead engine server: each
of its invoked engines fails at dispatch, naming the shard.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.core.base import UsefulnessEstimator
from repro.corpus.query import Query
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

__all__ = ["CoordinatorApp", "ShardedFleet"]


class _ShardHandle(EngineHost):
    """One attached shard: the engine host and the engines it owns."""

    def __init__(self, index: int, client: _HTTPJsonClient):
        super().__init__(f"shard {index} at {client.base_url}", client)
        self.engines: List[str] = []
        self.index = index


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
        owns, and enter each into the local broker through its
        ``sync_representative`` (the full delta, at the version the shard
        records).  Call it once; returns ``self``.

        Raises:
            RemoteServingError: A shard was not ready within ``timeout``,
                or refused or garbled a representative.
            ValueError: A shard answered another engine's representative
                than the one asked for, or two shards own one engine.
        """
        deadline = time.monotonic() + timeout
        for shard in self._shards:
            while True:
                try:
                    info = shard.probe()
                    shard.engines = [str(n) for n in info.get("engines", [])]
                    shard.index = int(info.get("shard", -1))
                except (RemoteServingError, TypeError, ValueError) as exc:
                    if time.monotonic() >= deadline:
                        raise RemoteServingError(
                            f"shard at {shard.url} not ready within "
                            f"{timeout}s: {exc}"
                        ) from exc
                    time.sleep(interval)
                    continue
                break
        for shard in self._shards:
            shard.name = f"shard {shard.index} at {shard.url}"
            for name in shard.engines:
                try:
                    self.local.sync_representative(HostedEngine(name, shard))
                except ValueError as exc:
                    raise ValueError(
                        f"shard at {shard.url}: {exc}; its /healthz "
                        f"reported {shard.engines}"
                    ) from exc
        return self

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
