"""Continuous micro-batching: coalesce concurrent requests into one batch.

The broker's batch entry points (:meth:`~repro.metasearch.broker.
MetasearchBroker.estimate_batch`, :meth:`~repro.metasearch.broker.
MetasearchBroker.search_batch`) and the coordinator's single-scatter
batches only pay off for clients that *pre-batch*.  A
:class:`CoalescingWindow` brings the same amortization to independent
concurrent requests — the request-coalescing shape inference servers use
to keep batched kernels fed:

* **Idle fast-path.**  A request arriving while nothing is queued and no
  batch is executing runs *immediately*, solo, on its own thread, inside
  its own ambient deadline scope.  A lone request is never delayed — the
  uncontended path is the per-request path plus one lock acquisition.
* **Window.**  Requests arriving while a batch is executing (or while
  others are queued) join a window.  The window flushes when the
  previous batch finishes (``drain``), when it reaches ``max_batch``
  (``full``), or when the *oldest* queued request has waited ``max_wait``
  seconds (``timer`` — a second batch may overlap a slow one, so added
  latency stays bounded by ``max_wait`` even under a straggler).
* **Leader election, no extra threads.**  There is no flusher thread:
  the flushing batch is executed by one of its own member threads (the
  first member to observe the flush condition), and every other member
  waits on a condition variable for its demultiplexed result.
* **Deadline correctness.**  A member whose deadline expires while
  queued gets :class:`CoalesceExpired` (the gateway's 504) immediately
  and is dropped from the batch without spending any batch work.  The
  batch itself executes under a *detached* deadline scope set to the
  **longest** remaining deadline among its live members — the ambient
  scope stack only ever tightens, so without detaching, the leader's own
  (possibly shortest) deadline would poison its batchmates.
* **Dedup.**  With a ``key`` function, members sharing a key within one
  window are collapsed into a single executed item whose result is
  fanned back out to all of them (the gateway keys estimate requests by
  normalized query identity + threshold, so identical concurrent
  queries cost one grid row).
* **Cache probe.**  With a ``probe`` function, a request that can be
  answered from cache returns instantly without joining any window,
  preserving the serial path's 100% repeat-hit behavior.

Demultiplexed results are bit-for-bit what the per-request path returns
because ``execute`` is handed the broker's own batch entry points, whose
rows are already proven equal to the serial calls (PR 3/5 differential
suites); the window adds scheduling, never arithmetic.

Metrics (all labeled ``window=<name>``): ``serving.coalesce.requests``,
``.cache_hits``, ``.deduped``, ``.expired``, ``.flush`` (labeled by
``reason``), ``.batch.occupancy`` histogram, ``.wait.seconds`` histogram.
"""

from __future__ import annotations

import time
from threading import Condition
from typing import Callable, List, Optional, Sequence

from repro.metasearch.deadlines import Deadline, detached_deadline_scope
from repro.obs.registry import LATENCY_BUCKETS, OCCUPANCY_BUCKETS, NULL_REGISTRY

__all__ = [
    "FLUSH_DRAIN",
    "FLUSH_FULL",
    "FLUSH_IDLE",
    "FLUSH_REASONS",
    "FLUSH_TIMER",
    "CoalesceClosed",
    "CoalesceExpired",
    "CoalescingWindow",
]

#: Flush reasons (the ``reason`` label on ``serving.coalesce.flush``).
FLUSH_IDLE = "idle"  # lone request, fast-path: a batch of one, zero wait
FLUSH_DRAIN = "drain"  # previous batch finished and picked up the queue
FLUSH_FULL = "full"  # the window reached max_batch
FLUSH_TIMER = "timer"  # the oldest queued request waited max_wait

FLUSH_REASONS = (FLUSH_IDLE, FLUSH_DRAIN, FLUSH_FULL, FLUSH_TIMER)


class CoalesceExpired(Exception):
    """The request's deadline ran out while queued in a window."""


class CoalesceClosed(Exception):
    """The window refused the request because the server is draining."""


class _Member:
    """One request waiting in (or leading) a window."""

    __slots__ = (
        "item", "deadline", "enqueued", "taken", "done", "result", "error"
    )

    def __init__(self, item, deadline: Optional[Deadline], enqueued: float):
        self.item = item
        self.deadline = deadline
        self.enqueued = enqueued
        self.taken = False  # claimed by a leader; no longer in the queue
        self.done = False
        self.result = None
        self.error: Optional[BaseException] = None


class CoalescingWindow:
    """Gather concurrent submissions into batched ``execute`` calls.

    Args:
        execute: ``execute(items) -> results`` returning exactly one
            result per item, in order.  Typically a broker batch entry
            point.  Must be thread-safe: a ``timer`` flush may overlap a
            still-running batch.
        max_wait: Seconds the oldest queued request may wait before the
            window flushes regardless of occupancy (> 0).
        max_batch: Flush as soon as this many requests are queued (>= 1).
        key: Optional ``key(item)``; members of one window sharing a key
            execute once and share the result object.
        probe: Optional ``probe(item)``; a non-``None`` return is the
            answer — the request never joins a window.
        registry: Metrics sink; the shared no-op registry by default.
        name: The ``window`` label on every metric this window emits.
    """

    def __init__(
        self,
        execute: Callable[[List], Sequence],
        *,
        max_wait: float,
        max_batch: int,
        key: Optional[Callable] = None,
        probe: Optional[Callable] = None,
        registry=None,
        name: str = "window",
    ):
        if max_wait <= 0:
            raise ValueError(f"max_wait must be > 0, got {max_wait!r}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        registry = registry if registry is not None else NULL_REGISTRY
        self.max_wait = max_wait
        self.max_batch = max_batch
        self.name = name
        self._execute = execute
        self._key = key
        self._probe = probe
        self._cond = Condition()
        self._queue: List[_Member] = []
        self._inflight = 0  # batches currently executing
        self._closed = False
        labels = {"window": name}
        self._m_requests = registry.counter(
            "serving.coalesce.requests", labels=labels
        )
        self._m_cache_hits = registry.counter(
            "serving.coalesce.cache_hits", labels=labels
        )
        self._m_deduped = registry.counter(
            "serving.coalesce.deduped", labels=labels
        )
        self._m_expired = registry.counter(
            "serving.coalesce.expired", labels=labels
        )
        self._m_flush = {
            reason: registry.counter(
                "serving.coalesce.flush",
                labels={"window": name, "reason": reason},
            )
            for reason in FLUSH_REASONS
        }
        self._m_occupancy = registry.histogram(
            "serving.coalesce.batch.occupancy",
            buckets=OCCUPANCY_BUCKETS,
            labels=labels,
        )
        self._m_wait = registry.histogram(
            "serving.coalesce.wait.seconds",
            buckets=LATENCY_BUCKETS,
            labels=labels,
        )

    # -- introspection -------------------------------------------------------

    @property
    def queued(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def __repr__(self) -> str:
        with self._cond:
            return (
                f"CoalescingWindow({self.name!r}, queued={len(self._queue)}, "
                f"inflight={self._inflight}, max_wait={self.max_wait}, "
                f"max_batch={self.max_batch})"
            )

    # -- drain ---------------------------------------------------------------

    def close(self) -> None:
        """Refuse new submissions; members already queued still flush."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- submission ----------------------------------------------------------

    def submit(self, item, deadline: Optional[Deadline] = None):
        """Answer ``item``, batching it with concurrent submissions.

        Blocks until the batch containing ``item`` has executed and
        returns ``item``'s demultiplexed result.  Exceptions raised by
        ``execute`` propagate to every member of the failing batch.

        Raises:
            CoalesceExpired: ``deadline`` ran out while queued.
            CoalesceClosed: the window is closed (server draining).
        """
        self._m_requests.inc()
        if self._probe is not None:
            hit = self._probe(item)
            if hit is not None:
                self._m_cache_hits.inc()
                return hit
        member = _Member(item, deadline, time.monotonic())
        with self._cond:
            if self._closed:
                raise CoalesceClosed(f"window {self.name!r} is draining")
            if self._inflight == 0 and not self._queue:
                # Idle fast-path: execute solo, immediately, on this
                # thread, inside the caller's own ambient deadline scope.
                self._inflight += 1
                batch, reason = [member], FLUSH_IDLE
            else:
                self._queue.append(member)
                self._cond.notify_all()
                batch, reason = self._wait_for_flush(member)
                if batch is None:
                    # Woken with our result (or error) already demuxed.
                    if member.error is not None:
                        raise member.error
                    return member.result
        return self._run_batch(batch, reason, member)

    def _wait_for_flush(self, member: _Member):
        """Wait (lock held) until ``member`` is done or leads a flush.

        Returns ``(batch, reason)`` when this thread must execute the
        batch (``member`` is in it), or ``(None, None)`` once the member
        was answered by another leader.
        """
        while True:
            if member.done:
                return None, None
            if (
                not member.taken
                and member.deadline is not None
                and member.deadline.expired
            ):
                # Expire in place: drop out of the queue without costing
                # the batch anything — batchmates are unaffected.  (Once
                # taken by a leader the member is out of the queue; its
                # own post-handler deadline check still yields the 504.)
                self._queue.remove(member)
                self._m_expired.inc()
                self._cond.notify_all()
                raise CoalesceExpired(
                    "deadline expired while queued for coalescing"
                )
            if not member.taken:
                flush = self._due_flush_locked()
                if flush is not None:
                    batch, reason = flush
                    if member in batch:
                        for taken in batch:
                            taken.taken = True
                        del self._queue[: len(batch)]
                        self._inflight += 1
                        self._cond.notify_all()
                        return batch, reason
                    # A flush is due but this member is beyond the head
                    # batch; a head member will take it — keep waiting.
            self._cond.wait(self._wait_timeout_locked(member))

    def _due_flush_locked(self):
        """The due head batch and its reason, or ``None``."""
        if not self._queue:
            return None
        if self._inflight == 0:
            reason = FLUSH_DRAIN
        elif len(self._queue) >= self.max_batch:
            reason = FLUSH_FULL
        elif time.monotonic() - self._queue[0].enqueued >= self.max_wait:
            reason = FLUSH_TIMER
        else:
            return None
        return self._queue[: self.max_batch], reason

    def _wait_timeout_locked(self, member: _Member) -> Optional[float]:
        """Sleep no longer than the next event that could involve us:
        the oldest queued member's timer, or our own deadline.  A taken
        member only needs the leader's completion notify."""
        if member.taken or not self._queue:
            return None
        now = time.monotonic()
        timeout = self._queue[0].enqueued + self.max_wait - now
        if member.deadline is not None:
            timeout = min(timeout, member.deadline.expires_at - now)
        return max(0.0, timeout)

    # -- batch execution (leader only, lock not held) ------------------------

    def _run_batch(self, batch: List[_Member], reason: str, leader: _Member):
        now = time.monotonic()
        live: List[_Member] = []
        for member in batch:
            self._m_wait.observe(now - member.enqueued)
            if member.deadline is not None and member.deadline.expired:
                member.error = CoalesceExpired(
                    "deadline expired while queued for coalescing"
                )
                self._m_expired.inc()
            else:
                live.append(member)
        self._m_flush[reason].inc()
        self._m_occupancy.observe(len(batch))
        try:
            if live:
                self._execute_live(live, reason)
        finally:
            with self._cond:
                self._inflight -= 1
                for member in batch:
                    member.done = True
                self._cond.notify_all()
        if leader.error is not None:
            raise leader.error
        return leader.result

    def _execute_live(self, live: List[_Member], reason: str) -> None:
        if self._key is not None:
            groups: dict = {}
            order: List[_Member] = []
            for member in live:
                k = self._key(member.item)
                bucket = groups.get(k)
                if bucket is None:
                    groups[k] = [member]
                    order.append(member)
                else:
                    bucket.append(member)
            self._m_deduped.inc(len(live) - len(order))
            fanout = [groups[self._key(member.item)] for member in order]
        else:
            order = live
            fanout = [[member] for member in live]
        try:
            if reason == FLUSH_IDLE:
                # Solo fast-path: the caller's own ambient scope already
                # holds exactly its deadline — identical to no coalescing.
                results = self._execute([m.item for m in order])
            else:
                with detached_deadline_scope(self._batch_deadline(live)):
                    results = self._execute([m.item for m in order])
            if len(results) != len(order):
                raise RuntimeError(
                    f"coalesced execute returned {len(results)} results "
                    f"for {len(order)} items"
                )
        except BaseException as exc:
            for member in live:
                member.error = exc
        else:
            for members, result in zip(fanout, results):
                for member in members:
                    member.result = result

    @staticmethod
    def _batch_deadline(live: List[_Member]) -> Optional[Deadline]:
        """The *loosest* member deadline — ambient scopes only tighten,
        so the batch must run under the longest remaining budget and let
        each member's own post-handler check enforce its tighter one."""
        deadline = None
        for member in live:
            if member.deadline is None:
                return None
            if deadline is None or member.deadline.expires_at > deadline.expires_at:
                deadline = member.deadline
        return deadline
