"""Concurrent fan-out to search engines.

The broker in the paper is a thin routing layer over many autonomous
engines; in a real deployment those engines answer over a network and can
be slow, flaky, or down entirely.  This module gives the broker a
production dispatch path:

* **Fan-out** — selected engines are queried together: remote engines
  by writing every request before reading any reply, so the servers work
  in parallel; in-process ones one after another on the caller's thread,
  unless the fan-out has a deadline to enforce (an in-process search holds
  the GIL over a few small NumPy operations, so a thread per call buys no
  overlap, only a hand-off; a plain call that *waits* instead overlaps
  others only under a deadline).
* **Timeout** — each dispatch has a deadline of ``timeout`` seconds
  measured from fan-out start; an engine that has not answered by then is
  abandoned and reported as a :class:`EngineFailure` of kind
  ``"timeout"``.  The overall dispatch therefore returns within roughly
  ``timeout`` seconds no matter how many engines hang.
* **Retry** — an engine call that *raises* is retried up to ``retries``
  extra times with jittered exponential backoff (uniform in
  ``[base/2, base]`` for ``base = backoff * 2**attempt`` seconds, so
  concurrent retries against one struggling backend do not synchronize).
  Retries count against the same deadline: the backoff sleep is clamped
  to whatever remains of the fan-out deadline and of any ambient
  request deadline (:func:`repro.metasearch.deadlines.deadline_scope`),
  and when the budget is already spent the retry is skipped entirely — the
  last exception is surfaced instead of sleeping into a lost cause.  An
  exception whose ``retryable`` attribute is false is never retried
  (serving-layer clients use this to fail fast on exhausted deadlines),
  and its ``failure_kind`` attribute, when present, overrides the
  default ``"error"`` failure kind.  A timed out call is *not* retried:
  the request is still in flight, and issuing another would double the
  load on an already-struggling backend.
* **Graceful degradation** — a failed engine contributes an empty result
  list plus a structured failure record; healthy engines' results are
  unaffected.  The query never sinks with one bad backend.

There is one execution core: every call runs the same worker body
(:meth:`ConcurrentDispatcher._outcome` — the retry loop, answering an
outcome record instead of raising) and one loop in
:meth:`~ConcurrentDispatcher.dispatch_many` turns outcomes into reports,
failure records and metrics; :meth:`~ConcurrentDispatcher.dispatch` is a
batch of one.  The calls and ``timeout`` select only *where* the worker
body runs, one of two places:

* **The caller's thread:** every fan-out without a ``timeout`` (whatever
  ``workers`` is), and one made only of split calls.  A :class:`SplitCall`
  is a remote call in two halves: ``send()`` writes the request and
  returns the reply half, a call that reads the reply and a waitable on
  its socket.  The caller's thread sends every split call's request in
  order; then runs every plain call, in order, inside its own context
  (so a call observes the request's ambient deadline); then waits on all
  the sockets at once (``poll``) and reads each reply as it arrives.  A
  split call's retry is sent again when its backoff is over, in the same
  loop; a plain call's retries run back to back.  The servers work in
  parallel anyway — they are other processes, and already hold their
  requests while the plain calls run — so a fan-out thread would only
  add a hand-off per call, and reading in arrival order keeps what a
  thread per call gave: a server that never answers holds up no other,
  and each call's latency is its own (but for a reply that arrives while
  the plain calls run: it is read, and timed, after them).  ``timeout``
  bounds the wait and every read (each runs inside an ambient deadline,
  :func:`repro.metasearch.deadlines.deadline_scope`, at the fan-out
  deadline); a call with no outcome by the deadline is given up and
  recorded as an abandoned pooled call is.  A deadline cannot preempt a
  plain call on this thread, which is why a fan-out with a ``timeout``
  and a plain call goes to the pool instead, and why ``timeout`` with
  ``workers=1`` is rejected at construction rather than silently ignored.
* **Pooled threads:** a fan-out with a ``timeout`` and a plain call.  On
  up to ``min(workers, calls)`` threads taken from the dispatcher's cache
  of idle daemon threads (new ones are started when too few are idle),
  each call inside a copy of the caller's :mod:`contextvars` context, so a
  call observes the request's ambient state (its deadline) on either
  path — which, with identical results, the property suite asserts.  The
  pool exists to abandon a call that misses the deadline: a thread still
  running one is simply not idle, so it never delays a later fan-out.  A
  thread goes back to the cache when its fan-out has nothing left for it.
  Idle threads retire after :data:`IDLE_SECONDS`, on
  :meth:`ConcurrentDispatcher.close`, or when the dispatcher is garbage
  collected; a forked child starts with an empty cache.  A fan-out here
  runs its split calls as plain ones.

Dispatch is instrumented: pass a :class:`~repro.obs.MetricsRegistry` to
record attempts, retries, timeouts, errors, and a per-engine latency
histogram; the default :class:`~repro.obs.NullRegistry` makes every hook a
no-op.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import os
import queue
import random
import selectors
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.results import SearchHit
from repro.metasearch.deadlines import Deadline, ambient_deadline, deadline_scope
from repro.obs.registry import LATENCY_BUCKETS, NULL_REGISTRY

__all__ = ["ConcurrentDispatcher", "DispatchReport", "EngineFailure", "SplitCall"]

#: A zero-argument callable performing one engine search.
EngineCall = Callable[[], List[SearchHit]]


class SplitCall:
    """An engine call in two halves, for a remote engine: ``send()``
    writes the request and returns the reply half.  Calling the object
    runs both halves.

    The reply half is a zero-argument call that reads (and decodes) the
    reply, and a waitable: ``fileno()`` is the socket the reply arrives
    on, ``remaining()`` the seconds left of its own budget (``None`` for
    none), and ``close()`` gives the reply up.  On the caller's thread
    every request is written before any reply is read, and each reply is
    read as it arrives, so the servers work in parallel without a fan-out
    thread (see the module docstring).
    """

    __slots__ = ("send",)

    def __init__(self, send: Callable[[], EngineCall]):
        self.send = send

    def __call__(self) -> List[SearchHit]:
        return self.send()()


#: What a fan-out of split calls waits on: ``poll(2)`` where there is one
#: (no descriptor of its own to open per fan-out, unlike epoll).
_Selector = getattr(selectors, "PollSelector", selectors.SelectSelector)

#: Seconds a cached fan-out thread waits idle for its next task before it
#: retires (the idle expiry of a cached thread pool).
IDLE_SECONDS = 60.0


@dataclass(frozen=True)
class EngineFailure:
    """One engine's failure to answer a dispatched query.

    Attributes:
        engine: Name of the failing engine.
        kind: ``"timeout"`` (deadline passed, call abandoned) or
            ``"error"`` (every attempt raised).
        attempts: Number of attempts made (0 for a timeout that was
            abandoned before its outcome was observed).
        elapsed: Seconds spent on this engine before giving up.
        message: The final exception rendered as ``ExcType: text``, or a
            timeout description.
    """

    engine: str
    kind: str
    attempts: int
    elapsed: float
    message: str

    def __str__(self) -> str:
        return (
            f"{self.engine}: {self.kind} after {self.attempts} attempt(s) "
            f"in {self.elapsed:.3f}s ({self.message})"
        )


@dataclass
class DispatchReport:
    """Outcome of one fan-out.

    Attributes:
        results: Hits per engine that answered, keyed by engine name.
            Failed engines are absent (their result list is empty by the
            degradation contract).
        failures: One record per engine that timed out or errored.
        latencies: Wall-clock seconds per engine, successes and failures
            alike (for a timeout, the time until abandonment).
    """

    results: Dict[str, List[SearchHit]] = field(default_factory=dict)
    failures: List[EngineFailure] = field(default_factory=list)
    latencies: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every dispatched engine answered."""
        return not self.failures

    def result_lists(self) -> List[List[SearchHit]]:
        """Per-engine hit lists in dispatch order, ready for merging."""
        return list(self.results.values())


#: The execution core keys every call ``(batch index, engine name)``, so
#: several batches can share one fan-out and one deadline.
_Key = Tuple[int, str]

#: What one call came to: ``(hits, elapsed seconds)``, or its failure.
_Outcome = Union[Tuple[List[SearchHit], float], EngineFailure]


class _ThreadCache:
    """Idle daemon threads kept for the next fan-out.

    :meth:`run` hands a task to the most recently idled thread (so the
    threads a steady load keeps busy are the ones whose connections stay
    warm), or to a new thread when none is idle.  A task receives
    ``park``, which puts its thread back in the cache; the task calls it
    before it signals its last result, so a back-to-back fan-out finds the
    thread idle.  The cache is keyed on the pid: a forked child inherits
    the list but not the threads, so it starts again from an empty one.
    """

    def __init__(self):
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._idle: List[queue.SimpleQueue] = []
        self._closed = False

    def run(self, task: Callable[[Callable[[], None]], None]) -> None:
        """Run ``task(park)`` on an idle thread or a new one."""
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._lock = threading.Lock()
            self._idle = []
        with self._lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(
                target=self._serve, args=(inbox,), name="repro-dispatch",
                daemon=True,
            ).start()
        inbox.put(task)

    def _serve(self, inbox: queue.SimpleQueue) -> None:
        park = functools.partial(self._park, inbox)
        while True:
            try:
                task = inbox.get(timeout=IDLE_SECONDS)
            except queue.Empty:
                with self._lock:
                    if inbox not in self._idle:
                        continue  # handed a task while the wait timed out
                    self._idle.remove(inbox)
                return
            if task is None:
                return
            task(park)
            del task  # an idle thread keeps no fan-out (or dispatcher) alive

    def _park(self, inbox: queue.SimpleQueue) -> None:
        with self._lock:
            if self._closed:
                inbox.put(None)  # retire once the running task returns
            else:
                self._idle.append(inbox)

    def close(self) -> None:
        """Retire every idle thread now and every busy one when its task
        ends; :meth:`run` still works, on threads that are not kept."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)


class ConcurrentDispatcher:
    """Queries engines in parallel with timeout, retry, and degradation.

    A fan-out runs on the caller's thread unless it has a deadline to
    enforce over a plain call; that one runs on fan-out threads from a
    cache of idle daemon threads that outlives each fan-out (see the
    module docstring); :meth:`close` retires them.

    Args:
        workers: Maximum concurrent plain engine calls of a fan-out with
            a ``timeout`` (its pooled threads); a fan-out without one
            runs on the caller's thread whatever ``workers`` is.
        timeout: Deadline in seconds for the whole fan-out, measured from
            dispatch start; ``None`` disables it.  A deadline cannot
            preempt a plain call on the caller's thread, so ``timeout``
            with ``workers=1`` raises :class:`ValueError` instead of
            silently never firing.
        retries: Extra attempts after a raised engine call (a timed out
            call is never retried).
        backoff: Base sleep before retry ``i``: uniform jitter in
            ``[base/2, base]`` for ``base = backoff * 2**(i-1)`` seconds,
            clamped to the remaining fan-out/ambient deadline (the retry
            is skipped outright once that budget is spent); set 0 for
            immediate retries in tests.
        registry: Metrics sink for attempts/retries/timeouts/errors and the
            per-engine latency histogram; the shared no-op registry by
            default.
    """

    def __init__(
        self,
        workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
        registry=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        if timeout is not None and workers == 1:
            raise ValueError(
                "timeout requires workers > 1: workers=1 runs engine "
                "calls in the caller's thread, where a deadline cannot be "
                "enforced"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries!r}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff!r}")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._m_dispatches = self.registry.counter("dispatch.fanouts")
        self._m_attempts = self.registry.counter("dispatch.attempts")
        self._m_retries = self.registry.counter("dispatch.retries")
        self._m_timeouts = self.registry.counter("dispatch.timeouts")
        self._m_errors = self.registry.counter("dispatch.errors")
        self._threads = _ThreadCache()
        weakref.finalize(self, self._threads.close)

    # -- single-engine attempt loop ------------------------------------------------

    def _retry_budget(self, expires_at: Optional[float]) -> Optional[float]:
        """Seconds of sleep available before the tightest deadline —
        the fan-out deadline (``expires_at``, on the ``perf_counter``
        clock) or the ambient serving-request deadline — or ``None``
        when neither applies."""
        budget: Optional[float] = None
        if expires_at is not None:
            budget = expires_at - time.perf_counter()
        ambient = ambient_deadline()
        if ambient is not None:
            remaining = ambient.remaining()
            budget = remaining if budget is None else min(budget, remaining)
        return budget

    def _retry_pause(
        self, exc: Exception, attempts: int, expires_at: Optional[float]
    ) -> Optional[float]:
        """After attempt number ``attempts`` raised ``exc``: the seconds
        to wait before the next attempt, or ``None`` when the call has
        failed — no retry left, an error marked not ``retryable``, or the
        budget spent (a retry could never answer in time, so don't sleep
        into it).  The wait is jittered and clamped to the budget."""
        if attempts > self.retries or not getattr(exc, "retryable", True):
            return None
        if not self.backoff:
            return 0.0
        budget = self._retry_budget(expires_at)
        if budget is not None and budget <= 0:
            return None
        base = self.backoff * (2 ** (attempts - 1))
        sleep = base * (0.5 + 0.5 * random.random())
        return sleep if budget is None else min(sleep, budget)

    def _call_with_retry(
        self, name: str, call: EngineCall, expires_at: Optional[float] = None
    ):
        """Run one engine call with bounded retry; returns
        ``(hits, attempts, elapsed)`` or raises the final exception with
        ``.attempts`` / ``.elapsed`` bookkeeping attached.

        ``expires_at`` is the fan-out deadline on the ``perf_counter``
        clock (``None`` when the dispatcher has no timeout).  Backoff
        sleeps are jittered and clamped to the remaining budget; once the
        budget is spent the attempt loop stops retrying and surfaces the
        last exception immediately.
        """
        start = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            self._m_attempts.inc()
            try:
                hits = call()
                return hits, attempts, time.perf_counter() - start
            except Exception as exc:
                pause = self._retry_pause(exc, attempts, expires_at)
                if pause is None:
                    exc._dispatch_attempts = attempts
                    exc._dispatch_elapsed = time.perf_counter() - start
                    raise
                if pause > 0:
                    time.sleep(pause)
                self._m_retries.inc()

    def _outcome(
        self, name: str, call: EngineCall, expires_at: Optional[float] = None
    ) -> _Outcome:
        """The worker body of plain calls, wherever it runs: ``call``
        under the retry policy, answered as an outcome record — ``(hits,
        elapsed)``, or the :class:`EngineFailure` when every attempt
        raised.  Never raises: a failed engine degrades the fan-out, it
        does not sink it."""
        try:
            hits, __, elapsed = self._call_with_retry(name, call, expires_at)
            return hits, elapsed
        except Exception as exc:
            return self._failure(
                name, exc,
                getattr(exc, "_dispatch_attempts", 1),
                getattr(exc, "_dispatch_elapsed", 0.0),
            )

    @staticmethod
    def _failure(
        name: str, exc: Exception, attempts: int, elapsed: float
    ) -> EngineFailure:
        # Exceptions may carry a ``failure_kind`` (e.g. the serving layer
        # marks an exhausted-deadline fail-fast as a "timeout" rather than
        # a generic "error").
        return EngineFailure(
            engine=name,
            kind=getattr(exc, "failure_kind", "error"),
            attempts=attempts,
            elapsed=elapsed,
            message=f"{type(exc).__name__}: {exc}",
        )

    # -- fan-out --------------------------------------------------------------------

    def _pooled(self, calls: Dict[_Key, EngineCall]) -> tuple:
        """Run the worker body for every call on up to ``min(workers,
        len(calls))`` cached threads, under the ``timeout`` deadline (there
        is one: it is what the threads are for); returns ``(outcomes,
        waited)``.  A call abandoned at the deadline (or never started
        before it) has no outcome; ``waited`` is the seconds the fan-out
        waited for it."""
        start = time.perf_counter()
        expires_at = start + self.timeout
        # Each call runs in a copy of *this* thread's context, so it
        # observes the caller's ambient state (the request deadline)
        # exactly as an inline call would.  One copy per call: a Context
        # cannot be entered by two threads at once.
        pending = collections.deque(
            (key, contextvars.copy_context(), call) for key, call in calls.items()
        )
        outcomes: Dict[_Key, _Outcome] = {}
        settled = threading.Condition()
        abandoned = False

        def drain(park: Callable[[], None]) -> None:
            # Take calls until none is left or the fan-out stopped waiting
            # (a call not yet started by then never starts).  Outcomes are
            # recorded under the lock, so a late finisher that already
            # missed the deadline cannot race the snapshot below.
            finished = None
            while True:
                with settled:
                    item = pending.popleft() if pending and not abandoned else None
                    if item is None:
                        park()  # idle again before the fan-out can return
                    if finished is not None:
                        outcomes[finished[0]] = finished[1]
                        if len(outcomes) == len(calls):
                            settled.notify()
                    if item is None:
                        return
                key, context, call = item
                finished = key, context.run(self._outcome, key[1], call, expires_at)

        for __ in range(min(self.workers, len(calls))):
            self._threads.run(drain)
        with settled:
            while len(outcomes) < len(calls):
                remaining = expires_at - time.perf_counter()
                if remaining <= 0:
                    break
                settled.wait(remaining)
            abandoned = True
            return dict(outcomes), time.perf_counter() - start

    def _inline(self, calls: Dict[_Key, EngineCall]) -> tuple:
        """Run the fan-out on this thread; returns ``(outcomes, waited)``
        as :meth:`_pooled` does.

        Every split call's request is sent, in order; then every plain
        call runs, in order, through the worker body; then each split
        reply is read as its socket turns readable (replies that arrive
        together are read in call order), so a server that never answers
        holds up no other.  A failed split attempt is retried under the
        same policy as a plain call, its next request sent when its
        backoff is over, again without holding up the others.  A read
        runs inside an ambient deadline at the ``timeout`` deadline,
        entered around the read only (a request's ``X-Repro-Deadline`` is
        what it would be on a thread).  A split call with no outcome by
        the deadline is abandoned — its reply given up — and has none,
        exactly as a pooled call abandoned at the deadline has none.
        Plain calls come here only without a deadline."""
        start = time.perf_counter()
        expires_at = None if self.timeout is None else start + self.timeout
        deadline = None if self.timeout is None else Deadline(self.timeout)
        split = [key for key, call in calls.items() if isinstance(call, SplitCall)]
        order = {key: i for i, key in enumerate(split)}
        attempts = dict.fromkeys(split, 0)
        started: Dict[_Key, float] = {}
        waiting: Dict[_Key, EngineCall] = {}  # reply halves not yet read
        unwatched = set()  # ... that the selector could not take
        due: Dict[_Key, float] = {}  # retries: when to send again
        outcomes: Dict[_Key, _Outcome] = {}
        selector = _Selector()

        def settle(key: _Key, outcome: _Outcome) -> None:
            if expires_at is None or time.perf_counter() < expires_at:
                outcomes[key] = outcome

        def failed(key: _Key, exc: Exception) -> None:
            pause = self._retry_pause(exc, attempts[key], expires_at)
            if pause is None:
                elapsed = time.perf_counter() - started[key]
                settle(key, self._failure(key[1], exc, attempts[key], elapsed))
            else:
                due[key] = time.perf_counter() + pause

        def send(key: _Key) -> None:
            attempts[key] += 1
            self._m_attempts.inc()
            try:
                reply = waiting[key] = calls[key].send()
            except Exception as exc:
                failed(key, exc)
                return
            try:
                selector.register(reply, selectors.EVENT_READ, key)
            except (ValueError, OSError):  # its socket is gone already
                unwatched.add(key)

        try:
            for key in split:
                started[key] = time.perf_counter()
                send(key)
            for key, call in calls.items():  # the plain calls, in order
                if key not in order:
                    outcomes[key] = self._outcome(key[1], call)
            while waiting or due:
                now = time.perf_counter()
                if expires_at is not None and now >= expires_at:
                    break
                for key in [key for key, when in due.items() if when <= now]:
                    del due[key]
                    self._m_retries.inc()
                    send(key)
                ready = self._arrived(selector, waiting, unwatched, due, expires_at)
                for key in sorted(ready, key=order.__getitem__):
                    reply = waiting.pop(key)
                    try:
                        with deadline_scope(deadline):
                            hits = reply()
                    except Exception as exc:
                        failed(key, exc)
                    else:
                        settle(key, (hits, time.perf_counter() - started[key]))
        finally:
            selector.close()
            for reply in waiting.values():
                reply.close()  # abandoned at the deadline
        return outcomes, time.perf_counter() - start

    @staticmethod
    def _arrived(selector, waiting, unwatched, due, expires_at) -> set:
        """The keys of the reply halves in ``waiting`` to read now, taken
        off the ``selector``: those whose socket turned readable, waited
        for until the first of the fan-out deadline (``expires_at``), a
        retry falling ``due`` and a reply's own budget running out.  A
        reply whose budget is spent, or whose socket the selector could
        not take (``unwatched``), is read at once, to fail as it will.
        Empty when the wait ended with nothing to read."""
        ready = set(unwatched)
        unwatched.clear()
        now = time.perf_counter()
        wakes = [*due.values()]
        if expires_at is not None:
            wakes.append(expires_at)
        for key, reply in waiting.items():
            left = reply.remaining()
            if left is not None and left <= 0:
                ready.add(key)
            elif left is not None:
                wakes.append(now + left)
        if not ready:
            timeout = None
            if wakes:
                timeout = max(min(wakes) - time.perf_counter(), 0.0)
            ready = {selected.data for selected, __ in selector.select(timeout)}
        for key in ready:
            try:
                selector.unregister(waiting[key])
            except (KeyError, ValueError):  # never registered
                pass
        return ready

    def close(self) -> None:
        """Retire the cached fan-out threads: idle ones now, busy ones when
        their call ends.  Later fan-outs still run, on threads not kept."""
        self._threads.close()

    def dispatch(self, calls: Mapping[str, EngineCall]) -> DispatchReport:
        """Run every engine call; never raises for an engine failure.

        Args:
            calls: Ordered mapping engine name -> zero-argument search
                call.  Result/latency dicts preserve this order for the
                engines that answered.
        """
        return self.dispatch_many([calls])[0]

    def dispatch_many(
        self, batches: Sequence[Mapping[str, EngineCall]]
    ) -> List[DispatchReport]:
        """Fan out several queries' engine calls as one dispatch.

        All calls across all batches share one fan-out and — unlike
        per-batch :meth:`dispatch` loops, where every batch gets a fresh
        ``timeout`` — a *single* deadline measured from the start of the
        whole fan-out.  Per-batch results are split back into one
        :class:`DispatchReport` per input batch, preserving each batch's
        call order; an engine may appear in any number of batches.

        On the caller's thread (see the module docstring), split calls
        are all sent, across batches, before any plain call runs and any
        reply is read; plain calls run in batch order.
        """
        self._m_dispatches.inc()
        calls: Dict[_Key, EngineCall] = {
            (index, name): call
            for index, batch in enumerate(batches)
            for name, call in batch.items()
        }
        if self.timeout is not None and not all(
            isinstance(call, SplitCall) for call in calls.values()
        ):
            outcomes, waited = self._pooled(calls)
        else:
            outcomes, waited = self._inline(calls)
        reports = [DispatchReport() for __ in batches]
        for key in calls:
            index, name = key
            outcome = outcomes.get(key)
            if outcome is None:
                outcome = EngineFailure(
                    engine=name,
                    kind="timeout",
                    attempts=0,
                    elapsed=waited,
                    message=f"no answer within {self.timeout}s deadline",
                )
            report = reports[index]
            if isinstance(outcome, EngineFailure):
                if outcome.kind == "timeout":
                    self._m_timeouts.inc()
                else:
                    self._m_errors.inc()
                report.failures.append(outcome)
                report.latencies[name] = outcome.elapsed
            else:
                report.results[name], report.latencies[name] = outcome
            self.registry.histogram(
                "dispatch.engine.seconds",
                buckets=LATENCY_BUCKETS,
                labels={"engine": name},
            ).observe(report.latencies[name])
        return reports

    def __repr__(self) -> str:
        return (
            f"ConcurrentDispatcher(workers={self.workers}, "
            f"timeout={self.timeout}, retries={self.retries})"
        )
