"""Concurrent fan-out to local search engines.

The broker in the paper is a thin routing layer over many autonomous
engines; in a real deployment those engines answer over a network and can
be slow, flaky, or down entirely.  This module gives the broker a
production dispatch path:

* **Fan-out** — selected engines are queried in parallel on a
  :class:`~concurrent.futures.ThreadPoolExecutor` (``workers`` threads).
  Engine calls are dominated by I/O wait in a networked deployment (and
  by NumPy kernels, which release the GIL, in-process), so threads give
  real overlap.
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
batch of one.  ``workers`` selects only *where* the worker body runs.
``workers=1`` runs it inline — the caller's thread, selection order, no
executor; a deadline cannot preempt an in-thread call, so ``timeout``
together with ``workers=1`` is rejected at construction rather than
silently ignored.  ``workers > 1`` submits it to a pool created for the
fan-out and abandoned after it (worker threads are never reused), each call
inside a copy of the caller's :mod:`contextvars` context, so a call
observes the request's ambient state (its deadline) on either path — which,
with identical results for healthy engines, the property suite asserts.

Dispatch is instrumented: pass a :class:`~repro.obs.MetricsRegistry` to
record attempts, retries, timeouts, errors, and a per-engine latency
histogram; the default :class:`~repro.obs.NullRegistry` makes every hook a
no-op.
"""

from __future__ import annotations

import contextvars
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.results import SearchHit
from repro.metasearch.deadlines import ambient_deadline
from repro.obs.registry import LATENCY_BUCKETS, NULL_REGISTRY

__all__ = ["ConcurrentDispatcher", "DispatchReport", "EngineFailure"]

#: A zero-argument callable performing one engine search.
EngineCall = Callable[[], List[SearchHit]]


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


class ConcurrentDispatcher:
    """Queries engines in parallel with timeout, retry, and degradation.

    Args:
        workers: Maximum concurrent engine calls; ``1`` runs them inline
            in the caller's thread (no executor).
        timeout: Deadline in seconds for the whole fan-out, measured from
            dispatch start; ``None`` disables it.  A deadline is only
            enforceable on pool threads, so ``timeout`` with
            ``workers=1`` raises :class:`ValueError` instead of silently
            never firing.
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
                if attempts > self.retries or not getattr(exc, "retryable", True):
                    exc._dispatch_attempts = attempts
                    exc._dispatch_elapsed = time.perf_counter() - start
                    raise
                if self.backoff:
                    budget = self._retry_budget(expires_at)
                    if budget is not None and budget <= 0:
                        # Deadline already spent: a retry could never
                        # answer in time, so don't sleep into it.
                        exc._dispatch_attempts = attempts
                        exc._dispatch_elapsed = time.perf_counter() - start
                        raise
                    base = self.backoff * (2 ** (attempts - 1))
                    sleep = base * (0.5 + 0.5 * random.random())
                    if budget is not None:
                        sleep = min(sleep, budget)
                    if sleep > 0:
                        time.sleep(sleep)
                self._m_retries.inc()

    def _outcome(
        self, name: str, call: EngineCall, expires_at: Optional[float] = None
    ) -> _Outcome:
        """The one worker body, wherever it runs: ``call`` under the retry
        policy, answered as an outcome record — ``(hits, elapsed)``, or the
        :class:`EngineFailure` when every attempt raised.  Never raises:
        a failed engine degrades the fan-out, it does not sink it."""
        try:
            hits, __, elapsed = self._call_with_retry(name, call, expires_at)
            return hits, elapsed
        except Exception as exc:
            # Exceptions may carry a ``failure_kind`` (e.g. the serving
            # layer marks an exhausted-deadline fail-fast as a "timeout"
            # rather than a generic "error").
            return EngineFailure(
                engine=name,
                kind=getattr(exc, "failure_kind", "error"),
                attempts=getattr(exc, "_dispatch_attempts", 1),
                elapsed=getattr(exc, "_dispatch_elapsed", 0.0),
                message=f"{type(exc).__name__}: {exc}",
            )

    # -- fan-out --------------------------------------------------------------------

    def _pooled(self, calls: Dict[_Key, EngineCall]) -> tuple:
        """Run the worker body for every call on a pool created for this
        fan-out, under the ``timeout`` deadline; returns ``(outcomes,
        waited)``.  A call abandoned at the deadline (or cancelled before
        it started) has no outcome, only the seconds waited for it."""
        start = time.perf_counter()
        expires_at = None if self.timeout is None else start + self.timeout
        outcomes: Dict[_Key, _Outcome] = {}
        waited: Dict[_Key, float] = {}
        lock = threading.Lock()

        def run(key: _Key, call: EngineCall) -> None:
            # Outcomes are recorded inside the worker so a late-finishing
            # engine that already missed the deadline cannot race the
            # snapshot below.
            outcome = self._outcome(key[1], call, expires_at)
            with lock:
                outcomes[key] = outcome

        executor = ThreadPoolExecutor(
            max_workers=min(self.workers, len(calls)),
            thread_name_prefix="repro-dispatch",
        )
        try:
            # Each call runs in a copy of *this* thread's context, so it
            # observes the caller's ambient state (the request deadline)
            # exactly as an inline call would.  One copy per call: a
            # Context cannot be entered by two threads at once.
            futures = {
                key: executor.submit(contextvars.copy_context().run, run, key, call)
                for key, call in calls.items()
            }
            for key, future in futures.items():
                remaining: Optional[float] = None
                if self.timeout is not None:
                    remaining = max(0.0, self.timeout - (time.perf_counter() - start))
                try:
                    future.result(timeout=remaining)
                except FutureTimeout:
                    future.cancel()
                waited[key] = time.perf_counter() - start
            with lock:
                return dict(outcomes), waited
        finally:
            # Abandon hung workers instead of joining them; their threads
            # finish (or leak until process exit) without blocking us.
            executor.shutdown(wait=False)

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
        """Fan out several queries' engine calls as one pooled dispatch.

        All calls across all batches share the executor and — unlike
        per-batch :meth:`dispatch` loops, where every batch gets a fresh
        ``timeout`` — a *single* deadline measured from the start of the
        whole fan-out.  Per-batch results are split back into one
        :class:`DispatchReport` per input batch, preserving each batch's
        call order; an engine may appear in any number of batches.

        Inline (``workers=1``) batches simply run back to back.
        """
        self._m_dispatches.inc()
        calls: Dict[_Key, EngineCall] = {
            (index, name): call
            for index, batch in enumerate(batches)
            for name, call in batch.items()
        }
        if self.workers == 1 or not calls:
            waited: Dict[_Key, float] = {}
            outcomes = {
                key: self._outcome(key[1], call) for key, call in calls.items()
            }
        else:
            outcomes, waited = self._pooled(calls)
        reports = [DispatchReport() for __ in batches]
        for key in calls:
            index, name = key
            outcome = outcomes.get(key)
            if outcome is None:
                outcome = EngineFailure(
                    engine=name,
                    kind="timeout",
                    attempts=0,
                    elapsed=waited[key],
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
