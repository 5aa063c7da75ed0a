"""Unit tests for the concurrent dispatch layer (fault injection)."""

import functools
import os
import random
import signal
import socket
import sys
import threading
import time

import pytest

from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.metasearch import ConcurrentDispatcher, MetasearchBroker
from repro.metasearch.dispatch import SplitCall
from repro.metasearch.deadlines import Deadline, ambient_deadline, deadline_scope
from repro.obs import MetricsRegistry
from repro.representatives import build_representative


def make_engine(name, docs):
    return SearchEngine(
        Collection.from_documents(
            name, [Document(f"{name}-{i}", terms=t) for i, t in enumerate(docs)]
        )
    )


def register_double(broker, double):
    """Register a fault-injection wrapper with its inner engine's
    representative (the wrapper has no index of its own)."""
    broker.register(double, representative=build_representative(double.inner))


class TestDispatcherValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            ConcurrentDispatcher(workers=0)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout"):
            ConcurrentDispatcher(timeout=0.0)

    def test_retries_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="retries"):
            ConcurrentDispatcher(retries=-1)

    def test_backoff_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="backoff"):
            ConcurrentDispatcher(backoff=-0.1)

    def test_serial_timeout_rejected(self):
        """Regression: workers=1 routed to the serial path, which silently
        never enforced a configured timeout — now an explicit error."""
        with pytest.raises(ValueError, match="workers > 1"):
            ConcurrentDispatcher(workers=1, timeout=0.5)

    def test_serial_timeout_rejected_at_broker(self):
        with pytest.raises(ValueError, match="workers > 1"):
            MetasearchBroker(workers=1, timeout=0.5)

    def test_serial_without_timeout_still_allowed(self):
        assert ConcurrentDispatcher(workers=1, timeout=None).timeout is None

    def test_concurrent_timeout_still_allowed(self):
        assert ConcurrentDispatcher(workers=2, timeout=0.5).timeout == 0.5


class TestSerialDispatch:
    def test_results_preserve_order_and_content(self):
        dispatcher = ConcurrentDispatcher(workers=1)
        report = dispatcher.dispatch({"a": lambda: [1], "b": lambda: [2, 3]})
        assert list(report.results) == ["a", "b"]
        assert report.results == {"a": [1], "b": [2, 3]}
        assert report.ok
        assert set(report.latencies) == {"a", "b"}

    def test_error_is_degraded_not_fatal(self):
        def boom():
            raise RuntimeError("down")

        dispatcher = ConcurrentDispatcher(workers=1)
        report = dispatcher.dispatch({"bad": boom, "good": lambda: [7]})
        assert report.results == {"good": [7]}
        [failure] = report.failures
        assert failure.engine == "bad"
        assert failure.kind == "error"
        assert "RuntimeError: down" in failure.message

    def test_empty_dispatch(self):
        report = ConcurrentDispatcher(workers=4).dispatch({})
        assert report.ok and report.results == {}


class TestConcurrentDispatch:
    def test_matches_serial_results(self):
        calls = {name: (lambda n=name: [n, n]) for name in "abcdef"}
        serial = ConcurrentDispatcher(workers=1).dispatch(calls)
        concurrent = ConcurrentDispatcher(workers=4).dispatch(calls)
        assert concurrent.results == serial.results
        assert list(concurrent.results) == list(serial.results)

    def test_timeout_abandons_slow_engine(self):
        def slow():
            time.sleep(1.0)
            return ["late"]

        dispatcher = ConcurrentDispatcher(workers=2, timeout=0.15)
        start = time.perf_counter()
        report = dispatcher.dispatch({"slow": slow, "fast": lambda: ["hit"]})
        elapsed = time.perf_counter() - start
        assert elapsed < 0.8  # did not wait out the 1s sleep
        assert report.results == {"fast": ["hit"]}
        [failure] = report.failures
        assert failure.engine == "slow"
        assert failure.kind == "timeout"

    def test_retry_then_succeed(self):
        state = {"calls": 0}

        def flaky():
            state["calls"] += 1
            if state["calls"] == 1:
                raise ConnectionError("transient")
            return ["ok"]

        dispatcher = ConcurrentDispatcher(workers=2, retries=1, backoff=0.0)
        report = dispatcher.dispatch({"flaky": flaky})
        assert report.ok
        assert report.results == {"flaky": ["ok"]}
        assert state["calls"] == 2

    def test_retry_exhausted(self):
        state = {"calls": 0}

        def broken():
            state["calls"] += 1
            raise ConnectionError("still down")

        dispatcher = ConcurrentDispatcher(workers=2, retries=2, backoff=0.0)
        report = dispatcher.dispatch({"broken": broken, "good": lambda: [1]})
        assert report.results == {"good": [1]}
        [failure] = report.failures
        assert failure.kind == "error"
        assert failure.attempts == 3  # initial call + 2 retries
        assert state["calls"] == 3

    def test_timeout_is_not_retried(self):
        state = {"calls": 0}

        def hang():
            state["calls"] += 1
            time.sleep(0.6)
            return []

        dispatcher = ConcurrentDispatcher(workers=2, timeout=0.1, retries=3)
        report = dispatcher.dispatch({"hang": hang})
        [failure] = report.failures
        assert failure.kind == "timeout"
        assert state["calls"] == 1

    def test_all_engines_down(self):
        def boom():
            raise OSError("no route")

        report = ConcurrentDispatcher(workers=4).dispatch(
            {name: boom for name in "abc"}
        )
        assert report.results == {}
        assert {f.engine for f in report.failures} == {"a", "b", "c"}
        assert not report.ok


def assert_report_invariants(report, calls):
    """Every dispatched engine lands in exactly one of results/failures,
    and latencies cover every engine exactly once."""
    failed = {f.engine for f in report.failures}
    answered = set(report.results)
    assert not (failed & answered), "engine in both results and failures"
    assert failed | answered == set(calls), "engine missing from the report"
    assert len(report.failures) == len(failed), "duplicate failure records"
    assert set(report.latencies) == set(calls)
    assert all(lat >= 0.0 for lat in report.latencies.values())


class TestDeadlineRaceWindow:
    """The window between the deadline check and the outcome snapshot."""

    def test_finish_near_deadline_lands_in_exactly_one_bucket(self):
        """An engine finishing right at the deadline may be seen as either
        answered or timed out — but never both, and never neither."""
        timeout = 0.08

        def near_deadline():
            time.sleep(timeout)  # finishes inside the race window
            return ["close"]

        calls = {"edge": near_deadline, "fast": lambda: ["hit"]}
        for _ in range(5):
            report = ConcurrentDispatcher(workers=2, timeout=timeout).dispatch(calls)
            assert_report_invariants(report, calls)
            assert report.results.get("fast") == ["hit"]
            if "edge" in report.results:
                assert report.results["edge"] == ["close"]
            else:
                [failure] = report.failures
                assert failure.engine == "edge"
                assert failure.kind == "timeout"

    def test_cancelled_before_start_reported_as_timeout(self):
        """With both workers pinned past the deadline, a queued engine's
        future is cancelled before it ever starts — it must surface as a
        timeout with zero attempts, not vanish from the report."""
        state = {"third_ran": False}

        def hang():
            time.sleep(0.5)
            return []

        def third():
            state["third_ran"] = True
            return ["never"]

        calls = {"hang-a": hang, "hang-b": hang, "queued": third}
        report = ConcurrentDispatcher(workers=2, timeout=0.1).dispatch(calls)
        assert_report_invariants(report, calls)
        assert not state["third_ran"]
        by_engine = {f.engine: f for f in report.failures}
        assert set(by_engine) == set(calls)
        queued = by_engine["queued"]
        assert queued.kind == "timeout"
        assert queued.attempts == 0

    def test_late_finish_after_deadline_keeps_invariants(self):
        """An engine that outlives the deadline by a wide margin is a clean
        timeout; the worker thread finishing later must not corrupt the
        already-assembled report."""

        def slow():
            time.sleep(0.4)
            return ["late"]

        calls = {"slow": slow, "fast": lambda: ["hit"]}
        report = ConcurrentDispatcher(workers=2, timeout=0.05).dispatch(calls)
        assert_report_invariants(report, calls)
        assert report.results == {"fast": ["hit"]}
        [failure] = report.failures
        assert failure.engine == "slow" and failure.kind == "timeout"
        time.sleep(0.5)  # let the abandoned worker finish
        assert report.results == {"fast": ["hit"]}  # report unchanged

    def test_mixed_outcomes_keep_invariants(self):
        def boom():
            raise OSError("down")

        def slow():
            time.sleep(0.5)
            return []

        calls = {
            "ok": lambda: [1],
            "err": boom,
            "slow": slow,
            "ok2": lambda: [2],
        }
        report = ConcurrentDispatcher(workers=4, timeout=0.1).dispatch(calls)
        assert_report_invariants(report, calls)
        kinds = {f.engine: f.kind for f in report.failures}
        assert kinds == {"err": "error", "slow": "timeout"}
        assert set(report.results) == {"ok", "ok2"}


class TestThreadReuse:
    """Fan-out threads come from a cache that outlives the fan-out; the
    per-fan-out semantics stay those of a pool made for each fan-out.
    Only a fan-out with a deadline to enforce uses them, so every
    dispatcher here has a ``timeout`` no call comes near (:data:`POOLED`)."""

    POOLED = 30.0

    @staticmethod
    def rendezvous_calls(n):
        """``n`` calls that each answer their thread's ident once all ``n``
        are running at the same time (so each runs on its own thread)."""
        barrier = threading.Barrier(n)

        def call():
            barrier.wait(timeout=5)
            return [threading.get_ident()]

        return {f"e{i}": call for i in range(n)}

    @staticmethod
    def idents(report):
        assert report.ok, report.failures
        return {hits[0] for hits in report.results.values()}

    @staticmethod
    def wait_gone(idents, timeout=5.0):
        """Wait until no live thread has one of ``idents``."""
        deadline = time.monotonic() + timeout
        while idents & {thread.ident for thread in threading.enumerate()}:
            assert time.monotonic() < deadline, "threads did not retire"
            time.sleep(0.01)

    def test_back_to_back_fanouts_run_on_the_same_threads(self):
        dispatcher = ConcurrentDispatcher(workers=3, timeout=self.POOLED)
        first = self.idents(dispatcher.dispatch(self.rendezvous_calls(3)))
        assert len(first) == 3
        for __ in range(5):
            assert self.idents(dispatcher.dispatch(self.rendezvous_calls(3))) == first
        dispatcher.close()

    def test_hung_call_does_not_delay_the_next_fanout(self):
        release = threading.Event()
        dispatcher = ConcurrentDispatcher(workers=2, timeout=0.2)
        try:
            hung = dispatcher.dispatch(
                {"hung": lambda: release.wait(10) and [], "ok": lambda: ["hit"]}
            )
            assert [f.engine for f in hung.failures] == ["hung"]
            started = time.perf_counter()
            report = dispatcher.dispatch(self.rendezvous_calls(2))
            assert time.perf_counter() - started < 1.0
            assert len(self.idents(report)) == 2
            assert not release.is_set()  # the hung call is still running
        finally:
            release.set()
            dispatcher.close()

    def test_concurrent_fanouts_each_run_workers_calls_at_once(self):
        """Two fan-outs in flight: each runs ``min(workers, calls)`` = 2
        calls at a time, and both pairs run together (no shared cap)."""
        dispatcher = ConcurrentDispatcher(workers=2, timeout=self.POOLED)
        barrier = threading.Barrier(4)  # both fan-outs' pairs at once
        peaks = {}

        def fanout(tag):
            active = [0]
            peak = [0]
            lock = threading.Lock()

            def call():
                with lock:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                barrier.wait(timeout=5)
                with lock:
                    active[0] -= 1
                return [tag]

            report = dispatcher.dispatch({f"{tag}{i}": call for i in range(4)})
            peaks[tag] = (report.ok, peak[0])

        threads = [threading.Thread(target=fanout, args=(t,)) for t in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert peaks == {"a": (True, 2), "b": (True, 2)}
        dispatcher.close()

    def test_calls_see_the_callers_ambient_deadline(self):
        dispatcher = ConcurrentDispatcher(workers=2, timeout=self.POOLED)
        calls = {name: lambda: [ambient_deadline()] for name in ("a", "b")}
        for deadline in (Deadline(5.0), Deadline(7.0), None):
            with deadline_scope(deadline):
                report = dispatcher.dispatch(calls)
            assert [hits[0] for hits in report.results.values()] == [deadline] * 2
        dispatcher.close()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_its_first_fanout(self):
        """The parent's cached threads do not exist in a forked child; the
        child's first fan-out must start its own instead of waiting on
        them."""
        dispatcher = ConcurrentDispatcher(workers=2, timeout=self.POOLED)
        # Both parent threads ran a call, so both are cached idle.
        assert len(self.idents(dispatcher.dispatch(self.rendezvous_calls(2)))) == 2
        pid = os.fork()
        if pid == 0:  # the child: exit 0 iff the fan-out answered
            code = 1
            try:
                report = dispatcher.dispatch(self.rendezvous_calls(2))
                code = 0 if report.ok else 1
            finally:
                os._exit(code)
        guard = time.monotonic() + 10
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > guard:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's fan-out hung")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
        dispatcher.close()

    def test_stress_concurrent_fanouts_answer_every_call_once(self):
        """Many callers, more threads than cores, a tiny switch interval:
        every call is answered exactly once, on its own fan-out, and no
        thread is ever parked twice."""
        dispatcher = ConcurrentDispatcher(workers=3, timeout=5.0)
        counts = {}
        counts_lock = threading.Lock()
        errors = []

        def caller(tag):
            rng = random.Random(tag)
            for round_ in range(25):
                calls = {}
                for i in range(rng.randint(1, 6)):
                    key = (tag, round_, i)

                    def call(key=key):
                        with counts_lock:
                            counts[key] = counts.get(key, 0) + 1
                        return [key]

                    calls[f"e{i}"] = call
                report = dispatcher.dispatch(calls)
                if not report.ok or {
                    name: hits for name, hits in report.results.items()
                } != {name: [(tag, round_, int(name[1:]))] for name in calls}:
                    errors.append((tag, round_, report))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert set(counts.values()) == {1}
        idle = list(dispatcher._threads._idle)
        assert len(idle) == len({id(inbox) for inbox in idle})
        dispatcher.close()

    def test_idle_threads_expire_and_later_fanouts_start_new_ones(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.metasearch.dispatch.IDLE_SECONDS", 0.05)
        dispatcher = ConcurrentDispatcher(workers=2, timeout=self.POOLED)
        self.wait_gone(self.idents(dispatcher.dispatch(self.rendezvous_calls(2))))
        assert dispatcher._threads._idle == []
        assert len(self.idents(dispatcher.dispatch(self.rendezvous_calls(2)))) == 2
        dispatcher.close()

    def test_close_retires_idle_threads_and_dispatch_still_works(self):
        dispatcher = ConcurrentDispatcher(workers=2, timeout=self.POOLED)
        first = self.idents(dispatcher.dispatch(self.rendezvous_calls(2)))
        dispatcher.close()
        self.wait_gone(first)
        assert len(self.idents(dispatcher.dispatch(self.rendezvous_calls(2)))) == 2


HANG = object()  # a reply that never comes


class Refused(Exception):
    """A failure the dispatcher must not retry."""

    retryable = False


class ReadTimeout(TimeoutError):
    """What a remote client raises when a read's budget is spent."""

    retryable = False
    failure_kind = "timeout"


class FakeReply:
    """A split call's reply half: ``read()`` behind a waitable, one end of
    a socket pair that turns readable when the reply "arrives" — at once,
    after ``delay`` seconds, or (``arrives=False``) never.  ``budget`` is
    what :meth:`remaining` counts down from."""

    def __init__(self, read, arrives=True, delay=0.0, budget=None, on_close=None):
        self.read, self.on_close = read, on_close
        self.ours, self.theirs = socket.socketpair()
        self.expires_at = None if budget is None else time.monotonic() + budget
        self.timer = None
        if arrives and delay:
            self.timer = threading.Timer(delay, self.theirs.send, (b"!",))
            self.timer.start()
        elif arrives:
            self.theirs.send(b"!")

    def fileno(self):
        return self.ours.fileno()

    def remaining(self):
        return None if self.expires_at is None else self.expires_at - time.monotonic()

    def __call__(self):
        self.shut()
        return self.read()

    def close(self):
        if self.on_close is not None:
            self.on_close()
        self.shut()

    def shut(self):
        if self.timer is not None:
            self.timer.join()
        self.ours.close()
        self.theirs.close()


class FakeRemote:
    """A scripted remote engine.  ``replies`` are what successive attempts
    get, the last one repeating: a hit list, an exception to raise, or
    :data:`HANG`.  ``send`` is the request half and returns the reply
    half; ``plain`` is both, as one plain call.  A reply arrives after
    ``delay`` seconds, a hung one never: read anyway (as a thread reading
    a socket would), it waits out the read's ambient deadline and then
    fails as a socket read does, or, with none, answers too late (after
    :attr:`HANG_SECONDS`)."""

    HANG_SECONDS = 1.0

    def __init__(self, name, log, *replies, delay=0.0):
        self.name, self.log, self.replies, self.delay = name, log, replies, delay
        self.attempts = 0

    def send(self):
        self.attempts += 1
        self.log.append(("send", self.name, threading.get_ident()))
        reply = self.replies[min(self.attempts, len(self.replies)) - 1]
        return FakeReply(
            lambda: self.read(reply),
            arrives=reply is not HANG,
            delay=self.delay,
            on_close=lambda: self.log.append(
                ("close", self.name, threading.get_ident())
            ),
        )

    def read(self, reply):
        self.log.append(("read", self.name, threading.get_ident()))
        if reply is HANG:
            ambient = ambient_deadline()
            if ambient is None:
                time.sleep(self.HANG_SECONDS)
                return ["late"]
            time.sleep(max(ambient.remaining(), 0.0))
            raise ReadTimeout("timed out reading the reply")
        if isinstance(reply, Exception):
            raise reply
        return reply

    def plain(self):
        return self.send()()


class TestSplitCalls:
    """A fan-out of split calls runs on the caller's thread — every
    request sent before any reply is read, each reply read as it arrives
    — and reports exactly what the same calls report as plain callables
    on fan-out threads, wherever the engine that never answers sits."""

    TIMEOUT = 0.3

    @pytest.fixture(params=["hang-last", "hang-first"])
    def hang_first(self, request):
        return request.param == "hang-first"

    def fakes(self, log, hang_first):
        fakes = [
            FakeRemote("answers", log, ["hit"]),
            FakeRemote("flaky", log, ConnectionError("transient"), ["ok"]),
            FakeRemote("refused", log, Refused("no")),
        ]
        hangs = FakeRemote("hangs", log, HANG)
        return [hangs, *fakes] if hang_first else [*fakes, hangs]

    def run(self, split, hang_first):
        log, registry = [], MetricsRegistry()
        dispatcher = ConcurrentDispatcher(
            workers=8, timeout=self.TIMEOUT, retries=1, backoff=0.0,
            registry=registry,
        )
        calls = {
            fake.name: SplitCall(fake.send) if split else fake.plain
            for fake in self.fakes(log, hang_first)
        }
        started = time.perf_counter()
        report = dispatcher.dispatch(calls)
        elapsed = time.perf_counter() - started
        dispatcher.close()
        return report, registry, log, elapsed

    @staticmethod
    def summary(report):
        return (
            list(report.results.items()),
            [(f.engine, f.kind, f.attempts, f.message) for f in report.failures],
            list(report.latencies),
        )

    COUNTERS = (
        "dispatch.fanouts", "dispatch.attempts", "dispatch.retries",
        "dispatch.timeouts", "dispatch.errors",
    )

    def test_split_and_threaded_fanouts_agree(self, hang_first):
        threaded, threaded_registry, __, __ = self.run(False, hang_first)
        split, split_registry, __, elapsed = self.run(True, hang_first)
        assert self.summary(split) == self.summary(threaded)
        refused = ("refused", "error", 1, "Refused: no")
        hangs = (
            "hangs", "timeout", 0, f"no answer within {self.TIMEOUT}s deadline"
        )
        names = ["answers", "flaky", "refused"]
        assert self.summary(split) == (
            [("answers", ["hit"]), ("flaky", ["ok"])],
            [hangs, refused] if hang_first else [refused, hangs],
            ["hangs", *names] if hang_first else [*names, "hangs"],
        )
        for name in self.COUNTERS:
            assert split_registry.value(name) == threaded_registry.value(name), name
        assert split_registry.value("dispatch.attempts") == 5
        assert elapsed < self.TIMEOUT + 0.5
        assert split.latencies["answers"] < self.TIMEOUT / 2

    def test_split_fanout_reads_replies_as_they_arrive_on_the_callers_thread(
        self, hang_first
    ):
        before = {
            thread.ident for thread in threading.enumerate()
            if thread.name == "repro-dispatch"
        }
        __, __, log, __ = self.run(True, hang_first)
        after = {
            thread.ident for thread in threading.enumerate()
            if thread.name == "repro-dispatch"
        }
        assert after <= before, "a split fan-out started a fan-out thread"
        assert {ident for __, __, ident in log} == {threading.get_ident()}
        sends = [("send", "answers"), ("send", "flaky"), ("send", "refused")]
        hang = [("send", "hangs")]
        assert [(step, name) for step, name, __ in log] == [
            *(hang + sends if hang_first else sends + hang),
            ("read", "answers"), ("read", "flaky"), ("read", "refused"),
            ("send", "flaky"), ("read", "flaky"),
            ("close", "hangs"),  # given up at the deadline, never read
        ]

    def test_a_slow_reply_holds_up_no_later_one(self):
        log = []
        slow = FakeRemote("slow", log, ["s"], delay=0.2)
        fast = FakeRemote("fast", log, ["f"])
        report = ConcurrentDispatcher(workers=2, timeout=2.0).dispatch(
            {"slow": SplitCall(slow.send), "fast": SplitCall(fast.send)}
        )
        assert report.results == {"slow": ["s"], "fast": ["f"]}
        assert [(step, name) for step, name, __ in log] == [
            ("send", "slow"), ("send", "fast"), ("read", "fast"), ("read", "slow"),
        ]
        assert report.latencies["fast"] < 0.1 <= report.latencies["slow"]

    def test_a_reply_whose_own_budget_runs_out_is_read_as_its_timeout(self):
        """With no fan-out deadline, a reply that never arrives is read
        when its own budget is spent (a remote client's socket timeout),
        so it fails as a timeout instead of being waited on forever."""

        def timed_out():
            raise ReadTimeout("timed out reading the reply")

        dispatcher = ConcurrentDispatcher(workers=2)
        started = time.perf_counter()
        report = dispatcher.dispatch({
            "hangs": SplitCall(
                lambda: FakeReply(timed_out, arrives=False, budget=0.2)
            ),
            "answers": SplitCall(lambda: FakeReply(lambda: ["a"])),
        })
        assert 0.2 <= time.perf_counter() - started < 1.0
        assert report.results == {"answers": ["a"]}
        [failure] = report.failures
        assert (failure.engine, failure.kind, failure.attempts) == (
            "hangs", "timeout", 1
        )

    def test_a_failed_send_is_retried_inline(self):
        attempts = []

        def send():
            attempts.append(threading.get_ident())
            if len(attempts) == 1:
                raise ConnectionError("refused")
            return FakeReply(lambda: ["ok"])

        dispatcher = ConcurrentDispatcher(workers=2, retries=1, backoff=0.0)
        report = dispatcher.dispatch({"e": SplitCall(send)})
        assert report.results == {"e": ["ok"]}
        assert attempts == [threading.get_ident()] * 2

    def test_mixed_fanout_runs_split_calls_as_plain_ones(self):
        """With a deadline to enforce over its plain call, a mixed fan-out
        goes to the pool, where its split call is a plain one too."""
        log = []
        fake = FakeRemote("split", log, ["s"])
        report = ConcurrentDispatcher(workers=2, timeout=30.0).dispatch(
            {"split": SplitCall(fake.send), "plain": lambda: ["p"]}
        )
        assert report.results == {"split": ["s"], "plain": ["p"]}
        assert [step for step, __, __ in log] == ["send", "read"]
        [(__, __, sent), (__, __, read)] = log
        assert sent == read != threading.get_ident()


def dispatch_threads():
    """Idents of the live ``repro-dispatch`` (fan-out) threads."""
    return {
        thread.ident for thread in threading.enumerate()
        if thread.name == "repro-dispatch"
    }


class TestTheFanOutRule:
    """A fan-out runs on the caller's thread unless it has a deadline to
    enforce over a plain call: without a ``timeout`` no fan-out thread
    starts, whatever ``workers`` is, and split calls are sent before the
    first plain call runs."""

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_plain_calls_without_a_deadline_run_on_the_callers_thread(
        self, workers
    ):
        before = dispatch_threads()
        dispatcher = ConcurrentDispatcher(workers=workers)
        order = []

        def call(name):
            order.append(name)
            return [threading.get_ident()]

        names = [f"e{i}" for i in range(6)]
        for __ in range(5):
            report = dispatcher.dispatch(
                {name: functools.partial(call, name) for name in names}
            )
            assert report.ok
            assert [hits for hits in report.results.values()] == [
                [threading.get_ident()]
            ] * len(names)
        assert order == names * 5
        assert dispatcher._threads._idle == []
        assert dispatch_threads() <= before

    def test_a_mixed_fanout_without_a_deadline_sends_before_the_first_plain_call(
        self,
    ):
        log = []
        remotes = [FakeRemote(f"r{i}", log, [f"r{i}"]) for i in range(2)]

        def plain(name):
            log.append(("plain", name, threading.get_ident()))
            return [name]

        before = dispatch_threads()
        dispatcher = ConcurrentDispatcher(workers=4)
        report = dispatcher.dispatch({
            "p0": functools.partial(plain, "p0"),
            "r0": SplitCall(remotes[0].send),
            "p1": functools.partial(plain, "p1"),
            "r1": SplitCall(remotes[1].send),
        })
        assert report.results == {
            "p0": ["p0"], "r0": ["r0"], "p1": ["p1"], "r1": ["r1"],
        }
        assert [(step, name) for step, name, __ in log] == [
            ("send", "r0"), ("send", "r1"),
            ("plain", "p0"), ("plain", "p1"),
            ("read", "r0"), ("read", "r1"),
        ]
        assert {ident for __, __, ident in log} == {threading.get_ident()}
        assert dispatch_threads() <= before

    def test_a_raising_plain_call_is_retried_back_to_back_inline(self):
        attempts = []

        def flaky():
            attempts.append(threading.get_ident())
            if len(attempts) < 3:
                raise ConnectionError("transient")
            return ["ok"]

        registry = MetricsRegistry()
        dispatcher = ConcurrentDispatcher(
            workers=8, retries=2, backoff=0.0, registry=registry
        )
        report = dispatcher.dispatch({"flaky": flaky, "down": self.down})
        assert report.results == {"flaky": ["ok"]}
        [failure] = report.failures
        assert (failure.engine, failure.kind, failure.attempts) == ("down", "error", 3)
        assert attempts == [threading.get_ident()] * 3
        assert registry.value("dispatch.retries") == 4
        assert registry.value("dispatch.attempts") == 6

    @staticmethod
    def down():
        raise ConnectionError("down")


class TestBrokerFaultInjection:
    """End-to-end: broker search survives slow/flaky/dead engines."""

    @pytest.fixture
    def fleet_docs(self):
        return {
            "space": [["rocket", "orbit"], ["rocket"]],
            "food": [["rocket", "sauce"], ["sauce"]],
        }

    def test_slow_engine_times_out_healthy_results_survive(
        self, engine_doubles, fleet_docs
    ):
        broker = MetasearchBroker(workers=4, timeout=0.15)
        slow = engine_doubles.SlowEngine(
            make_engine("space", fleet_docs["space"]), delay=1.0
        )
        register_double(broker, slow)
        broker.register(make_engine("food", fleet_docs["food"]))
        start = time.perf_counter()
        response = broker.search(Query.from_terms(["rocket"]), 0.1)
        assert time.perf_counter() - start < 0.8
        assert set(response.invoked) == {"space", "food"}
        assert response.degraded
        assert [f.engine for f in response.failures] == ["space"]
        assert response.failures[0].kind == "timeout"
        assert response.answered == ["food"]
        assert response.hits and all(h.engine == "food" for h in response.hits)

    def test_flaky_engine_retries_then_succeeds(self, engine_doubles, fleet_docs):
        broker = MetasearchBroker(workers=2, retries=2, backoff=0.0)
        flaky = engine_doubles.FlakyEngine(
            make_engine("space", fleet_docs["space"]), failures=2
        )
        register_double(broker, flaky)
        response = broker.search(Query.from_terms(["rocket"]), 0.1)
        assert not response.degraded
        assert flaky.calls == 3
        assert {h.engine for h in response.hits} == {"space"}

    def test_flaky_engine_retry_exhausted(self, engine_doubles, fleet_docs):
        broker = MetasearchBroker(workers=2, retries=1, backoff=0.0)
        flaky = engine_doubles.FlakyEngine(
            make_engine("space", fleet_docs["space"]), failures=5
        )
        register_double(broker, flaky)
        broker.register(make_engine("food", fleet_docs["food"]))
        response = broker.search(Query.from_terms(["rocket"]), 0.1)
        [failure] = response.failures
        assert failure.engine == "space"
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert response.answered == ["food"]

    def test_all_engines_down_yields_empty_degraded_response(
        self, engine_doubles, fleet_docs
    ):
        broker = MetasearchBroker(workers=2)
        for name, docs in fleet_docs.items():
            register_double(
                broker, engine_doubles.BrokenEngine(make_engine(name, docs))
            )
        response = broker.search(Query.from_terms(["rocket"]), 0.1)
        assert response.hits == []
        assert len(response.failures) == 2
        assert response.answered == []
        assert len(response.estimates) == 2  # estimation still worked

    def test_serial_broker_also_degrades(self, engine_doubles, fleet_docs):
        broker = MetasearchBroker(workers=1)
        register_double(
            broker,
            engine_doubles.BrokenEngine(make_engine("space", fleet_docs["space"])),
        )
        broker.register(make_engine("food", fleet_docs["food"]))
        response = broker.search(Query.from_terms(["rocket"]), 0.1)
        assert [f.engine for f in response.failures] == ["space"]
        assert response.answered == ["food"]

    def test_latencies_cover_invoked_engines(self, fleet_docs):
        broker = MetasearchBroker(workers=4)
        for name, docs in fleet_docs.items():
            broker.register(make_engine(name, docs))
        response = broker.search(Query.from_terms(["rocket"]), 0.1)
        assert set(response.latencies) == set(response.invoked)
        assert all(lat >= 0.0 for lat in response.latencies.values())


class TestRetryBackoffBudget:
    """The retry sleep is jittered, clamped to the remaining deadline, and
    skipped outright once the budget is spent."""

    @staticmethod
    def failing_call(exc_factory=lambda: RuntimeError("boom")):
        def call():
            raise exc_factory()

        return call

    @pytest.fixture
    def sleeps(self, monkeypatch):
        """Record backoff sleeps without actually sleeping."""
        recorded = []
        monkeypatch.setattr(
            "repro.metasearch.dispatch.time.sleep",
            lambda seconds: recorded.append(seconds),
        )
        return recorded

    def test_jitter_stays_in_half_to_full_base(self, sleeps):
        dispatcher = ConcurrentDispatcher(retries=3, backoff=0.1)
        with pytest.raises(RuntimeError):
            dispatcher._call_with_retry("e", self.failing_call())
        assert len(sleeps) == 3
        for attempt, slept in enumerate(sleeps, start=1):
            base = 0.1 * 2 ** (attempt - 1)
            assert base / 2 <= slept <= base, (
                f"retry {attempt} slept {slept}, outside [{base / 2}, {base}]"
            )

    def test_sleep_clamped_to_fanout_deadline(self, sleeps):
        dispatcher = ConcurrentDispatcher(workers=2, retries=1, backoff=10.0)
        expires_at = time.perf_counter() + 0.05
        with pytest.raises(RuntimeError):
            dispatcher._call_with_retry("e", self.failing_call(), expires_at)
        assert len(sleeps) == 1
        # Un-clamped jitter would sleep >= 5s; the budget was 50ms.
        assert sleeps[0] <= 0.05

    def test_sleep_clamped_to_ambient_deadline(self, sleeps):
        from repro.serving import Deadline, deadline_scope

        dispatcher = ConcurrentDispatcher(retries=1, backoff=10.0)
        with deadline_scope(Deadline(0.05)):
            with pytest.raises(RuntimeError):
                dispatcher._call_with_retry("e", self.failing_call())
        assert len(sleeps) == 1
        assert sleeps[0] <= 0.05

    @pytest.mark.parametrize("workers", [1, 4])
    def test_dispatch_clamps_backoff_to_ambient_deadline(self, sleeps, workers):
        """The request deadline reaches the retry loop wherever the worker
        body runs — inline or on a pool thread (a fan-out with a deadline
        of its own, far off)."""
        from repro.serving import Deadline, deadline_scope

        dispatcher = ConcurrentDispatcher(
            workers=workers, timeout=None if workers == 1 else 30.0,
            retries=1, backoff=10.0,
        )
        with deadline_scope(Deadline(0.05)):
            report = dispatcher.dispatch(
                {"a": self.failing_call(), "b": self.failing_call()}
            )
        assert [failure.engine for failure in report.failures] == ["a", "b"]
        # Un-clamped jitter would sleep >= 5s; the budget was 50ms (a retry
        # that found it already spent is skipped without sleeping at all).
        assert all(slept <= 0.05 for slept in sleeps)
        assert len(sleeps) <= 2

    def test_retry_skipped_when_budget_already_spent(self, sleeps):
        """An exhausted deadline surfaces the failure immediately instead
        of sleeping into a retry that can never answer in time."""
        from repro.serving import Deadline, deadline_scope

        dispatcher = ConcurrentDispatcher(retries=5, backoff=0.05)
        calls = []
        with deadline_scope(Deadline(0.0)):
            with pytest.raises(RuntimeError) as excinfo:
                dispatcher._call_with_retry(
                    "e", lambda: calls.append(1) or (_ for _ in ()).throw(
                        RuntimeError("boom")
                    )
                )
        assert len(calls) == 1  # no second attempt
        assert sleeps == []  # and no sleep at all
        assert excinfo.value._dispatch_attempts == 1

    def test_retry_skipped_when_fanout_deadline_spent(self, sleeps):
        dispatcher = ConcurrentDispatcher(workers=2, retries=5, backoff=0.05)
        expires_at = time.perf_counter() - 1.0  # already past
        with pytest.raises(RuntimeError) as excinfo:
            dispatcher._call_with_retry("e", self.failing_call(), expires_at)
        assert sleeps == []
        assert excinfo.value._dispatch_attempts == 1

    def test_non_retryable_exception_fails_fast(self, sleeps):
        class FatalError(RuntimeError):
            retryable = False

        dispatcher = ConcurrentDispatcher(retries=5, backoff=0.05)
        attempts = []
        with pytest.raises(FatalError):
            dispatcher._call_with_retry(
                "e",
                lambda: attempts.append(1) or (_ for _ in ()).throw(
                    FatalError("gone")
                ),
            )
        assert len(attempts) == 1
        assert sleeps == []

    def test_failure_kind_attribute_overrides_error_kind(self):
        class BudgetGone(RuntimeError):
            retryable = False
            failure_kind = "timeout"

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        dispatcher = ConcurrentDispatcher(retries=2, registry=registry)
        report = dispatcher.dispatch(
            {"e": self.failing_call(lambda: BudgetGone("spent"))}
        )
        assert report.failures[0].kind == "timeout"
        assert report.failures[0].attempts == 1
        assert registry.value("dispatch.timeouts") == 1
        assert registry.value("dispatch.retries") in (None, 0)

    def test_zero_backoff_never_sleeps(self, sleeps):
        dispatcher = ConcurrentDispatcher(retries=3, backoff=0.0)
        with pytest.raises(RuntimeError):
            dispatcher._call_with_retry("e", self.failing_call())
        assert sleeps == []
