"""Unit tests for the request-coalescing window.

These drive :class:`~repro.serving.coalesce.CoalescingWindow` with
controllable executors (gates, recorders) so every scheduling path is
deterministic: the idle fast-path, drain/full/timer flushes, queued
deadline expiry, intra-window dedup, error fan-out, and close-on-drain.
"""

import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.metasearch.deadlines import ambient_deadline, detached_deadline_scope
from repro.serving import (
    CoalesceClosed,
    CoalesceExpired,
    CoalescingWindow,
    Deadline,
    deadline_scope,
)


class RecordingExecutor:
    """Records every batch it executes; result is item * 10."""

    def __init__(self):
        self.batches = []
        self.lock = threading.Lock()

    def __call__(self, items):
        with self.lock:
            self.batches.append(list(items))
        return [item * 10 for item in items]


class GatedExecutor(RecordingExecutor):
    """Blocks executions on an event until released."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def __call__(self, items):
        self.entered.set()
        assert self.gate.wait(10), "executor gate never released"
        return super().__call__(items)


def start_submissions(window, items, deadlines=None):
    """Submit every item from its own thread; join via finish()."""
    results = [None] * len(items)
    errors = [None] * len(items)

    def submit(i):
        deadline = deadlines[i] if deadlines else None
        try:
            results[i] = window.submit(items[i], deadline=deadline)
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            errors[i] = exc

    threads = [
        threading.Thread(target=submit, args=(i,)) for i in range(len(items))
    ]
    for thread in threads:
        thread.start()

    def finish():
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive(), "submission thread hung"
        return results, errors

    return finish


def wait_until(pred, timeout=5.0, message="condition"):
    """Spin until ``pred()`` holds; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return
        time.sleep(0.002)
    raise AssertionError(f"timed out waiting for {message}")


def wait_queued(window, n, timeout=5.0):
    """Spin until ``n`` members are queued in the window."""
    wait_until(
        lambda: window.queued >= n,
        timeout=timeout,
        message=f"{n} queued members (have {window.queued})",
    )


def test_validates_configuration():
    with pytest.raises(ValueError):
        CoalescingWindow(lambda items: items, max_wait=0, max_batch=4)
    with pytest.raises(ValueError):
        CoalescingWindow(lambda items: items, max_wait=0.01, max_batch=0)


def test_idle_fast_path_executes_solo_and_immediately():
    executor = RecordingExecutor()
    registry = MetricsRegistry()
    window = CoalescingWindow(
        executor, max_wait=5.0, max_batch=8, registry=registry, name="w"
    )
    start = time.perf_counter()
    assert window.submit(3) == 30
    elapsed = time.perf_counter() - start
    assert executor.batches == [[3]]
    # A lone request never waits for the window timer.
    assert elapsed < 1.0
    assert registry.value(
        "serving.coalesce.flush", labels={"window": "w", "reason": "idle"}
    ) == 1


def test_concurrent_submissions_coalesce_into_one_batch():
    executor = GatedExecutor()
    registry = MetricsRegistry()
    window = CoalescingWindow(
        executor, max_wait=5.0, max_batch=8, registry=registry, name="w"
    )
    # A gated leader makes the next submissions pile into one window.
    leader = threading.Thread(target=window.submit, args=(0,))
    leader.start()
    assert executor.entered.wait(5)
    executor.entered.clear()
    finish = start_submissions(window, [1, 2, 3])
    wait_queued(window, 3)
    executor.gate.set()
    results, errors = finish()
    leader.join(timeout=10)
    for thread_error in errors:
        assert thread_error is None
    assert results == [10, 20, 30]
    # One solo batch for the leader, one coalesced batch for the rest.
    assert sorted(len(b) for b in executor.batches) == [1, 3]
    assert registry.value(
        "serving.coalesce.flush", labels={"window": "w", "reason": "drain"}
    ) == 1


def test_full_window_flushes_at_max_batch():
    executor = GatedExecutor()
    window = CoalescingWindow(executor, max_wait=30.0, max_batch=2)
    leader = threading.Thread(target=window.submit, args=(0,))
    leader.start()
    assert executor.entered.wait(5)
    executor.entered.clear()
    finish = start_submissions(window, [1, 2])
    # The second arrival fills the window; its leader enters the (still
    # gated) executor as an overlapping batch while the first runs.
    assert executor.entered.wait(5)
    executor.gate.set()
    results, errors = finish()
    leader.join(timeout=10)
    assert errors == [None, None]
    assert results == [10, 20]
    # max_wait is 30s, so only a "full" flush can have released [1, 2].
    assert [1, 2] in executor.batches or [2, 1] in executor.batches


def test_timer_flush_bounds_added_latency():
    executor = GatedExecutor()
    registry = MetricsRegistry()
    window = CoalescingWindow(
        executor, max_wait=0.05, max_batch=64, registry=registry, name="w"
    )
    leader = threading.Thread(target=window.submit, args=(0,))
    leader.start()
    assert executor.entered.wait(5)
    # The leader's batch is still executing (gate closed): the queued
    # member must flush on its own timer rather than wait for drain.
    start = time.perf_counter()
    done = threading.Event()
    follower_result = []

    def follower():
        follower_result.append(window.submit(5))
        done.set()

    threading.Thread(target=follower).start()
    executor.gate.set()  # open AFTER the timer has begun ticking
    assert done.wait(10)
    elapsed = time.perf_counter() - start
    leader.join(timeout=10)
    assert follower_result == [50]
    assert elapsed < 5.0  # far below drain-only behavior under a stall
    flushes = registry.value(
        "serving.coalesce.flush", labels={"window": "w", "reason": "timer"}
    ) + registry.value(
        "serving.coalesce.flush", labels={"window": "w", "reason": "drain"}
    )
    assert flushes >= 1


def test_expired_member_gets_504_without_spending_work():
    executor = GatedExecutor()
    registry = MetricsRegistry()
    window = CoalescingWindow(
        executor, max_wait=10.0, max_batch=8, registry=registry, name="w"
    )
    leader = threading.Thread(target=window.submit, args=(0,))
    leader.start()
    assert executor.entered.wait(5)
    # Queued with an already-tiny budget: expires while the leader runs.
    finish = start_submissions(window, [7], deadlines=[Deadline(0.02)])
    results, errors = finish()  # expiry needs no gate release
    executor.gate.set()
    leader.join(timeout=10)
    assert isinstance(errors[0], CoalesceExpired)
    # The expired member never reached any executed batch.
    assert all(7 not in batch for batch in executor.batches)
    assert registry.value(
        "serving.coalesce.expired", labels={"window": "w"}
    ) == 1


def test_expired_member_never_poisons_batchmates():
    executor = GatedExecutor()
    registry = MetricsRegistry()
    window = CoalescingWindow(
        executor, max_wait=10.0, max_batch=8, registry=registry, name="w"
    )
    leader = threading.Thread(target=window.submit, args=(0,))
    leader.start()
    assert executor.entered.wait(5)
    executor.entered.clear()
    finish = start_submissions(
        window,
        [1, 2],
        deadlines=[Deadline(0.02), Deadline(30.0)],
    )
    # Hold the gate until the tight-budget member has expired out of the
    # queue and the other is queued, so the surviving member demonstrably
    # flushes without it.  Both states last (the counter only grows, and
    # nothing flushes while the leader holds the gate); a queue of two
    # need never be seen, as member 1 can expire before member 2 arrives.
    wait_until(
        lambda: registry.value(
            "serving.coalesce.expired", labels={"window": "w"}
        ) == 1 and window.queued == 1,
        message="member 1 expired and member 2 queued",
    )
    executor.gate.set()
    results, errors = finish()
    leader.join(timeout=10)
    assert isinstance(errors[0], CoalesceExpired)
    assert errors[1] is None and results[1] == 20


def test_dedup_shares_one_execution_per_key():
    executor = GatedExecutor()
    registry = MetricsRegistry()
    window = CoalescingWindow(
        executor,
        max_wait=5.0,
        max_batch=8,
        key=lambda item: item % 2,  # all odd items share one row
        registry=registry,
        name="w",
    )
    leader = threading.Thread(target=window.submit, args=(2,))
    leader.start()
    assert executor.entered.wait(5)
    executor.entered.clear()
    finish = start_submissions(window, [3, 5, 7])
    wait_queued(window, 3)
    executor.gate.set()
    results, errors = finish()
    leader.join(timeout=10)
    assert errors == [None, None, None]
    # All three demuxed from the first odd item's single executed row.
    assert results == [30, 30, 30]
    assert sorted(len(b) for b in executor.batches) == [1, 1]
    assert registry.value(
        "serving.coalesce.deduped", labels={"window": "w"}
    ) == 2


def test_probe_answers_without_joining_any_window():
    executor = RecordingExecutor()
    registry = MetricsRegistry()
    window = CoalescingWindow(
        executor,
        max_wait=5.0,
        max_batch=8,
        probe=lambda item: item * 100 if item == 9 else None,
        registry=registry,
        name="w",
    )
    assert window.submit(9) == 900
    assert window.submit(1) == 10
    assert executor.batches == [[1]]
    assert registry.value(
        "serving.coalesce.cache_hits", labels={"window": "w"}
    ) == 1


def test_execute_error_fans_out_to_every_member():
    class Boom(RuntimeError):
        pass

    entered = threading.Event()
    gate = threading.Event()

    def failing(items):
        entered.set()
        assert gate.wait(10)
        raise Boom("batch failed")

    window = CoalescingWindow(failing, max_wait=5.0, max_batch=8)
    leader_error = []

    def leader():
        try:
            window.submit(0)
        except Boom as exc:
            leader_error.append(exc)

    leader_thread = threading.Thread(target=leader)
    leader_thread.start()
    assert entered.wait(5)
    finish = start_submissions(window, [1, 2])
    wait_queued(window, 2)
    gate.set()
    results, errors = finish()
    leader_thread.join(timeout=10)
    assert leader_error and isinstance(leader_error[0], Boom)
    assert all(isinstance(error, Boom) for error in errors)


def test_close_refuses_new_submissions():
    executor = RecordingExecutor()
    window = CoalescingWindow(executor, max_wait=5.0, max_batch=8)
    assert window.submit(1) == 10
    window.close()
    with pytest.raises(CoalesceClosed):
        window.submit(2)
    assert executor.batches == [[1]]


def test_batch_runs_under_loosest_member_deadline():
    """The detached scope gives the batch the longest member budget, so
    the leader's own (tighter) deadline cannot poison batchmates."""
    seen = []
    entered = threading.Event()
    gate = threading.Event()
    calls = []

    def execute(items):
        calls.append(list(items))
        if not entered.is_set():
            entered.set()
            assert gate.wait(10)
        else:
            seen.append(ambient_deadline())
        return list(items)

    window = CoalescingWindow(execute, max_wait=5.0, max_batch=8)
    leader = threading.Thread(target=window.submit, args=(0,))
    leader.start()
    assert entered.wait(5)
    tight, loose = Deadline(0.5), Deadline(30.0)

    def submit_with(deadline, item):
        with deadline_scope(deadline):
            window.submit(item, deadline=deadline)

    threads = [
        threading.Thread(target=submit_with, args=(tight, 1)),
        threading.Thread(target=submit_with, args=(loose, 2)),
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.05)
    gate.set()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    leader.join(timeout=10)
    assert len(seen) == 1
    assert seen[0] is loose


def test_detached_scope_restores_caller_stack():
    outer = Deadline(10.0)
    inner = Deadline(20.0)
    with deadline_scope(outer):
        with detached_deadline_scope(inner):
            assert ambient_deadline() is inner
        assert ambient_deadline() is outer
    assert ambient_deadline() is None


def test_occupancy_and_wait_metrics_are_recorded():
    executor = GatedExecutor()
    registry = MetricsRegistry()
    window = CoalescingWindow(
        executor, max_wait=5.0, max_batch=8, registry=registry, name="w"
    )
    leader = threading.Thread(target=window.submit, args=(0,))
    leader.start()
    assert executor.entered.wait(5)
    executor.entered.clear()
    finish = start_submissions(window, [1, 2, 3])
    wait_queued(window, 3)
    executor.gate.set()
    results, errors = finish()
    leader.join(timeout=10)
    assert errors == [None, None, None]
    series = {
        (entry["name"], tuple(sorted(entry["labels"].items()))): entry
        for entry in registry.snapshot()
    }
    occupancy = series[
        ("serving.coalesce.batch.occupancy", (("window", "w"),))
    ]
    assert occupancy["count"] == 2  # the solo batch and the window
    assert occupancy["sum"] == 4  # 1 + 3 members
    wait = series[("serving.coalesce.wait.seconds", (("window", "w"),))]
    assert wait["count"] == 4
