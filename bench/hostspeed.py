"""How disturbed is the host right now?  A fixed piece of pure-Python work,
timed beside the benchmark's own CPU-bound operations.

The box is a shared 2-core VM.  A neighbour on the same physical core makes
it run ~1.6x slower in bursts of 50 ms to seconds; the share of time spent
in such bursts drifts between ~10 % and ~90 % over minutes, and CPU time
moves with wall time (the core itself is slower; steal is a few percent).
Twenty back-to-back runs of one seed of ``wide_estimate_cold`` that crossed
a calm and a busy period read, for the best of 4-6 whole passes, IQR/median
0.19 raw and 0.06 divided by the slowdown below (``live_delta_mix``: 0.21
and 0.06) — see README, "Host speed".

The *slowdown* of an interval is the mean duration of the
:func:`reference_work` samples taken inside it over the shortest sample of
the whole run: the host calibrates itself, so no constant of one machine or
interpreter enters, and a time divided by its slowdown reads "seconds on
this machine, undisturbed".  Even in the busiest period seen, a few samples
per pass ran undisturbed, so the floor is found in every run (0.292-0.308 ms
over 40 runs).

No ``repro`` imports: the reference is never touched by a change to the
program.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List

__all__ = ["HostSpeed", "reference_work"]


def reference_work() -> int:
    counts: dict = {}
    for i in range(3000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i * 3
    return len(counts)


class HostSpeed:
    """Collects timed :func:`reference_work` samples; answers how slow the
    host was over any interval that holds at least one of them."""

    def __init__(self) -> None:
        self._ended: List[float] = []
        self._seconds: List[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        reference_work()
        ended = time.perf_counter()
        self._ended.append(ended)
        self._seconds.append(ended - started)

    def sampled_seconds(self, start: float, end: float) -> float:
        """Time spent sampling inside ``[start, end]`` (for a caller that
        samples inline and wants its own time net of it)."""
        return sum(
            s for at, s in zip(self._ended, self._seconds) if start <= at <= end
        )

    def slowdown(
        self, start: float = float("-inf"), end: float = float("inf")
    ) -> float:
        """Mean sample within ``[start, end]`` (``perf_counter`` seconds)
        over the run's shortest sample; >= 1.  A sample beyond three times
        the interval's median was descheduled, not slowed, and is dropped:
        one 50 ms stall inside a 0.3 ms sample would move a 200-sample mean
        by 80 %, the same stall inside a 2-second pass moves it by 2.5 %."""
        picked = [
            s for at, s in zip(self._ended, self._seconds) if start <= at <= end
        ]
        if not picked:
            raise RuntimeError("no host-speed sample in the interval")
        limit = 3.0 * statistics.median(picked)
        kept = [s for s in picked if s < limit]
        return sum(kept) / len(kept) / min(self._seconds)

    @contextmanager
    def sampling(self, interval: float = 0.005) -> Iterator[None]:
        """Sample from a background thread while the caller waits on a
        child process (~6 % of one core at the default interval)."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.is_set():
                self.sample()
                stop.wait(interval)

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
