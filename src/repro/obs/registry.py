"""Thread-safe metric instruments and their registry.

Three instrument kinds cover the query path:

* :class:`Counter` — monotonically increasing totals (searches, cache hits,
  dispatch retries).
* :class:`Gauge` — a value that can go up and down (resident cache entries).
* :class:`Histogram` — observations bucketed under fixed upper bounds, with
  running count and sum (per-stage latency, expansion term counts).

A :class:`MetricsRegistry` hands out instruments by ``(name, labels)`` —
asking twice returns the same instrument — and can snapshot every series
for the exporters in :mod:`repro.obs.export`.  The :class:`NullRegistry`
implements the same surface with shared no-op instruments, so the default
query path pays a few attribute lookups per search and nothing else (the
contract ``benchmarks/bench_observability.py`` enforces).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "OCCUPANCY_BUCKETS",
    "SIZE_BUCKETS",
]

#: Seconds-scale buckets for latency histograms (sub-ms to 10 s).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Count-scale buckets for expansion sizes and similar integer magnitudes.
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 4, 16, 64, 256, 1024, 4096, 16384, 65536,
)

#: Batch-occupancy buckets: how many requests/queries shared one batch
#: (coalescing windows, shard estimate batches, scatter fan-outs).
OCCUPANCY_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_pairs(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount!r}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A value that can move in either direction."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """Observations under fixed cumulative buckets plus count and sum.

    Buckets are upper bounds in ascending order; an implicit ``+Inf``
    bucket always exists, so every observation lands somewhere.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labels: LabelPairs = (),
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(later <= earlier for later, earlier in zip(bounds[1:], bounds)):
            raise ValueError(f"bucket bounds must be strictly ascending: {bounds!r}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def as_dict(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            total, total_sum = self._count, self._sum
        running = 0
        buckets = []
        for bound, count in zip(self.bounds, counts):
            running += count
            buckets.append({"le": bound, "count": running})
        buckets.append({"le": "+Inf", "count": running + counts[-1]})
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "count": total,
            "sum": total_sum,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Creates and owns metric instruments, deduplicated by (name, labels).

    The same name may carry many label sets (one histogram per engine, say)
    but only one instrument kind — requesting a counter under a name already
    used by a gauge is a programming error and raises.
    """

    null = False

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelPairs], object] = {}
        self._kinds: Dict[str, str] = {}

    def _get_or_create(self, name: str, labels, factory, kind: str):
        key = (name, _label_pairs(labels))
        with self._lock:
            known = self._kinds.get(name)
            if known is not None and known != kind:
                raise ValueError(
                    f"metric {name!r} is already a {known}, not a {kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(key[1])
                self._metrics[key] = metric
                self._kinds[name] = kind
            return metric

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        return self._get_or_create(
            name, labels, lambda pairs: Counter(name, pairs), "counter"
        )

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._get_or_create(
            name, labels, lambda pairs: Gauge(name, pairs), "gauge"
        )

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        return self._get_or_create(
            name, labels, lambda pairs: Histogram(name, buckets, pairs), "histogram"
        )

    def snapshot(self) -> List[dict]:
        """Every series as a plain dict, sorted by (name, labels)."""
        with self._lock:
            metrics = list(self._metrics.items())
        metrics.sort(key=lambda item: item[0])
        return [metric.as_dict() for _, metric in metrics]

    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[float]:
        """Current value of a counter/gauge series; None when absent."""
        with self._lock:
            metric = self._metrics.get((name, _label_pairs(labels)))
        return getattr(metric, "value", None) if metric is not None else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry(series={len(self)})"


class _NullCounter:
    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    value = 0.0


class _NullGauge:
    kind = "gauge"
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    value = 0.0


class _NullHistogram:
    kind = "histogram"
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    count = 0
    sum = 0.0


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """Do-nothing registry: same surface, shared no-op instruments.

    This is the default everywhere instrumentation is threaded through, so
    uninstrumented deployments never allocate per-call and the query path
    stays within noise of the pre-observability implementation.
    """

    null = True

    def counter(self, name, labels=None) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name, labels=None) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name, buckets=LATENCY_BUCKETS, labels=None) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> List[dict]:
        return []

    def value(self, name, labels=None) -> Optional[float]:
        return None

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullRegistry()"


#: Shared default instance — instrumented classes fall back to this.
NULL_REGISTRY = NullRegistry()
