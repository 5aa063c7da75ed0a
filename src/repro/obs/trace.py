"""Per-query tracing: named spans over the broker's search pipeline.

Every :meth:`MetasearchBroker.search` produces a :class:`QueryTrace` whose
spans cover the pipeline stages — ``estimate``, ``select``, ``dispatch``
(with one ``dispatch:<engine>`` child per invoked engine), ``merge`` — so a
slow query can be attributed to a stage, and an estimator comparison can be
run on measured numbers rather than ad-hoc prints.

Spans record wall-clock offsets from the trace's creation, so a rendered
trace reads as a timeline.  Tracing has no off switch: it is a handful of
``perf_counter`` calls and list appends per query, which the observability
bench keeps within noise.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

__all__ = ["QueryTrace", "Span"]


@dataclass
class Span:
    """One named, timed section of a query's lifecycle.

    Attributes:
        name: Stage name (``"estimate"``, ``"dispatch:space"``, ...).
        start: Seconds from trace creation to span start.
        duration: Span length in seconds.
        metadata: Small stage-specific facts (engine counts, hit counts).
    """

    name: str
    start: float
    duration: float
    metadata: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"name": self.name, "start": self.start, "duration": self.duration}
        if self.metadata:
            out["metadata"] = dict(self.metadata)
        return out


class QueryTrace:
    """An append-only list of spans for one brokered query."""

    __slots__ = ("spans", "_origin")

    def __init__(self):
        self.spans: List[Span] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **metadata) -> Iterator[Span]:
        """Time a ``with`` block as one span; metadata may be filled inside."""
        start = time.perf_counter()
        record = Span(
            name=name, start=start - self._origin, duration=0.0, metadata=metadata
        )
        try:
            yield record
        finally:
            record.duration = time.perf_counter() - start
            self.spans.append(record)

    def add(self, name: str, duration: float, **metadata) -> Span:
        """Record an externally measured span (e.g. a per-engine latency
        reported by the dispatcher) ending now."""
        now = time.perf_counter() - self._origin
        record = Span(
            name=name,
            start=max(0.0, now - duration),
            duration=duration,
            metadata=metadata,
        )
        self.spans.append(record)
        return record

    @property
    def total_seconds(self) -> float:
        """End-to-end wall clock covered so far (latest span end)."""
        return max((s.start + s.duration for s in self.spans), default=0.0)

    def as_dict(self) -> dict:
        return {
            "total_seconds": self.total_seconds,
            "spans": [span.as_dict() for span in self.spans],
        }

    def format(self) -> str:
        """A fixed-width, human-readable timeline of the spans."""
        lines = [f"trace: {self.total_seconds * 1000.0:.2f}ms total"]
        for span in self.spans:
            meta = ""
            if span.metadata:
                meta = "  " + " ".join(
                    f"{k}={v}" for k, v in sorted(span.metadata.items())
                )
            lines.append(
                f"  {span.name:<24} @{span.start * 1000.0:>8.2f}ms "
                f"+{span.duration * 1000.0:>8.2f}ms{meta}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return (
            f"QueryTrace(spans={len(self.spans)}, "
            f"total={self.total_seconds * 1000.0:.2f}ms)"
        )
