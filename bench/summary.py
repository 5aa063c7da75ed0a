"""Order statistics for the benchmark: percentiles and spread summaries.

No third-party imports and no ``repro`` imports — shared by the runner, the
adapter and the probes.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, Optional

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics, section 1).
MIN_TAIL_SAMPLES = 10


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    return statistics.median(values)


def median_or_none(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def supported_tail(n_samples: int) -> float:
    """The highest percentile with ``MIN_TAIL_SAMPLES`` samples beyond it."""
    if n_samples <= MIN_TAIL_SAMPLES:
        return 50.0
    return 100.0 * (1.0 - MIN_TAIL_SAMPLES / n_samples)


def spread(values: Iterable[float]) -> Dict[str, float]:
    """Median, quartiles and IQR/median of a sample (n >= 1)."""
    values = list(values)
    mid = statistics.median(values)
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = mid
    return {
        "n": len(values),
        "median": mid,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_share": (q3 - q1) / abs(mid) if mid else 0.0,
    }
