"""Observability for the query path: metrics, traces, and exporters.

* :mod:`repro.obs.registry` — thread-safe counters, gauges, and fixed-bucket
  histograms behind a :class:`MetricsRegistry`; :class:`NullRegistry` is the
  no-op default that keeps the uninstrumented path free.
* :mod:`repro.obs.trace` — :class:`QueryTrace` span recording for each
  brokered query (estimate → select → dispatch-per-engine → merge).
* :mod:`repro.obs.export` — JSON and Prometheus text-format rendering of a
  registry snapshot (the ``stats`` CLI subcommand's output).
"""

from repro.obs.export import registry_to_json, registry_to_prometheus
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    OCCUPANCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    SIZE_BUCKETS,
)
from repro.obs.trace import QueryTrace, Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "OCCUPANCY_BUCKETS",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "QueryTrace",
    "SIZE_BUCKETS",
    "Span",
    "registry_to_json",
    "registry_to_prometheus",
]
