"""Unit tests for the observability layer: registry, traces, exporters,
and their wiring through the broker's query path."""

import json
import threading

import pytest

from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker
from repro.obs import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    QueryTrace,
    registry_to_json,
    registry_to_prometheus,
)


def make_engine(name, docs):
    return SearchEngine(
        Collection.from_documents(
            name, [Document(f"{name}-{i}", terms=t) for i, t in enumerate(docs)]
        )
    )


def make_broker(**kwargs):
    broker = MetasearchBroker(**kwargs)
    broker.register(make_engine("space", [["rocket", "orbit"], ["rocket"]]))
    broker.register(make_engine("food", [["recipe", "sauce"], ["sauce"]]))
    return broker


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.inc(-3)
        assert gauge.value == 12.0

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.counter("c", labels={"a": "1"}) is not registry.counter("c")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(ValueError, match="already a counter"):
            registry.gauge("metric")

    def test_thread_safety_under_contention(self):
        counter = MetricsRegistry().counter("c")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000.0


class TestHistogram:
    def test_observations_bucketed_cumulatively(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 7.0, 100.0):
            hist.observe(value)
        buckets = {b["le"]: b["count"] for b in hist.as_dict()["buckets"]}
        assert buckets[1.0] == 2  # 0.5 and the boundary value 1.0
        assert buckets[5.0] == 3
        assert buckets[10.0] == 4
        assert buckets["+Inf"] == 5
        assert hist.count == 5
        assert hist.sum == pytest.approx(111.5)

    def test_bounds_validated(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="ascending"):
            registry.histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("h2", buckets=())

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        [metric] = registry.snapshot()
        assert metric["kind"] == "histogram"
        assert metric["buckets"][-1]["le"] == "+Inf"
        assert metric["buckets"][-1]["count"] == 1


class TestNullRegistry:
    def test_every_hook_is_a_noop(self):
        registry = NullRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        assert registry.snapshot() == []
        assert len(registry) == 0
        assert registry.value("c") is None

    def test_shared_instruments(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b")
        assert registry.counter("a") is NULL_REGISTRY.counter("a")

    def test_exports_are_empty_but_valid(self):
        assert json.loads(registry_to_json(NULL_REGISTRY)) == {"metrics": []}
        assert registry_to_prometheus(NULL_REGISTRY) == ""


class TestQueryTrace:
    def test_span_context_manager_records_duration(self):
        trace = QueryTrace()
        with trace.span("stage", detail=1) as span:
            span.metadata["extra"] = 2
        [recorded] = trace.spans
        assert recorded.name == "stage"
        assert recorded.duration >= 0.0
        assert recorded.metadata == {"detail": 1, "extra": 2}

    def test_span_recorded_even_when_body_raises(self):
        trace = QueryTrace()
        with pytest.raises(RuntimeError):
            with trace.span("boom"):
                raise RuntimeError("x")
        assert [span.name for span in trace.spans] == ["boom"]

    def test_add_external_duration(self):
        trace = QueryTrace()
        span = trace.add("dispatch:space", 0.25, ok=True)
        assert span.duration == 0.25
        assert span.start >= 0.0
        assert trace.spans == [span]

    def test_as_dict_and_format(self):
        trace = QueryTrace()
        with trace.span("estimate"):
            pass
        data = trace.as_dict()
        assert data["spans"][0]["name"] == "estimate"
        assert "estimate" in trace.format()
        assert len(trace) == 1


class TestExporters:
    @pytest.fixture
    def registry(self):
        registry = MetricsRegistry()
        registry.counter("broker.searches").inc(3)
        registry.gauge("cache.size").set(7)
        hist = registry.histogram(
            "dispatch.engine.seconds", buckets=(0.1, 1.0), labels={"engine": "space"}
        )
        hist.observe(0.05)
        hist.observe(0.5)
        return registry

    def test_json_round_trip(self, registry):
        doc = json.loads(registry_to_json(registry))
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["broker.searches"]["value"] == 3.0
        assert by_name["cache.size"]["value"] == 7.0
        hist = by_name["dispatch.engine.seconds"]
        assert hist["labels"] == {"engine": "space"}
        assert hist["count"] == 2

    def test_prometheus_text_format(self, registry):
        text = registry_to_prometheus(registry)
        assert "# TYPE repro_broker_searches_total counter" in text
        assert "repro_broker_searches_total 3.0" in text
        assert "repro_cache_size 7.0" in text
        assert (
            'repro_dispatch_engine_seconds_bucket{engine="space",le="0.1"} 1'
            in text
        )
        assert (
            'repro_dispatch_engine_seconds_bucket{engine="space",le="+Inf"} 2'
            in text
        )
        assert 'repro_dispatch_engine_seconds_count{engine="space"} 2' in text
        assert text.endswith("\n")

    def test_prometheus_prefix_override(self, registry):
        text = registry_to_prometheus(registry, prefix="")
        assert "broker_searches_total 3.0" in text
        assert "repro_" not in text


class TestBrokerTraceIntegration:
    def test_search_yields_all_pipeline_spans(self):
        broker = make_broker(cache_size=16)
        response = broker.search(Query.from_terms(["rocket"]), 0.1)
        names = [span.name for span in response.trace.spans]
        for stage in ("estimate", "select", "dispatch", "merge"):
            assert stage in names
        for engine in response.invoked:
            assert f"dispatch:{engine}" in names
        assert response.trace.total_seconds > 0.0

    def test_search_all_traces_dispatch_and_merge(self):
        broker = make_broker()
        response = broker.search_all(Query.from_terms(["rocket"]), 0.1)
        names = [span.name for span in response.trace.spans]
        assert "dispatch" in names and "merge" in names
        assert {f"dispatch:{e}" for e in broker.engine_names} <= set(names)

    def test_failed_engine_span_flagged_not_ok(self, engine_doubles):
        broker = MetasearchBroker(workers=2)
        from repro.representatives import build_representative

        inner = make_engine("space", [["rocket"]])
        broker.register(
            engine_doubles.BrokenEngine(inner),
            representative=build_representative(inner),
        )
        response = broker.search(Query.from_terms(["rocket"]), 0.0)
        [span] = [s for s in response.trace.spans if s.name == "dispatch:space"]
        assert span.metadata["ok"] is False

    def test_trace_excluded_from_response_equality(self):
        from repro.metasearch.broker import MetasearchResponse

        trace = QueryTrace()
        with trace.span("estimate"):
            pass
        a = MetasearchResponse(
            hits=[], invoked=["space"], estimates=[], failures=[],
            latencies={"space": 0.1}, trace=trace,
        )
        b = MetasearchResponse(
            hits=[], invoked=["space"], estimates=[], failures=[],
            latencies={"space": 0.1}, trace=QueryTrace(),
        )
        assert a.trace is not b.trace
        assert a == b  # identical answers, different timing


class TestBrokerMetricsIntegration:
    def test_search_records_counters_and_stages(self):
        registry = MetricsRegistry()
        broker = make_broker(cache_size=16, registry=registry)
        query = Query.from_terms(["rocket"])
        broker.search(query, 0.1)
        broker.search(query, 0.1)
        assert registry.value("broker.searches") == 2.0
        assert registry.value("broker.engines.invoked") >= 2.0
        assert registry.value("dispatch.fanouts") == 2.0
        assert registry.value("dispatch.attempts") >= 2.0
        # Second search served its estimates from cache.
        assert registry.value("cache.hits") == 2.0
        assert registry.value("cache.misses") == 2.0
        stage = registry.histogram("broker.stage.seconds", labels={"stage": "estimate"})
        assert stage.count == 2

    def test_estimator_expansion_metrics(self):
        registry = MetricsRegistry()
        broker = make_broker(cache_size=0, registry=registry)
        broker.search(Query.from_terms(["rocket", "sauce"]), 0.1)
        assert registry.value("estimator.expansions") == 2.0
        assert registry.histogram("estimator.genfunc.terms").count == 2
        assert registry.value("estimator.rows.skipped") == 0.0
        # Only "space" holds "orbit"; "food" cannot pass T, so it is
        # skipped before the kernel and its row is not an expansion.
        broker.search(Query.from_terms(["orbit"]), 0.1)
        assert registry.value("estimator.expansions") == 3.0
        assert registry.histogram("estimator.genfunc.terms").count == 3
        assert registry.value("estimator.rows.skipped") == 1.0
        engines = len(broker.fleet.engine_names)
        assert (
            registry.value("estimator.expansions")
            + registry.value("estimator.rows.skipped")
        ) == 2 * engines

    def test_degraded_search_counted(self, engine_doubles):
        from repro.representatives import build_representative

        registry = MetricsRegistry()
        broker = MetasearchBroker(workers=2, registry=registry)
        inner = make_engine("space", [["rocket"]])
        broker.register(
            engine_doubles.BrokenEngine(inner),
            representative=build_representative(inner),
        )
        broker.search(Query.from_terms(["rocket"]), 0.0)
        assert registry.value("broker.searches.degraded") == 1.0
        assert registry.value("dispatch.errors") == 1.0

    def test_retries_counted(self, engine_doubles):
        from repro.representatives import build_representative

        registry = MetricsRegistry()
        broker = MetasearchBroker(workers=2, retries=2, backoff=0.0, registry=registry)
        inner = make_engine("space", [["rocket"]])
        flaky = engine_doubles.FlakyEngine(inner, failures=2)
        broker.register(flaky, representative=build_representative(inner))
        response = broker.search(Query.from_terms(["rocket"]), 0.0)
        assert not response.degraded
        assert registry.value("dispatch.retries") == 2.0
        assert registry.value("dispatch.attempts") == 3.0

    def test_timeout_counted(self, engine_doubles):
        from repro.representatives import build_representative

        registry = MetricsRegistry()
        broker = MetasearchBroker(workers=2, timeout=0.1, registry=registry)
        inner = make_engine("space", [["rocket"]])
        slow = engine_doubles.SlowEngine(inner, delay=0.6)
        broker.register(slow, representative=build_representative(inner))
        broker.search(Query.from_terms(["rocket"]), 0.0)
        assert registry.value("dispatch.timeouts") == 1.0

    def test_default_broker_keeps_null_registry(self):
        broker = make_broker()
        assert isinstance(broker.registry, NullRegistry)
        broker.search(Query.from_terms(["rocket"]), 0.1)
        assert broker.registry.snapshot() == []
