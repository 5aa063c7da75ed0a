"""The only module under ``bench/`` that imports ``repro``'s Python API.

Everything else in the benchmark speaks to the program through this file
(or, for the HTTP workloads, through the CLI and a socket), so a refactor
of ``src/`` is followed here and nowhere else.  Three parts:

* **inputs** — the (fixed) corpus, query pools and request bodies;
* **systems** — the brokers, live engines and oracle the in-process
  workloads and the correctness gate use;
* **probes** — :class:`Fixture` (an in-bench replica of the serving stack
  built exactly as the CLI builds it) and the :data:`PROBES` registry of
  per-layer calls.  Each probe imports what it needs lazily, so a symbol
  that a later PR removes costs that probe (``null`` + ``probe.errors``),
  not the run.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Tuple

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from summary import median  # noqa: E402

from repro.corpus import Collection, Document, save_collection  # noqa: E402
from repro.corpus.synth import NewsgroupModel, QueryLogModel  # noqa: E402
from repro.engine import SearchEngine  # noqa: E402
from repro.metasearch import EstimateCache, MetasearchBroker  # noqa: E402
from repro.representatives import build_representative  # noqa: E402
from repro.serving.wire import query_to_wire, response_from_wire  # noqa: E402

THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
LIMIT = 10
#: The data set — corpora and query pools — is generated from this seed
#: and is the same in every run; ``--seed`` draws the *traffic* (arrival
#: sequences, pass order).  Drawn from ``--seed`` instead, which 6-term
#: queries a pool happened to hold moved ``wide_estimate_cold`` between 67
#: and 97 req/s and between 240 and 534 MB over ten seeds (README).
DATA_SEED = 1999

# -- inputs --------------------------------------------------------------------


def corpus_model(width: int, docs_per_engine: int = 30):
    """The ``bench_fleet_scaling`` corpus model at ``width`` engines."""
    return NewsgroupModel(
        vocab_size=4000,
        topic_size=120,
        topic_band=(50, 1500),
        mean_length=80,
        seed=DATA_SEED,
        group_sizes=[docs_per_engine] * width,
    )


def generate_collections(model) -> list:
    return [model.generate_group(g) for g in range(model.n_groups)]


def save_collections(collections, directory: Path) -> List[str]:
    paths = []
    for collection in collections:
        path = directory / f"{collection.name}.jsonl.gz"
        save_collection(collection, path)
        paths.append(str(path))
    return paths


def query_pool(model, size: int) -> list:
    """``size`` distinct queries from ``QueryLogModel``, de-duplicated by
    ``EstimateCache.query_key`` and *stratified by length*: a pool of any
    size holds the model's own length histogram (1-6 terms) exactly (a
    6-term query on 256 engines costs 50-400 ms against a 9 ms median)."""
    log = QueryLogModel(model, seed=DATA_SEED + 1)
    probabilities = [float(p) for p in log.length_probs]
    quotas = [int(round(p * size)) for p in probabilities]
    quotas[0] += size - sum(quotas)
    seen = set()
    by_length: Dict[int, list] = {n + 1: [] for n in range(len(quotas))}
    for query in log.generate(max(400, 12 * size)):
        key = EstimateCache.query_key(query)
        if key in seen:
            continue
        seen.add(key)
        bucket = by_length[len(query.terms)]
        if len(bucket) < quotas[len(query.terms) - 1]:
            bucket.append(query)
    pool = [q for length in sorted(by_length) for q in by_length[length]]
    if len(pool) < size:
        raise RuntimeError(f"query log yielded {len(pool)} of {size} queries")
    # Interleave lengths deterministically so threshold cycling and Zipf
    # popularity are not correlated with query length.
    order = sorted(range(size), key=lambda i: (i * 7919) % size)
    return [pool[i] for i in order]


def with_thresholds(queries) -> List[tuple]:
    return [(q, THRESHOLDS[i % len(THRESHOLDS)]) for i, q in enumerate(queries)]


def search_body(query, threshold: float) -> bytes:
    return json.dumps(
        {"query": query_to_wire(query), "threshold": threshold, "limit": LIMIT}
    ).encode("utf-8")


def documents_of(collection) -> List[Document]:
    return [
        Document(doc_id=collection.doc_id(i), terms=collection.terms_of(i))
        for i in range(len(collection))
    ]


# -- systems -------------------------------------------------------------------


def engines_for(collections) -> list:
    return [SearchEngine(c) for c in collections]


def representatives_for(engines) -> list:
    return [build_representative(e) for e in engines]


def _accepts(callable_, name: str) -> bool:
    return name in inspect.signature(callable_).parameters


def oracle_broker(engines, representatives):
    """The reference: a default ``MetasearchBroker`` (scalar subrange
    estimator, dict representatives, serial dispatch)."""
    broker = MetasearchBroker()
    for engine, representative in zip(engines, representatives):
        broker.register(engine, representative=representative)
    return broker


def columnar_broker(engines, representatives=None, **options):
    """A broker on the columnar store with default cache sizes.

    ``columnar=True`` is passed only while the constructor still takes it;
    once the columnar store is the only backend the default broker *is*
    this broker and the benchmark needs no edit."""
    if _accepts(MetasearchBroker.__init__, "columnar"):
        options["columnar"] = True
    broker = MetasearchBroker(**options)
    for i, engine in enumerate(engines):
        representative = representatives[i] if representatives else None
        broker.register(engine, representative=representative)
    return broker


def build_wide_system(collections, tick: Callable[[], None]):
    """engines + representatives + register — what ``setup_s`` times for
    ``wide_estimate_cold``.  Returns ``(broker, engines, representatives)``.
    ``tick`` is called once per engine (the host-speed sampler)."""
    engines, representatives = [], []
    for collection in collections:
        engines.append(SearchEngine(collection))
        representatives.append(build_representative(engines[-1]))
        tick()
    return columnar_broker(engines, representatives), engines, representatives


def build_live_system(collections, n_initial: int, tick: Callable[[], None]):
    """A columnar broker over live engines registered via
    ``sync_representative``; returns ``(broker, lives, spares)`` where
    ``spares[k]`` are engine ``k``'s not-yet-ingested documents.  ``tick``
    is called once per engine (the host-speed sampler)."""
    from repro.fleet import LiveEngineServer

    broker = columnar_broker([])
    lives, spares = [], []
    for collection in collections:
        documents = documents_of(collection)
        live = LiveEngineServer(collection.name, documents[:n_initial])
        broker.sync_representative(live)
        lives.append(live)
        spares.append(documents[n_initial:])
        tick()
    return broker, lives, spares


def rebuilt_broker(names_and_documents):
    """A columnar broker built from scratch over final corpora — the
    ``live_delta_mix`` oracle."""
    engines = [
        SearchEngine(Collection.from_documents(name, documents))
        for name, documents in names_and_documents
    ]
    return columnar_broker(engines, representatives_for(engines))


def answer_of(response) -> tuple:
    """The comparable part of a broker response (timings excluded)."""
    return (response.hits, response.invoked, response.estimates)


def answer_of_wire(body: bytes) -> tuple:
    return answer_of(response_from_wire(json.loads(body)))


def invoked_count_of_wire(body: bytes) -> int:
    return len(json.loads(body).get("invoked", ()))


def cache_counters(broker) -> Dict[str, float]:
    """Hit/miss/eviction totals of a broker's two caches."""
    out = {"hits": 0, "misses": 0, "evictions": 0, "poly_hits": 0, "poly_misses": 0}
    cache = getattr(broker, "cache", None)
    if cache is not None:
        out.update(hits=cache.hits, misses=cache.misses, evictions=cache.evictions)
    polycache = getattr(broker, "polycache", None)
    if polycache is not None:
        out.update(poly_hits=polycache.hits, poly_misses=polycache.misses)
    return out


#: Prometheus series the HTTP workloads read the same counters from.
PROMETHEUS_COUNTERS = {
    "hits": "repro_cache_hits_total",
    "misses": "repro_cache_misses_total",
    "evictions": "repro_cache_evictions_total",
    "poly_hits": "repro_estimator_polycache_hits_total",
    "poly_misses": "repro_estimator_polycache_misses_total",
}


# -- tracing the workload's own broker -------------------------------------------


def trace_broker(tracer, broker, lives=()) -> None:
    """Wrap the coarse public calls a request makes on ``broker`` (a handful
    of spans per request: cheap enough to stay under the 5 % overhead
    budget; per-key cache calls are covered by the probes instead)."""
    import repro.metasearch.broker as broker_module

    tracer.wrap(broker, "estimate_all", "broker.estimate_all")
    tracer.wrap(broker_module, "fleet_usefulness_grid", "vectorized.grid")
    tracer.wrap(broker_module, "merge_hits", "merge.merge_hits")
    fleet = getattr(broker, "fleet", None)
    if fleet is not None:
        tracer.wrap(fleet, "gather", "columnar.gather")
        tracer.wrap(fleet, "apply_delta", "columnar.apply_delta")
    tracer.wrap(broker.policy, "select", "selection.select")
    tracer.wrap(broker.dispatcher, "dispatch", "dispatch.fanout")
    tracer.wrap(broker, "sync_representative", "broker.sync_representative")
    tracer.wrap(
        broker, "apply_representative_delta", "broker.apply_delta"
    )
    if getattr(broker, "cache", None) is not None:
        tracer.wrap(broker.cache, "invalidate_terms", "cache.invalidate_terms")
    if getattr(broker, "polycache", None) is not None:
        tracer.wrap(
            broker.polycache, "invalidate_terms", "polycache.invalidate_terms"
        )
    for live in lives:
        tracer.wrap(live, "add_documents", "live.mutate")
        tracer.wrap(live, "remove_documents", "live.mutate")


# -- the in-bench replica of the serving stack -------------------------------------


class Fixture:
    """A replica of the HTTP workloads' serving stack in this process
    (16 engines, 4 shards, the same corpus and request pool).

    The gateway app, the four shard apps and the coordinator are built with
    the same constructor arguments ``repro serve`` passes for default flags,
    and served on loopback by the same two frontends (threaded for gateway
    and shards, asyncio for the coordinator).  Probes time public calls on
    these objects; HTTP workloads re-enact each request body on them to
    split the client's latency into layers.
    """

    def __init__(self, n_engines: int = 16, pool_size: int = 48):
        from repro.obs import MetricsRegistry
        from repro.serving import GatewayApp

        model = corpus_model(n_engines)
        self.collections = generate_collections(model)
        self.engines = engines_for(self.collections)
        self.representatives = representatives_for(self.engines)
        self.pool = with_thresholds(query_pool(model, pool_size))
        self.bodies = [search_body(q, t) for q, t in self.pool]
        self._servers = []

        # repro serve gateway --collections ... (default flags)
        self.gateway_registry = MetricsRegistry()
        self.gateway_broker = MetasearchBroker(
            workers=8, timeout=None, retries=0, cache_size=1024,
            registry=self.gateway_registry,
        )
        for engine, representative in zip(self.engines, self.representatives):
            self.gateway_broker.register(engine, representative=representative)
        admission = dict(
            max_active=8, max_queued=32, max_queue_wait=5.0, retry_after=1.0,
            coalesce_window=0.0, coalesce_max_batch=64, default_deadline=None,
        )
        self.gateway_app = GatewayApp(
            self.gateway_broker, registry=self.gateway_registry, **admission
        )
        self.gateway_url = self._serve(self.gateway_app, asynchronous=False)
        for query, threshold in self.pool:  # warm, as the workload's warm-up
            self.gateway_broker.search(query, threshold, limit=LIMIT)

        # The sharded half is optional: when a refactor removes a piece of
        # it the gateway replica and every probe that needs only it survive.
        self.fleet = self.coordinator_app = self.coordinator_url = None
        self.shard_apps, self.shard_urls, self.shard_engines = [], [], []
        try:
            self._build_sharded(n_engines, admission)
        except Exception:
            traceback.print_exc(file=sys.stderr)

    def _build_sharded(self, n_engines: int, admission: dict) -> None:
        from repro.obs import MetricsRegistry
        from repro.representatives import partition_round_robin
        from repro.serving import CoordinatorApp, ShardApp, ShardedFleet

        # repro serve shard --shard-index i --collections <round-robin slice>
        slices = partition_round_robin(
            list(range(n_engines)), min(4, n_engines)
        )
        for index, members in enumerate(slices):
            registry = MetricsRegistry()
            broker = columnar_broker(
                [self.engines[i] for i in members],
                [self.representatives[i] for i in members],
                workers=4, timeout=None, retries=0, cache_size=1024,
                registry=registry,
            )
            app = ShardApp(
                broker, shard_index=index, registry=registry,
                default_deadline=None,
            )
            self.shard_apps.append(app)
            self.shard_engines.append([self.engines[i].name for i in members])
            self.shard_urls.append(self._serve(app, asynchronous=False))

        # repro serve coordinator --shards 4 (default flags: asyncio frontend)
        self.coordinator_registry = MetricsRegistry()
        self.fleet = ShardedFleet(
            self.shard_urls, timeout=None, retries=0, shard_timeout=30.0,
            registry=self.coordinator_registry,
        ).attach()
        self.coordinator_app = CoordinatorApp(
            self.fleet, registry=self.coordinator_registry, **admission
        )
        self.coordinator_url = self._serve(
            self.coordinator_app, asynchronous=True
        )
        for query, threshold in self.pool:
            self.fleet.search(query, threshold, limit=LIMIT)

    def _serve(self, app, asynchronous: bool) -> str:
        """Serve ``app`` on loopback with the frontend the CLI uses for its
        role; if that frontend no longer exists, with the one that does."""
        import repro.serving as serving

        names = ["AsyncServingServer", "ServingServer"]
        if not asynchronous:
            names.reverse()
        frontend = next(
            getattr(serving, name) for name in names if hasattr(serving, name)
        )
        server = frontend(app)
        server.start_background()
        self._servers.append(server)
        return server.url

    def app_for(self, topology: str):
        return self.coordinator_app if topology == "sharded" else self.gateway_app

    def trace_replica(self, tracer, topology: str) -> None:
        """Wrap the public calls one ``/search`` makes on the replica."""
        import repro.serving.gateway as gateway_module

        app = self.app_for(topology)
        tracer.wrap(app, "handle", "gateway.handle")
        tracer.wrap(gateway_module, "query_from_wire", "wire.request_decode")
        tracer.wrap(gateway_module, "response_to_wire", "wire.response_encode")
        if topology == "sharded":
            import repro.serving.coordinator as coordinator_module

            tracer.wrap(self.fleet, "search_batch", "coordinator.search")
            tracer.wrap(
                self.fleet.dispatcher, "dispatch", "coordinator.scatter"
            )
            tracer.wrap(self.fleet.policy, "select", "selection.select")
            tracer.wrap(coordinator_module, "merge_hits", "merge.merge_hits")
        else:
            trace_broker(tracer, self.gateway_broker)

    def reenact(self, tracer, topology: str, body: bytes) -> List[dict]:
        """Run one request body through the replica under ``tracer``;
        returns the spans it recorded."""
        app = self.app_for(topology)
        before = len(tracer.spans)
        response = app.handle("POST", "/search", {}, body)
        span = tracer.begin("wire.json_dumps")
        response.body_bytes()
        tracer.end(span)
        if response.status != 200:
            raise RuntimeError(f"replica answered {response.status}")
        return tracer.spans[before:]

    def close(self) -> None:
        for server in reversed(self._servers):
            server.drain(timeout=5.0)
        if self.fleet is not None:
            self.fleet.close()


# -- per-layer probes --------------------------------------------------------------

#: name -> (unit, builder).  A builder takes ``(fixture, measure)`` and
#: returns the metric's value in its unit, or a dict of several metrics.
PROBES: Dict[str, Tuple[Dict[str, str], Callable]] = {}


def probe(units: Dict[str, str]):
    """Register a probe producing the metrics in ``units`` (name -> unit)."""

    def register(builder):
        PROBES[builder.__name__] = (units, builder)
        return builder

    return register


_US, _MS = 1e6, 1e3


def _http_samples(url: str, method: str, path: str, bodies, reps: int):
    """``reps`` keep-alive requests; ``(latency_s, gap_s)`` per request."""
    from loadgen import HttpConnection

    connection = HttpConnection.from_url(url)
    samples = []
    try:
        for i in range(reps + 1):
            body = bodies[i % len(bodies)] if bodies else b""
            status, __, sent, first, last = connection.request(method, path, body)
            if status != 200:
                raise RuntimeError(f"{method} {path} answered {status}")
            if i:  # the first request also pays the connect
                samples.append(((last - sent) / 1e9, (last - first) / 1e9))
    finally:
        connection.close()
    return samples


@probe({"http.header_body_gap_p50_ms": "ms"})
def http_header_body_gap(fx, measure):
    samples = _http_samples(fx.gateway_url, "POST", "/search", fx.bodies, 8)
    return median(gap for __, gap in samples) * _MS


@probe({"http.roundtrip_threaded_ms": "ms"})
def http_roundtrip_threaded(fx, measure):
    samples = _http_samples(fx.gateway_url, "GET", "/healthz", None, 8)
    return median(latency for latency, __ in samples) * _MS


@probe({"http.roundtrip_async_ms": "ms"})
def http_roundtrip_async(fx, measure):
    samples = _http_samples(fx.coordinator_url, "GET", "/healthz", None, 8)
    return median(latency for latency, __ in samples) * _MS


@probe({"http.handle_healthz_us": "us"})
def http_handle_healthz(fx, measure):
    app = fx.gateway_app
    return measure(lambda: app.handle("GET", "/healthz", {}, b"")) * _US


@probe({"wire.request_decode_us": "us"})
def wire_request_decode(fx, measure):
    from repro.serving.wire import query_from_wire

    bodies = fx.bodies
    return measure(
        lambda i: query_from_wire(json.loads(bodies[i % len(bodies)])["query"]),
        counter=True,
    ) * _US


def _pool_responses(fx):
    return [
        fx.gateway_broker.search(q, t, limit=LIMIT) for q, t in fx.pool
    ]


@probe({
    "wire.response_encode_us": "us",
    "wire.response_bytes_p50": "bytes",
})
def wire_response_encode(fx, measure):
    from repro.serving.wire import response_to_wire

    responses = _pool_responses(fx)
    sizes = [len(json.dumps(response_to_wire(r))) for r in responses]
    seconds = measure(
        lambda i: json.dumps(response_to_wire(responses[i % len(responses)])),
        counter=True,
    )
    return {
        "wire.response_encode_us": seconds * _US,
        "wire.response_bytes_p50": float(median(sizes)),
    }


@probe({"wire.response_decode_us": "us"})
def wire_response_decode(fx, measure):
    from repro.serving.wire import response_to_wire

    encoded = [json.dumps(response_to_wire(r)) for r in _pool_responses(fx)]
    return measure(
        lambda i: response_from_wire(json.loads(encoded[i % len(encoded)])),
        counter=True,
    ) * _US


@probe({
    "wire.estimate_row_encode_us": "us",
    "wire.estimate_row_decode_us": "us",
})
def wire_estimate_row(fx, measure):
    from repro.serving.wire import estimate_from_wire, estimate_to_wire

    rows = [fx.gateway_broker.estimate_all(q, t) for q, t in fx.pool]
    encoded = [json.dumps([estimate_to_wire(e) for e in row]) for row in rows]
    return {
        "wire.estimate_row_encode_us": measure(
            lambda i: json.dumps(
                [estimate_to_wire(e) for e in rows[i % len(rows)]]
            ),
            counter=True,
        ) * _US,
        "wire.estimate_row_decode_us": measure(
            lambda i: [
                estimate_from_wire(e)
                for e in json.loads(encoded[i % len(encoded)])
            ],
            counter=True,
        ) * _US,
    }


@probe({"gateway.handle_search_ms": "ms"})
def gateway_handle_search(fx, measure):
    app, bodies = fx.gateway_app, fx.bodies
    return measure(
        lambda i: app.handle("POST", "/search", {}, bodies[i % len(bodies)]),
        counter=True,
    ) * _MS


@probe({"gateway.handle_residual_us": "us"})
def gateway_handle_residual(fx, measure):
    from spans import Tracer, self_times

    tracer = Tracer()
    fx.trace_replica(tracer, "gateway")
    try:
        for body in fx.bodies:
            fx.reenact(tracer, "gateway", body)
    finally:
        tracer.unwrap_all()
    own = self_times(tracer.spans)
    return median(
        own[s["id"]] for s in tracer.spans if s["name"] == "gateway.handle"
    ) / 1e3


@probe({"admission.acquire_release_us": "us"})
def admission_acquire_release(fx, measure):
    from repro.serving import AdmissionQueue

    queue = AdmissionQueue(8, 32)

    def cycle():
        queue.acquire(timeout=1.0)
        queue.release()

    return measure(cycle, inner=50) * _US


@probe({"coalesce.solo_submit_us": "us"})
def coalesce_solo(fx, measure):
    from repro.serving import CoalescingWindow

    window = CoalescingWindow(lambda items: items, max_wait=0.002, max_batch=64)
    return measure(lambda: window.submit(1), inner=20) * _US


@probe({
    "coalesce.pair_occupancy": "count",
    "coalesce.pair_wait_us": "us",
})
def coalesce_pair(fx, measure):
    """Two submitters released together, 200 rounds; the executor returns
    its items after a 0.2 ms sleep (a broker call blocked on an engine)."""
    from repro.serving import CoalescingWindow

    batches: List[int] = []

    def execute(items):
        batches.append(len(items))
        time.sleep(0.0002)
        return items

    window = CoalescingWindow(execute, max_wait=0.002, max_batch=64)
    rounds = 200
    barrier = threading.Barrier(2)
    waits: List[float] = []

    def submitter():
        for __ in range(rounds):
            barrier.wait()
            started = time.perf_counter()
            window.submit(1)
            waits.append(time.perf_counter() - started)

    threads = [threading.Thread(target=submitter) for __ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "coalesce.pair_occupancy": sum(batches) / len(batches),
        "coalesce.pair_wait_us": median(waits) * _US,
    }


def _registry_total(registry, name: str) -> float:
    return sum(
        m["value"] for m in registry.snapshot()
        if m["name"] == name and m["kind"] == "counter"
    )


@probe({
    "coordinator.estimate_scatter_ms": "ms",
    "coordinator.search_ms": "ms",
    "coordinator.gather_residual_ms": "ms",
    "coordinator.rpcs_per_request": "count",
})
def coordinator_scatter(fx, measure):
    """``ShardedFleet`` over the four shard replicas.  The gather residual
    is the estimate scatter minus its slowest shard call, both read off the
    same fan-out (the dispatcher reports each shard's latency)."""
    fleet, pool, registry = fx.fleet, fx.pool, fx.coordinator_registry
    slowest: List[float] = []
    dispatch = fleet.dispatcher.dispatch

    def spy(calls):
        report = dispatch(calls)
        slowest.append(max(report.latencies.values(), default=0.0))
        return report

    elapsed: List[float] = []
    fleet.dispatcher.dispatch = spy
    try:
        for i in range(8):
            started = time.perf_counter()
            fleet.estimate_all(*pool[i % len(pool)])
            elapsed.append(time.perf_counter() - started)
    finally:
        del fleet.dispatcher.dispatch
    rpcs_before = _registry_total(registry, "coordinator.scatter.rpcs")
    searches_before = _registry_total(registry, "coordinator.searches")
    search = measure(
        lambda i: fleet.search(*pool[i % len(pool)], limit=LIMIT),
        counter=True, budget=0.35, min_reps=8,
    )
    rpcs = _registry_total(registry, "coordinator.scatter.rpcs") - rpcs_before
    searches = _registry_total(registry, "coordinator.searches") - searches_before
    return {
        "coordinator.estimate_scatter_ms": median(elapsed) * _MS,
        "coordinator.search_ms": search * _MS,
        "coordinator.gather_residual_ms": median(
            total - shard for total, shard in zip(elapsed, slowest)
        ) * _MS,
        "coordinator.rpcs_per_request": rpcs / searches if searches else 0.0,
    }


def _estimate_bodies(fx) -> List[bytes]:
    return [
        json.dumps({"queries": [query_to_wire(q)], "thresholds": [t]}).encode()
        for q, t in fx.pool
    ]


@probe({"shard.estimate_rpc_ms": "ms", "shard.dispatch_rpc_ms": "ms"})
def shard_rpcs(fx, measure):
    """Keep-alive RPCs to shard replica 0 from the raw-socket client."""
    dispatch_bodies = [
        json.dumps({"entries": [{
            "query": query_to_wire(q), "threshold": t,
            "engines": fx.shard_engines[0],
        }]}).encode()
        for q, t in fx.pool
    ]
    url = fx.shard_urls[0]
    return {
        "shard.estimate_rpc_ms": median(
            latency for latency, __ in _http_samples(
                url, "POST", "/estimate", _estimate_bodies(fx), 8
            )
        ) * _MS,
        "shard.dispatch_rpc_ms": median(
            latency for latency, __ in _http_samples(
                url, "POST", "/dispatch", dispatch_bodies, 8
            )
        ) * _MS,
    }


@probe({"shard.handle_estimate_us": "us"})
def shard_handle_estimate(fx, measure):
    app = fx.shard_apps[0]
    bodies = _estimate_bodies(fx)
    return measure(
        lambda i: app.handle("POST", "/estimate", {}, bodies[i % len(bodies)]),
        counter=True,
    ) * _US


@probe({
    "broker.search_ms": "ms",
    "broker.estimate_warm_us": "us",
})
def broker_warm(fx, measure):
    broker, pool = fx.gateway_broker, fx.pool
    return {
        "broker.search_ms": measure(
            lambda i: broker.search(*pool[i % len(pool)], limit=LIMIT),
            counter=True,
        ) * _MS,
        "broker.estimate_warm_us": measure(
            lambda i: broker.estimate_all(*pool[i % len(pool)]), counter=True
        ) * _US,
    }


@probe({"broker.estimate_cold_ms": "ms"})
def broker_cold(fx, measure):
    """``estimate_all`` on a CLI-default broker with both caches emptied."""
    broker = oracle_broker(fx.engines, fx.representatives)
    pool = fx.pool

    def clear(i):
        broker.cache.clear()
        broker.polycache.clear()
        return pool[i % len(pool)]

    return measure(
        lambda item: broker.estimate_all(*item), setup=clear, budget=0.4
    ) * _MS


@probe({
    "cache.get_hit_us": "us",
    "cache.put_us": "us",
})
def cache_get_put(fx, measure):
    from repro.core import Usefulness

    cache = EstimateCache(1024)
    value = Usefulness(nodoc=1.0, avgsim=0.5)
    keys = [
        EstimateCache.key_for(f"engine{e:03d}", q, t)
        for e in range(3072 // len(fx.pool) + 1) for q, t in fx.pool
    ]
    for key in keys[:1024]:
        cache.put(key, value)
    resident = keys[:1024]
    return {
        "cache.get_hit_us": measure(
            lambda i: cache.get(resident[i % 1024]), counter=True, inner=50
        ) * _US,
        # every put below misses a full cache, so it also evicts
        "cache.put_us": measure(
            lambda i: cache.put(keys[(1024 + i) % len(keys)], value),
            counter=True, inner=50,
        ) * _US,
    }


@probe({"cache.invalidate_terms_us": "us"})
def cache_invalidate_terms(fx, measure):
    """One engine's 48 pool entries resident among 1024; invalidate the
    terms of one query."""
    from repro.core import Usefulness

    value = Usefulness(nodoc=1.0, avgsim=0.5)
    keys = [
        EstimateCache.key_for(f"engine{e:02d}", q, t)
        for e in range(21) for q, t in fx.pool
    ]
    pool = fx.pool

    def fill(i):
        cache = EstimateCache(1024)
        for key in keys:
            cache.put(key, value)
        return cache, pool[i % len(pool)][0].terms

    return measure(
        lambda prepared: prepared[0].invalidate_terms("engine00", prepared[1]),
        setup=fill, budget=0.15,
    ) * _US


@probe({"polycache.lookup_us": "us"})
def polycache_lookup(fx, measure):
    from repro.metasearch import TermPolynomialCache

    cache = TermPolynomialCache(4096)
    config = ("SubrangeEstimator",)
    terms = sorted({term for q, __ in fx.pool for term in q.terms})
    for term in terms:
        cache.store(config, "engine00", term, 0.5, None)
    return measure(
        lambda i: cache.lookup(config, "engine00", terms[i % len(terms)], 0.5),
        counter=True, inner=50,
    ) * _US


def _selected_calls(fx, item):
    query, threshold = item
    names = fx.gateway_broker.select(query, threshold)
    by_name = {e.name: e for e in fx.engines}
    return {
        name: (lambda engine=by_name[name]: engine.search(query, threshold))
        for name in names
    }


@probe({"selection.select_us": "us"})
def selection_select(fx, measure):
    rows = [fx.gateway_broker.estimate_all(q, t) for q, t in fx.pool]
    policy = fx.gateway_broker.policy
    return measure(
        lambda i: policy.select(rows[i % len(rows)]), counter=True, inner=10
    ) * _US


@probe({
    "dispatch.fanout_ms": "ms",
    "dispatch.overhead_us": "us",
})
def dispatch_fanout(fx, measure):
    """``ConcurrentDispatcher(workers=8)`` as the CLI gateway builds it;
    overhead = fan-out wall minus the slowest engine call."""
    from repro.metasearch import ConcurrentDispatcher

    dispatcher = ConcurrentDispatcher(workers=8)
    batches = [c for c in (_selected_calls(fx, item) for item in fx.pool) if c]
    fanouts, overheads = [], []
    for i in range(3 * len(batches)):
        calls = batches[i % len(batches)]
        started = time.perf_counter()
        report = dispatcher.dispatch(calls)
        elapsed = time.perf_counter() - started
        fanouts.append(elapsed)
        overheads.append(elapsed - max(report.latencies.values()))
    return {
        "dispatch.fanout_ms": median(fanouts) * _MS,
        "dispatch.overhead_us": median(overheads) * _US,
    }


@probe({"engine.search_us": "us"})
def engine_search(fx, measure):
    engines, pool = fx.engines, fx.pool
    return measure(
        lambda i: engines[i % len(engines)].search(*pool[i % len(pool)]),
        counter=True,
    ) * _US


@probe({
    "merge.merge_hits_us": "us",
    "merge.hits_in_per_req": "count",
})
def merge_hits_probe(fx, measure):
    from repro.metasearch import merge_hits

    inputs = [
        [call() for call in calls.values()]
        for calls in (_selected_calls(fx, item) for item in fx.pool)
        if calls
    ]
    return {
        "merge.merge_hits_us": measure(
            lambda i: merge_hits(inputs[i % len(inputs)], limit=LIMIT),
            counter=True,
        ) * _US,
        "merge.hits_in_per_req": sum(
            len(hits) for lists in inputs for hits in lists
        ) / len(inputs),
    }


@probe({
    "genfunc.scalar_product_us": "us",
    "genfunc.terms_out_per_query": "count",
    "estimator.scalar_estimate_us.subrange": "us",
})
def scalar_core(fx, measure):
    from repro.core import GenFunc, SubrangeEstimator

    estimator = SubrangeEstimator()
    representative = fx.representatives[0]
    pool = fx.pool
    polynomials = [
        polys for polys in (
            estimator.polynomials(q, representative) for q, __ in pool
        ) if polys
    ]
    return {
        "genfunc.scalar_product_us": measure(
            lambda i: GenFunc.product(polynomials[i % len(polynomials)]),
            counter=True,
        ) * _US,
        "genfunc.terms_out_per_query": float(median(
            GenFunc.product(polys).n_terms for polys in polynomials
        )),
        "estimator.scalar_estimate_us.subrange": measure(
            lambda i: estimator.estimate(
                pool[i % len(pool)][0], representative, pool[i % len(pool)][1]
            ),
            counter=True,
        ) * _US,
    }


def _fleet_store(representatives, aliases: int = 1):
    """A ``FleetRepresentativeStore`` of the given representatives, each
    under ``aliases`` names (16 x 16 gives the 256-engine kernel shape
    without building 256 corpora inside every traced run)."""
    from repro.representatives import (
        DatabaseRepresentative,
        FleetRepresentativeStore,
    )

    store = FleetRepresentativeStore()
    for copy in range(aliases):
        for representative in representatives:
            if copy:
                representative = DatabaseRepresentative(
                    name=f"{representative.name}x{copy:02d}",
                    n_documents=representative.n_documents,
                    term_stats=dict(representative.items()),
                )
            store.add(representative)
    return store


def _short_queries(fx) -> List[tuple]:
    """Pool entries of at most three terms: a longer query's kernel cost
    swings 100x with the terms it drew, which would make a probe's median
    depend on which of them fit the time budget."""
    return [(q, t) for q, t in fx.pool if len(q.terms) <= 3]


def _wide_store(fx):
    """The 256-engine kernel shape, built once per fixture."""
    if getattr(fx, "_wide_store", None) is None:
        fx._wide_store = _fleet_store(fx.representatives, aliases=16)
    return fx._wide_store


@probe({
    "vectorized.grid_ms.subrange.16": "ms",
    "vectorized.grid_ms.subrange.256": "ms",
    "vectorized.grid_ms.basic.256": "ms",
    "vectorized.grid_ms.gloss-hc.16": "ms",
    "vectorized.grid_ms.gloss-hc.256": "ms",
    "vectorized.fallback_rows": "count",
})
def vectorized_grids(fx, measure):
    from repro.core import (
        BasicEstimator,
        GlossHighCorrelationEstimator,
        SubrangeEstimator,
        fallback_count,
        fleet_usefulness_grid,
    )

    stores = {16: _fleet_store(fx.representatives), 256: _wide_store(fx)}
    pool = _short_queries(fx)
    out = {}
    fallbacks_before = fallback_count()
    for label, estimator, widths in (
        ("subrange", SubrangeEstimator(), (16, 256)),
        ("basic", BasicEstimator(), (256,)),
        ("gloss-hc", GlossHighCorrelationEstimator(), (16, 256)),
    ):
        for width in widths:
            store = stores[width]
            out[f"vectorized.grid_ms.{label}.{width}"] = measure(
                lambda i: fleet_usefulness_grid(
                    estimator, store, pool[i % len(pool)][0],
                    [pool[i % len(pool)][1]],
                ),
                counter=True, budget=0.15 if width == 256 else 0.08,
            ) * _MS
    out["vectorized.fallback_rows"] = float(fallback_count() - fallbacks_before)
    return out


@probe({"genfunc.batched_product_ms": "ms"})
def genfunc_batched_product(fx, measure):
    """Time inside ``BatchedGenFunc.multiply_rows`` per query — the batched
    product as the 256-engine subrange grid runs it."""
    from repro.core import SubrangeEstimator, fleet_usefulness_grid
    from repro.core.genfunc import BatchedGenFunc
    from spans import Tracer

    store, estimator = _wide_store(fx), SubrangeEstimator()
    tracer = Tracer()
    if not tracer.wrap(BatchedGenFunc, "multiply_rows", "multiply_rows"):
        raise AttributeError("BatchedGenFunc.multiply_rows")
    per_query = []
    try:
        for query, threshold in _short_queries(fx)[:16]:
            before = len(tracer.spans)
            fleet_usefulness_grid(estimator, store, query, [threshold])
            per_query.append(sum(
                s["end_ns"] - s["start_ns"] for s in tracer.spans[before:]
            ))
    finally:
        tracer.unwrap_all()
    return median(per_query) / 1e6


@probe({"columnar.gather_us": "us", "columnar.nbytes_per_entry": "bytes"})
def columnar_gather(fx, measure):
    store = _wide_store(fx)
    ids = [store.vocab.ids_of(q.terms) for q, __ in _short_queries(fx)]
    return {
        "columnar.gather_us": measure(
            lambda i: store.gather(ids[i % len(ids)]), counter=True
        ) * _US,
        "columnar.nbytes_per_entry": store.nbytes / store.total_entries,
    }


@probe({
    "columnar.add_ms": "ms",
    "representatives.build_ms": "ms",
})
def representatives_build(fx, measure):
    from repro.representatives import FleetRepresentativeStore

    engines, representatives = fx.engines, fx.representatives

    def add_all(store):
        for representative in representatives:
            store.add(representative)
        len(store.engine_names)

    return {
        "columnar.add_ms": measure(
            add_all, setup=lambda i: FleetRepresentativeStore(), budget=0.15
        ) * _MS / len(representatives),
        "representatives.build_ms": measure(
            lambda i: build_representative(engines[i % len(engines)]),
            counter=True, budget=0.2,
        ) * _MS,
    }


@probe({
    "live.mutate_ms": "ms",
    "delta.encode_us": "us",
    "delta.bytes_p50": "bytes",
    "delta.compose_us": "us",
    "broker.apply_delta_ms": "ms",
    "columnar.apply_delta_ms": "ms",
    "delta.cache_evicted_per_apply": "count",
    "delta.cache_retained_share": "ratio",
})
def write_cycle(fx, measure):
    """One live engine churning under a warm 16-engine columnar broker:
    add a spare document, drop the oldest, ship the delta."""
    from repro.fleet import LiveEngineServer
    from spans import Tracer

    model = corpus_model(1, docs_per_engine=36)
    documents = documents_of(model.generate_group(0))
    live = LiveEngineServer("livefx", documents[:30])
    broker = columnar_broker(fx.engines, fx.representatives)
    broker.sync_representative(live)
    tracer = Tracer()
    tracer.wrap(broker.fleet, "apply_delta", "columnar.apply_delta")
    mutate, encode, compose, apply_, sizes, evicted, retained = ([] for __ in range(7))
    try:
        for step, document in enumerate(documents[30:]):
            for query, threshold in fx.pool:  # re-warm what the apply evicted
                broker.estimate_all(query, threshold)
            started = time.perf_counter()
            added = live.add_documents([document])
            removed = live.remove_documents([documents[step].doc_id])
            mutate.append(time.perf_counter() - started)
            started = time.perf_counter()
            composed = added.compose(removed)
            compose.append(time.perf_counter() - started)
            started = time.perf_counter()
            wire = composed.encode()
            encode.append(time.perf_counter() - started)
            sizes.append(len(wire))
            started = time.perf_counter()
            report = broker.apply_representative_delta(composed)
            apply_.append(time.perf_counter() - started)
            evicted.append(report.cache_evicted)
            total = report.cache_evicted + report.cache_retained
            retained.append(report.cache_retained / total if total else 1.0)
    finally:
        tracer.unwrap_all()
    return {
        "live.mutate_ms": median(mutate) * _MS,
        "delta.encode_us": median(encode) * _US,
        "delta.bytes_p50": float(median(sizes)),
        "delta.compose_us": median(compose) * _US,
        "broker.apply_delta_ms": median(apply_) * _MS,
        "columnar.apply_delta_ms": median(
            s["end_ns"] - s["start_ns"] for s in tracer.spans
        ) / 1e6,
        "delta.cache_evicted_per_apply": sum(evicted) / len(evicted),
        "delta.cache_retained_share": sum(retained) / len(retained),
    }
