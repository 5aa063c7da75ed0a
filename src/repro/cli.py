"""Command-line interface.

Subcommands::

    repro-usefulness synth --out-dir data/          # corpora + query log
    repro-usefulness represent --collection data/D1.jsonl.gz --out D1.rep.json
    repro-usefulness estimate --collection ... --query "terms ..." --threshold 0.2
    repro-usefulness evaluate --database D1 D2 D3    # Tables 1-12
    repro-usefulness eval --config columnar --out-dir results
    repro-usefulness fleet --groups 16 --workers 8 --timeout 2.0
    repro-usefulness stats --format prometheus
    repro-usefulness scalability
    repro-usefulness serve engine --collection data/D1.jsonl.gz --port 8751
    repro-usefulness serve gateway --engines http://127.0.0.1:8751
    repro-usefulness serve shard --collections data/D1.jsonl.gz --shard-index 0
    repro-usefulness serve coordinator --shards 4 --collections data/*.jsonl.gz

Every command prints plain text to stdout; all randomness is seeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core import fleet_usefulness_grid, get_estimator, true_usefulness
from repro.corpus import (
    Query,
    analyze_collection,
    check_query_length,
    load_collection,
    load_trec_collection,
    save_collection,
    save_queries,
)
from repro.corpus.synth import NewsgroupModel, QueryLogModel, build_paper_databases
from repro.engine import SearchEngine
from repro.evaluation import (
    MethodSpec,
    degraded_methods,
    format_conclusions,
    format_paper_tables,
    format_sizing_table,
    run_usefulness_experiment,
)
from repro.metasearch import MetasearchBroker, plan_allocation
from repro.representatives import (
    DatabaseRepresentative,
    FleetRepresentativeStore,
    PAPER_COLLECTION_STATS,
    build_representative,
    quantize_representative,
    sizing_for_collection,
)
from repro.version import package_version

__all__ = ["main", "build_parser"]


def _cmd_synth(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = NewsgroupModel(seed=args.seed)
    d1, d2, d3 = build_paper_databases(model)
    for collection in (d1, d2, d3):
        path = out_dir / f"{collection.name}.jsonl.gz"
        save_collection(collection, path)
        print(f"wrote {path} ({collection.n_documents} docs, {collection.n_terms} terms)")
    queries = QueryLogModel(model, seed=args.query_seed).generate(args.n_queries)
    qpath = out_dir / "queries.jsonl.gz"
    save_queries(queries, qpath)
    print(f"wrote {qpath} ({len(queries)} queries)")
    return 0


def _cmd_represent(args: argparse.Namespace) -> int:
    collection = load_collection(args.collection)
    engine = SearchEngine(collection)
    representative = build_representative(engine)
    representative.save(args.out)
    print(
        f"wrote {args.out} ({representative.n_terms} terms, "
        f"{representative.n_documents} docs)"
    )
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    try:
        estimator = get_estimator(args.method)
        query = check_query_length(Query.from_terms(args.query.split()))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    collection = load_collection(args.collection)
    engine = SearchEngine(collection)
    if args.representative:
        representative = DatabaseRepresentative.load(args.representative)
    else:
        representative = build_representative(engine)
    store = FleetRepresentativeStore()
    store.add(representative)
    nodoc, avgsim = fleet_usefulness_grid(estimator, store, query, [args.threshold])
    truth = true_usefulness(engine, query, args.threshold)
    print(f"database : {collection.name} ({collection.n_documents} docs)")
    print(f"query    : {' '.join(query.terms)}  (threshold {args.threshold})")
    print(f"method   : {estimator.label}")
    print(f"estimated: NoDoc={nodoc[0, 0]:.2f}  AvgSim={avgsim[0, 0]:.4f}")
    print(f"true     : NoDoc={truth.nodoc:.0f}  AvgSim={truth.avgsim:.4f}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.queries < 1:
        print(f"error: --queries must be >= 1, got {args.queries}", file=sys.stderr)
        return 2
    for flag, names in (("--database", args.database), ("--methods", args.methods)):
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            print(f"error: {flag} names {', '.join(repeated)} more than once",
                  file=sys.stderr)
            return 2
    try:
        estimators = [get_estimator(name) for name in args.methods]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    model = NewsgroupModel(seed=args.seed)
    collections = build_paper_databases(model)
    # One database at a time is indexed and swept; the rest wait as
    # collections.
    pending = [collections[int(name[1]) - 1] for name in args.database]
    del collections
    queries = QueryLogModel(model, seed=args.query_seed).generate(args.queries)
    results = {}
    while pending:
        engine = SearchEngine(pending.pop(0))
        representative = build_representative(engine)
        methods = [
            MethodSpec(name, estimator, representative)
            for name, estimator in zip(args.methods, estimators)
        ]
        if "subrange" in args.methods:
            methods += degraded_methods(representative)
        results[engine.name] = run_usefulness_experiment(engine, queries, methods)
    print(format_paper_tables(results))
    print()
    print(format_conclusions(results))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    collection = load_collection(args.collection)
    stats = analyze_collection(collection)
    print(f"collection           : {collection.name}")
    print(f"documents            : {stats.n_documents}")
    print(f"distinct terms       : {stats.n_terms}")
    print(f"tokens               : {stats.n_tokens}")
    print(f"mean / median length : {stats.mean_doc_length:.1f} / "
          f"{stats.median_doc_length:.1f}")
    print(f"Zipf exponent (head) : {stats.zipf_exponent:.2f} "
          f"(R^2 {stats.zipf_r_squared:.3f})")
    print(f"Heaps beta           : {stats.heaps_beta:.2f}")
    print(f"df Gini coefficient  : {stats.df_gini:.2f}")
    sizing = sizing_for_collection(collection)
    print(f"representative       : {sizing.representative_pages:.1f} pages "
          f"({sizing.percent:.2f}% of collection; "
          f"{sizing.quantized_percent:.2f}% one-byte)")
    return 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    try:
        query = check_query_length(Query.from_terms(args.query.split()))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    representatives = {}
    for path in args.representatives:
        representative = DatabaseRepresentative.load(path)
        representatives[representative.name] = representative
    threshold, quotas = plan_allocation(query, representatives, args.k)
    print(f"query    : {' '.join(query.terms)}")
    print(f"desired  : {args.k} documents")
    print(f"threshold: {threshold:.4f}")
    for name in sorted(quotas):
        print(f"  {name}: {quotas[name]}")
    return 0


def _cmd_import_trec(args: argparse.Namespace) -> int:
    collection = load_trec_collection(
        args.files, name=args.name, limit=args.limit
    )
    save_collection(collection, args.out)
    print(
        f"wrote {args.out} ({collection.n_documents} docs, "
        f"{collection.n_terms} terms)"
    )
    return 0


class _InjectedFault:
    """Demo-only engine wrapper adding latency (or a hang) to ``search``;
    everything else delegates, so registration and the oracle still work."""

    def __init__(self, inner: SearchEngine, delay: float):
        self.inner = inner
        self.delay = delay

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def search(self, query, threshold=0.0):
        import time

        time.sleep(self.delay)
        return self.inner.search(query, threshold)


def _synth_model(scale: str, seed: int) -> NewsgroupModel:
    """The synthetic corpus behind the fleet/stats demos: a quick small
    variant or the paper's full newsgroup sizing."""
    if scale == "small":
        return NewsgroupModel(
            vocab_size=4000,
            topic_size=120,
            topic_band=(50, 1500),
            mean_length=80,
            seed=seed,
            group_sizes=[60, 50, 40, 30, 25, 20, 15, 12, 10, 8] * 6,
        )
    return NewsgroupModel(seed=seed)


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run a query log through a full broker fleet with the concurrency,
    timeout, retry, and caching knobs — the production dispatch demo."""
    import time

    if args.groups < 1:
        print(f"error: --groups must be >= 1, got {args.groups}", file=sys.stderr)
        return 2
    if args.queries < 1:
        print(f"error: --queries must be >= 1, got {args.queries}", file=sys.stderr)
        return 2
    model = _synth_model(args.scale, args.seed)
    n_groups = min(args.groups, model.n_groups)
    try:
        broker = MetasearchBroker(
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            cache_size=args.cache_size,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for group in range(n_groups):
        engine = SearchEngine(model.generate_group(group))
        if group < args.hang_engines:
            slow = _InjectedFault(engine, delay=args.hang_seconds)
            broker.register(slow, representative=build_representative(engine))
        else:
            broker.register(engine)
    queries = QueryLogModel(model, seed=args.query_seed).generate(args.queries)

    invoked = hits = 0
    failures: dict = {}
    start = time.perf_counter()
    for query in queries:
        response = broker.search(query, args.threshold)
        invoked += len(response.invoked)
        hits += len(response.hits)
        for failure in response.failures:
            failures[failure.kind] = failures.get(failure.kind, 0) + 1
    elapsed = time.perf_counter() - start

    broadcast = len(broker) * len(queries)
    print(f"fleet    : {len(broker)} engines, {len(queries)} queries, "
          f"threshold {args.threshold:.2f}")
    print(f"dispatch : workers={args.workers} timeout={args.timeout} "
          f"retries={args.retries} cache_size={args.cache_size}")
    print(f"elapsed  : {elapsed:.2f}s total, "
          f"{1000.0 * elapsed / max(1, len(queries)):.1f}ms/query")
    print(f"invoked  : {invoked} engine calls "
          f"({invoked / broadcast:.1%} of broadcast)")
    print(f"hits     : {hits} merged hits")
    failure_text = ", ".join(
        f"{count} {kind}" for kind, count in sorted(failures.items())
    )
    print(f"failures : {failure_text or 'none'}")
    print(f"cache    : {broker.cache.hits + broker.cache.misses} lookups, "
          f"{broker.cache.hit_rate:.1%} hit rate, "
          f"{len(broker.cache)} resident")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a seeded workload through a fully instrumented broker and export
    the collected metrics as JSON or Prometheus text format."""
    from repro.obs import MetricsRegistry, registry_to_json, registry_to_prometheus

    if args.groups < 1:
        print(f"error: --groups must be >= 1, got {args.groups}", file=sys.stderr)
        return 2
    if args.queries < 1:
        print(f"error: --queries must be >= 1, got {args.queries}", file=sys.stderr)
        return 2
    model = _synth_model("small", args.seed)
    registry = MetricsRegistry()
    try:
        broker = MetasearchBroker(
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            cache_size=args.cache_size,
            registry=registry,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for group in range(min(args.groups, model.n_groups)):
        broker.register(SearchEngine(model.generate_group(group)))
    queries = QueryLogModel(model, seed=args.query_seed).generate(args.queries)
    response = None
    for query in queries:
        response = broker.search(query, args.threshold)
    if args.show_trace and response is not None:
        # The last query's per-stage trace; stderr keeps stdout parseable.
        print(response.trace.format(), file=sys.stderr)
    if args.format == "json":
        text = registry_to_json(registry)
    else:
        text = registry_to_prometheus(registry)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out} ({len(registry)} series)")
    else:
        print(text)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run a query log through the batched estimation/search pipeline and
    report its amortization — optionally checking it against the serial
    per-query path, which must agree exactly."""
    import time

    if args.groups < 1:
        print(f"error: --groups must be >= 1, got {args.groups}", file=sys.stderr)
        return 2
    if args.queries < 1:
        print(f"error: --queries must be >= 1, got {args.queries}", file=sys.stderr)
        return 2
    model = _synth_model(args.scale, args.seed)
    n_groups = min(args.groups, model.n_groups)

    def make_broker() -> MetasearchBroker:
        broker = MetasearchBroker(cache_size=args.cache_size)
        for group in range(n_groups):
            broker.register(SearchEngine(model.generate_group(group)))
        return broker

    try:
        broker = make_broker()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    queries = QueryLogModel(model, seed=args.query_seed).generate(args.queries)

    start = time.perf_counter()
    if args.mode == "estimate":
        rows = broker.estimate_batch(queries, args.threshold)
        invoked = hits = None
    else:
        responses = broker.search_batch(queries, args.threshold)
        rows = [response.estimates for response in responses]
        invoked = sum(len(r.invoked) for r in responses)
        hits = sum(len(r.hits) for r in responses)
    batch_elapsed = time.perf_counter() - start

    print(f"batch    : {len(broker)} engines, {len(queries)} queries, "
          f"threshold {args.threshold:.2f}, mode {args.mode}")
    print(f"elapsed  : {batch_elapsed:.2f}s total, "
          f"{1000.0 * batch_elapsed / len(queries):.1f}ms/query")
    if invoked is not None:
        print(f"invoked  : {invoked} engine calls, {hits} merged hits")
    print(f"cache    : {broker.cache.hits + broker.cache.misses} lookups, "
          f"{broker.cache.hit_rate:.1%} hit rate, "
          f"{len(broker.cache)} resident")

    if args.compare_serial:
        serial_broker = make_broker()
        start = time.perf_counter()
        if args.mode == "estimate":
            serial_rows = [
                serial_broker.estimate_all(query, args.threshold)
                for query in queries
            ]
        else:
            serial_rows = [
                serial_broker.search(query, args.threshold).estimates
                for query in queries
            ]
        serial_elapsed = time.perf_counter() - start
        speedup = serial_elapsed / batch_elapsed if batch_elapsed > 0 else float("inf")
        print(f"serial   : {serial_elapsed:.2f}s total ({speedup:.2f}x speedup)")
        if serial_rows == rows:
            print("equality : batch == serial (exact)")
        else:
            print("equality : MISMATCH — batch differs from serial", file=sys.stderr)
            return 1
    return 0


def _load_engine(args: argparse.Namespace) -> SearchEngine:
    """An engine from either artifact: a JSONL collection or a saved index."""
    if args.index:
        from repro.index.store import load_index

        return SearchEngine.from_index(load_index(args.index))
    return SearchEngine(load_collection(args.collection))


def _serve(server, args: argparse.Namespace) -> int:
    """Shared serve loop: announce the URL, run until drained, flush."""
    # flush so a parent process (test harness, CI) can read the bound
    # port before the first request arrives.
    print(f"serving {server.app.role} at {server.url}", flush=True)
    completed = server.run(drain_timeout=args.drain_timeout)
    if args.metrics_out and server.final_metrics is not None:
        Path(args.metrics_out).write_text(
            server.final_metrics, encoding="utf-8"
        )
        print(f"wrote final metrics to {args.metrics_out}")
    print(f"drained ({'complete' if completed else 'timed out'})")
    return 0 if completed else 1


def _cmd_serve_engine(args: argparse.Namespace) -> int:
    """Serve one search engine over HTTP from a saved artifact."""
    from repro.serving import EngineApp, LiveEngineApp, ServingServer

    if args.live:
        if not args.collection:
            print(
                "error: --live needs --collection (a live corpus mutates; "
                "a frozen .npz index cannot)",
                file=sys.stderr,
            )
            return 2
        from repro.corpus.document import Document
        from repro.fleet import LiveEngineServer

        collection = load_collection(args.collection)
        documents = [
            Document(
                doc_id=collection.doc_id(i), terms=collection.terms_of(i)
            )
            for i in range(len(collection))
        ]
        live = LiveEngineServer(collection.name, documents)
        app = LiveEngineApp(
            live,
            registry=_serving_registry(),
            default_deadline=args.default_deadline,
        )
        server = ServingServer(app, host=args.host, port=args.port)
        print(
            f"live engine {live.name!r}: {live.n_documents} documents, "
            f"version {live.version}",
            flush=True,
        )
        return _serve(server, args)
    engine = _load_engine(args)
    app = EngineApp(
        engine,
        registry=_serving_registry(),
        default_deadline=args.default_deadline,
    )
    server = ServingServer(app, host=args.host, port=args.port)
    print(
        f"engine {engine.name!r}: {engine.n_documents} documents",
        flush=True,
    )
    return _serve(server, args)


class _QuantizedRemote:
    """``serve gateway --quantize``'s engine seat: a remote engine whose
    every sync answers its *full* delta, one-byte quantized.  The
    quantizer fits its grids across all terms, so an edit delta cannot be
    quantized term by term: a pull quantizes the whole, as registration
    does."""

    def __init__(self, remote, levels: int):
        self.remote, self.levels, self.host = remote, levels, remote.host

    @property
    def name(self) -> str:
        return self.remote.name

    def sync_representative(self, since=None):
        from repro.fleet.delta import diff_representatives

        full = self.remote.sync_representative(None)
        return diff_representatives(
            DatabaseRepresentative(full.name, 0, {}),
            quantize_representative(full.as_representative(), self.levels),
            from_version=0,
            to_version=full.to_version,
        )


def _cmd_serve_gateway(args: argparse.Namespace) -> int:
    """Serve a metasearch broker over remote and/or local engines."""
    from repro.serving import (
        GatewayApp,
        RemoteEngine,
        RemoteServingError,
        ServingServer,
    )

    if not args.engines and not args.collections:
        print(
            "error: give at least one --engines URL or --collections path",
            file=sys.stderr,
        )
        return 2
    registry = _serving_registry()
    try:
        broker = MetasearchBroker(
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            cache_size=args.cache_size,
            registry=registry,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.quantize is not None and args.quantize < 1:
        print(f"error: --quantize must be >= 1, got {args.quantize}",
              file=sys.stderr)
        return 2
    for url in args.engines or []:
        remote = RemoteEngine(url, timeout=args.engine_timeout)
        if args.quantize is not None:
            remote = _QuantizedRemote(remote, args.quantize)
        try:
            report = broker.sync_representative(remote)
        except (RemoteServingError, ValueError) as exc:
            print(f"error: cannot register {url}: {exc}", file=sys.stderr)
            return 2
        print(
            f"registered remote engine {remote.name!r} at {url} "
            f"(version {report.to_version})",
            flush=True,
        )
    for path in args.collections or []:
        engine = SearchEngine(load_collection(path))
        broker.register(engine)
        print(f"registered local engine {engine.name!r} from {path}", flush=True)
    app = GatewayApp(
        broker,
        max_active=args.max_active,
        max_queued=args.max_queued,
        max_queue_wait=args.max_queue_wait,
        retry_after=args.retry_after,
        coalesce_window=args.coalesce_window_ms / 1000.0,
        coalesce_max_batch=args.coalesce_max_batch,
        registry=registry,
        default_deadline=args.default_deadline,
    )
    return _serve(ServingServer(app, host=args.host, port=args.port), args)


def _serving_registry():
    from repro.obs import MetricsRegistry

    return MetricsRegistry()


def _cmd_serve_shard(args: argparse.Namespace) -> int:
    """Serve one shard of a partitioned fleet: a broker over the engines
    assigned to this shard, behind the shard endpoints."""
    from repro.serving import ServingServer, ShardApp

    registry = _serving_registry()
    fleet = None
    if args.slice:
        from repro.representatives.columnar import FleetRepresentativeStore

        fleet = FleetRepresentativeStore.load_npz(args.slice)
        print(
            f"loaded slice {args.slice} "
            f"({len(fleet)} representatives)",
            flush=True,
        )
    try:
        broker = MetasearchBroker(
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            cache_size=args.cache_size,
            fleet=fleet,
            registry=registry,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in args.collections or []:
        engine = SearchEngine(load_collection(path))
        broker.register(engine)
        print(
            f"registered local engine {engine.name!r} from {path}", flush=True
        )
    if not len(broker):
        print("error: shard has no engines (give --collections)", file=sys.stderr)
        return 2
    app = ShardApp(
        broker,
        shard_index=args.shard_index,
        registry=registry,
        default_deadline=args.default_deadline,
    )
    server = ServingServer(app, host=args.host, port=args.port)
    return _serve(server, args)


def _forward_output(stream) -> None:
    """Copy a shard's later output to stderr: a full pipe would block it."""
    try:
        for line in stream:
            sys.stderr.write(line)
    except (OSError, ValueError):  # the pipe was closed under the read
        pass


def _stop_shards(processes) -> None:
    """Terminate and reap the shard workers; close their output pipes."""
    import subprocess

    for proc in processes:
        proc.terminate()
    for proc in processes:
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for proc in processes:
        proc.stdout.close()


def _spawn_shards(args: argparse.Namespace) -> tuple:
    """Launch ``--shards`` shard worker subprocesses, each owning a
    round-robin slice of ``--collections``; returns (processes, urls).
    Each shard's output after its announce line goes on to stderr."""
    import re
    import subprocess
    import threading
    import time

    from repro.representatives import partition_round_robin

    slices = [
        paths
        for paths in partition_round_robin(args.collections, args.shards)
        if paths
    ]
    processes = []
    try:
        for index, paths in enumerate(slices):
            command = [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "shard",
                "--shard-index",
                str(index),
                "--collections",
                *paths,
            ]
            processes.append(
                subprocess.Popen(
                    command,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                )
            )
        urls = []
        for index, proc in enumerate(processes):
            url = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                match = re.search(r"serving shard at (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
            if url is None:
                raise RuntimeError(f"shard {index} did not announce its URL")
            print(f"shard {index} at {url}", flush=True)
            urls.append(url)
            forward = threading.Thread(target=_forward_output, args=(proc.stdout,))
            forward.daemon = True
            forward.start()
    except BaseException:
        # The caller holds no handle on the shards started so far until
        # this returns: stop them here, or they outlive the coordinator.
        _stop_shards(processes)
        raise
    return processes, urls


def _cmd_serve_coordinator(args: argparse.Namespace) -> int:
    """Serve the coordinator over shard workers — spawned
    here (``--shards N`` partitioning ``--collections``) or already
    running (``--shard-urls``)."""
    from repro.serving import (
        CoordinatorApp,
        RemoteServingError,
        ServingServer,
        ShardedFleet,
    )

    if bool(args.shards) == bool(args.shard_urls):
        print(
            "error: give exactly one of --shards N (spawn workers from "
            "--collections) or --shard-urls (attach to running workers)",
            file=sys.stderr,
        )
        return 2
    children = []
    try:
        if args.shards:
            if not args.collections:
                print(
                    "error: --shards needs --collections to partition",
                    file=sys.stderr,
                )
                return 2
            try:
                children, shard_urls = _spawn_shards(args)
            except (OSError, RuntimeError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            shard_urls = list(args.shard_urls)
        registry = _serving_registry()
        fleet = ShardedFleet(
            shard_urls,
            timeout=args.timeout,
            retries=args.retries,
            shard_timeout=args.shard_timeout,
            registry=registry,
        )
        try:
            fleet.attach(timeout=args.attach_timeout)
        except (RemoteServingError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"attached {fleet.n_shards} shard(s), "
            f"{len(fleet)} engines: {', '.join(fleet.engine_names)}",
            flush=True,
        )
        app = CoordinatorApp(
            fleet,
            max_active=args.max_active,
            max_queued=args.max_queued,
            max_queue_wait=args.max_queue_wait,
            retry_after=args.retry_after,
            coalesce_window=args.coalesce_window_ms / 1000.0,
            coalesce_max_batch=args.coalesce_max_batch,
            registry=registry,
            default_deadline=args.default_deadline,
        )
        return _serve(ServingServer(app, host=args.host, port=args.port), args)
    finally:
        _stop_shards(children)


def _cmd_convert_rep(args: argparse.Namespace) -> int:
    """Convert a representative between JSON and the columnar ``.npz`` form."""
    from pathlib import Path

    from repro.representatives.columnar import ColumnarRepresentative

    src = Path(args.input)
    dst = Path(args.output)
    to_npz = dst.suffix == ".npz"
    from_npz = src.suffix == ".npz"
    if to_npz == from_npz:
        print(
            "convert-rep: exactly one of input/output must end in .npz "
            f"(got {src.name!r} -> {dst.name!r})"
        )
        return 2
    if to_npz:
        representative = DatabaseRepresentative.load(src)
        ColumnarRepresentative.from_representative(representative).save_npz(dst)
    else:
        representative = ColumnarRepresentative.load_npz(src).to_representative()
        representative.save(dst)
    print(
        f"{src} ({src.stat().st_size} bytes) -> {dst} ({dst.stat().st_size} "
        f"bytes): {representative.name!r}, {len(representative)} terms, "
        f"{representative.n_documents} documents"
    )
    return 0


def _load_any_representative(path: "Path"):
    """A representative from JSON or the columnar ``.npz`` form, by suffix."""
    from repro.representatives.columnar import ColumnarRepresentative

    if path.suffix == ".npz":
        return ColumnarRepresentative.load_npz(path).to_representative()
    return DatabaseRepresentative.load(path)


def _cmd_rep_diff(args: argparse.Namespace) -> int:
    """Diff two representative snapshots into the equivalent delta."""
    from pathlib import Path

    from repro.fleet.delta import canonicalize, diff_representatives

    old = canonicalize(_load_any_representative(Path(args.old)))
    new = canonicalize(_load_any_representative(Path(args.new)))
    if old.name != new.name:
        print(
            f"rep-diff: representatives name different databases "
            f"({old.name!r} vs {new.name!r})",
            file=sys.stderr,
        )
        return 2
    delta = diff_representatives(
        old, new, from_version=args.from_version, to_version=args.to_version
    )
    print(
        f"{args.old} -> {args.new}: {delta.n_sets} set, {delta.n_dels} del, "
        f"n_documents {delta.from_n_documents} -> {delta.n_documents}, "
        f"{delta.nbytes} wire bytes"
    )
    shown = 0
    for record in delta.records:
        if shown >= args.limit:
            remaining = len(delta.records) - shown
            print(f"  ... {remaining} more records (raise --limit)")
            break
        if record.op == "del":
            before = old.get(record.term)
            print(f"  del {record.term!r} (was p={before.probability:.6g})")
        else:
            before = old.get(record.term)
            stats = record.stats
            was = (
                f"was p={before.probability:.6g} w={before.mean:.6g}"
                if before is not None
                else "new term"
            )
            print(
                f"  set {record.term!r} p={stats.probability:.6g} "
                f"w={stats.mean:.6g} ({was})"
            )
        shown += 1
    if delta.is_empty:
        print("  (no per-term changes)")
    if args.out:
        Path(args.out).write_bytes(delta.encode())
        print(f"wrote canonical delta to {args.out} ({delta.nbytes} bytes)")
    return 0


_EVAL_ESTIMATORS = [
    "basic",
    "binary-independence",
    "gloss-hc",
    "gloss-disjoint",
    "subrange",
]


def _eval_backends(args, estimator_names, engines, representatives, stack):
    """Backends for ``repro eval``, one per estimator, behind the chosen
    configuration; resources (sharded topologies) register on ``stack``."""
    from repro.representatives import partition_round_robin

    backends = {}
    if args.config == "columnar":
        for name in estimator_names:
            broker = MetasearchBroker(estimator=get_estimator(name))
            for engine in engines:
                broker.register(engine, representative=representatives[engine.name])
            backends[name] = broker
        return backends

    if args.config == "delta":
        # Live-fleet path: each engine starts registered from a *partial*
        # corpus snapshot, then the broker catches up to the full corpus
        # through versioned deltas (including a remove-then-re-add to
        # exercise document removal) — the estimates the harness scores
        # come from delta-applied representatives, not fresh builds.
        from repro.corpus import Document
        from repro.fleet import LiveEngineServer

        for name in estimator_names:
            broker = MetasearchBroker(estimator=get_estimator(name))
            for engine in engines:
                collection = engine.collection
                documents = [
                    Document(
                        doc_id=collection.doc_id(i),
                        terms=collection.terms_of(i),
                    )
                    for i in range(len(collection))
                ]
                held_back = max(1, len(documents) // 4)
                live = LiveEngineServer(
                    engine.name, documents[: len(documents) - held_back]
                )
                base = live.delta_since(0)
                broker.register(
                    engine,
                    representative=base.as_representative(),
                    version=base.to_version,
                )
                if live.n_documents:
                    victim = documents[0]
                    live.remove_documents([victim.doc_id])
                    live.add_documents([victim])
                live.add_documents(documents[len(documents) - held_back :])
                broker.apply_representative_delta(
                    live.delta_since(base.to_version)
                )
            backends[name] = broker
        return backends

    # Sharded: per estimator, a real sharded topology — shard brokers
    # behind in-process HTTP servers, a ShardedFleet coordinator in front
    # estimating from the representatives it read off the shards at
    # attach.  Representatives and hits travel the same wire CI's
    # subprocess topology uses; only the process boundary is elided.
    from repro.serving import ServingServer, ShardApp, ShardedFleet

    for name in estimator_names:
        urls = []
        for index, engine_slice in enumerate(
            s for s in partition_round_robin(engines, args.shards) if s
        ):
            broker = MetasearchBroker()
            for engine in engine_slice:
                broker.register(engine, representative=representatives[engine.name])
            server = ServingServer(ShardApp(broker, shard_index=index))
            server.start_background()
            stack.callback(server.drain, 10.0)
            urls.append(server.url)
        fleet = ShardedFleet(urls, estimator=get_estimator(name)).attach(
            timeout=30.0
        )
        stack.callback(fleet.close)
        backends[name] = fleet
    return backends


def _cmd_eval(args: argparse.Namespace) -> int:
    """Score engine selection as a ranking task over the golden strata
    and emit the timestamped markdown + JSON report."""
    import contextlib

    from repro.evaluation.harness import (
        DEFAULT_N_ENGINES,
        DEFAULT_SEED,
        build_eval_fleet,
        check_floors,
        generate_golden_strata,
        golden_manifest,
        load_floors,
        load_golden_strata,
        run_evaluation,
        write_golden_strata,
        write_report,
    )
    from repro.evaluation.harness.report import utc_timestamp
    from repro.representatives import build_representative

    golden_dir = Path(args.golden_dir) if args.golden_dir else None
    n_engines = args.engines if args.engines is not None else DEFAULT_N_ENGINES

    if args.write_golden:
        if golden_dir is None:
            print("error: --write-golden needs --golden-dir", file=sys.stderr)
            return 2
        seed = args.seed if args.seed is not None else DEFAULT_SEED
        written = write_golden_strata(golden_dir, seed=seed, n_engines=n_engines)
        for name, path in sorted(written.items()):
            print(f"wrote {path} ({name})")
        return 0

    committed = golden_dir is not None and (golden_dir / "manifest.json").exists()
    if committed:
        manifest = golden_manifest(golden_dir)
        seed = int(manifest["seed"])
        n_engines = int(manifest["n_engines"])
        if args.seed is not None and args.seed != seed:
            # An explicit seed overrides the committed sets: regenerate in
            # memory so the whole run (fleet + queries) derives from it.
            seed, committed = args.seed, False
            n_engines = args.engines if args.engines is not None else n_engines
    else:
        seed = args.seed if args.seed is not None else DEFAULT_SEED

    if committed:
        strata = load_golden_strata(golden_dir)
        source = str(golden_dir)
    else:
        strata = generate_golden_strata(seed, n_engines)
        source = f"generated (seed {seed})"

    collections = build_eval_fleet(seed, n_engines)
    engines = [SearchEngine(c) for c in collections]
    representatives = {
        engine.name: build_representative(engine) for engine in engines
    }
    print(
        f"eval     : config {args.config}, {len(engines)} engines, "
        f"{len(strata)} strata ({sum(s.n_queries for s in strata.values())} "
        f"queries), seed {seed}"
    )
    print(f"golden   : {source}")
    with contextlib.ExitStack() as stack:
        try:
            backends = _eval_backends(
                args, args.estimators, engines, representatives, stack
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = run_evaluation(
            backends,
            engines,
            strata,
            config=args.config,
            seed=seed,
            generated_at=utc_timestamp(),
        )
    paths = write_report(result, args.out_dir)
    print(f"report   : {paths['md']}")
    print(f"report   : {paths['json']}")
    for name in sorted(strata):
        fired = [
            estimator
            for estimator, scores in result.payload["strata"][name][
                "estimators"
            ].items()
            if not scores["tripwires"]["ok"]
        ]
        status = f"TRIPWIRES: {', '.join(fired)}" if fired else "ok"
        print(f"stratum  : {name:<20} {status}")
    if args.check_floors:
        violations = check_floors(result.payload, load_floors(args.check_floors))
        if violations:
            for violation in violations:
                print(f"floor    : VIOLATION {violation}", file=sys.stderr)
            return 1
        print(f"floors   : ok ({args.check_floors})")
    return 0


def _cmd_scalability(args: argparse.Namespace) -> int:
    rows = list(PAPER_COLLECTION_STATS)
    if args.synthetic:
        model = NewsgroupModel(seed=args.seed)
        rows.extend(
            sizing_for_collection(c) for c in build_paper_databases(model)
        )
    print(format_sizing_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-usefulness",
        description="Usefulness estimation for metasearch engine selection "
        "(Meng et al., ICDE 1999 reproduction).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic D1/D2/D3 + query log")
    p.add_argument("--out-dir", default="data")
    p.add_argument("--seed", type=int, default=1999)
    p.add_argument("--query-seed", type=int, default=42)
    p.add_argument("--n-queries", type=int, default=6234)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("represent", help="build a database representative")
    p.add_argument("--collection", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("estimate", help="estimate usefulness for one query")
    p.add_argument("--collection", required=True)
    p.add_argument("--representative", default=None)
    p.add_argument("--query", required=True, help="space-separated terms")
    p.add_argument("--threshold", type=float, default=0.2)
    p.add_argument("--method", default="subrange")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "evaluate",
        help="reproduce the paper's Tables 1-12 beside the published values",
    )
    p.add_argument("--database", choices=("D1", "D2", "D3"), nargs="+",
                   default=["D1"])
    p.add_argument("--queries", type=int, default=6234)
    p.add_argument(
        "--methods",
        nargs="+",
        default=["gloss-hc", "prev", "subrange"],
    )
    p.add_argument("--seed", type=int, default=1999)
    p.add_argument("--query-seed", type=int, default=42)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "convert-rep",
        help="convert a representative between JSON and columnar .npz",
    )
    p.add_argument("input", help="source representative (.json or .npz)")
    p.add_argument(
        "output",
        help="destination; direction follows the .npz extension",
    )
    p.set_defaults(func=_cmd_convert_rep)

    p = sub.add_parser(
        "rep-diff",
        help="diff two representative snapshots into the equivalent delta",
    )
    p.add_argument("old", help="older representative (.json or .npz)")
    p.add_argument("new", help="newer representative (.json or .npz)")
    p.add_argument("--from-version", type=int, default=0,
                   help="version stamp of the older snapshot")
    p.add_argument("--to-version", type=int, default=1,
                   help="version stamp of the newer snapshot")
    p.add_argument("--limit", type=int, default=20,
                   help="per-term records to print before truncating")
    p.add_argument("--out", default=None,
                   help="write the canonical wire-form delta JSON here")
    p.set_defaults(func=_cmd_rep_diff)

    p = sub.add_parser("analyze", help="corpus statistics of a collection")
    p.add_argument("--collection", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "allocate", help="per-engine retrieval quotas for a desired k"
    )
    p.add_argument("--representatives", nargs="+", required=True,
                   help="representative JSON files, one per engine")
    p.add_argument("--query", required=True, help="space-separated terms")
    p.add_argument("-k", type=int, default=10)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser(
        "import-trec", help="convert TREC SGML files into a collection"
    )
    p.add_argument("files", nargs="+")
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_import_trec)

    p = sub.add_parser(
        "fleet",
        help="query a synthetic engine fleet through the concurrent broker",
    )
    p.add_argument("--groups", type=int, default=16, help="engines to register")
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--workers", type=int, default=8,
                   help="engine-call threads of a fan-out with a --timeout; "
                        "without one, calls run on the caller's thread")
    p.add_argument("--timeout", type=float, default=None,
                   help="fan-out deadline in seconds, enforced on up to "
                        "--workers threads (default: none; requires "
                        "workers > 1)")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts after an engine error")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="estimate cache capacity (0 disables)")
    p.add_argument("--scale", choices=("small", "paper"), default="small",
                   help="corpus scale: quick demo or the paper's full size")
    p.add_argument("--hang-engines", type=int, default=0,
                   help="fault injection: make the first N engines hang")
    p.add_argument("--hang-seconds", type=float, default=5.0,
                   help="how long an injected hang sleeps")
    p.add_argument("--seed", type=int, default=1999)
    p.add_argument("--query-seed", type=int, default=42)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "stats",
        help="run an instrumented workload and export query-path metrics",
    )
    p.add_argument("--groups", type=int, default=6, help="engines to register")
    p.add_argument("--queries", type=int, default=25)
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--workers", type=int, default=4,
                   help="engine-call threads of a fan-out with a --timeout; "
                        "without one, calls run on the caller's thread")
    p.add_argument("--timeout", type=float, default=None,
                   help="fan-out deadline in seconds, enforced on up to "
                        "--workers threads (requires workers > 1)")
    p.add_argument("--retries", type=int, default=0)
    p.add_argument("--cache-size", type=int, default=1024)
    p.add_argument("--format", choices=("json", "prometheus"), default="json",
                   help="export format for the metrics snapshot")
    p.add_argument("--out", default=None,
                   help="write the export to a file instead of stdout")
    p.add_argument("--show-trace", action="store_true",
                   help="print the last query's per-stage trace to stderr")
    p.add_argument("--seed", type=int, default=1999)
    p.add_argument("--query-seed", type=int, default=42)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "batch",
        help="run a query log through the batched estimation pipeline",
    )
    p.add_argument("--groups", type=int, default=8, help="engines to register")
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--mode", choices=("estimate", "search"), default="estimate",
                   help="batched estimation only, or the full search pipeline")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="estimate cache capacity (0 disables)")
    p.add_argument("--compare-serial", action="store_true",
                   help="also run the serial per-query path and verify the "
                        "batch answers match it exactly")
    p.add_argument("--scale", choices=("small", "paper"), default="small",
                   help="corpus scale: quick demo or the paper's full size")
    p.add_argument("--seed", type=int, default=1999)
    p.add_argument("--query-seed", type=int, default=42)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "serve", help="serve an engine or the broker gateway over HTTP"
    )
    serve_sub = p.add_subparsers(dest="role", required=True)

    def _common_serve_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--host", default="127.0.0.1")
        sp.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = pick a free one; the bound URL "
                             "is printed on startup)")
        sp.add_argument("--default-deadline", type=float, default=None,
                        help="budget in seconds for requests without an "
                             "X-Repro-Deadline header")
        sp.add_argument("--drain-timeout", type=float, default=30.0,
                        help="seconds to wait for in-flight requests on "
                             "SIGTERM/SIGINT")
        sp.add_argument("--metrics-out", default=None,
                        help="write the final metrics flush (Prometheus "
                             "text) here after draining")

    sp = serve_sub.add_parser(
        "engine", help="serve one search engine from a saved artifact"
    )
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--collection", default=None,
                        help="JSONL collection to index and serve")
    source.add_argument("--index", default=None,
                        help="saved .npz index to serve without re-indexing")
    sp.add_argument("--live", action="store_true",
                    help="serve a mutable live engine: adds POST /mutate, and "
                         "GET /representative answers its deltas "
                         "(needs --collection)")
    _common_serve_args(sp)
    sp.set_defaults(func=_cmd_serve_engine)

    sp = serve_sub.add_parser(
        "gateway", help="serve the metasearch broker over HTTP engines"
    )
    sp.add_argument("--engines", nargs="+", default=None,
                    help="engine server URLs to register")
    sp.add_argument("--collections", nargs="+", default=None,
                    help="JSONL collections served as in-process engines")
    sp.add_argument("--quantize", type=int, default=None,
                    help="hold remote representatives one-byte quantized "
                         "with this many levels")
    sp.add_argument("--engine-timeout", type=float, default=10.0,
                    help="per-call budget for remote engine requests")
    sp.add_argument("--workers", type=int, default=8,
                    help="engine-call threads of a fan-out with a "
                         "--timeout over in-process (--collections) "
                         "engines; every other fan-out runs on the "
                         "request's thread")
    sp.add_argument("--timeout", type=float, default=None,
                    help="broker fan-out deadline, enforced on up to "
                         "--workers threads (requires workers > 1)")
    sp.add_argument("--retries", type=int, default=0,
                    help="extra attempts after an engine error")
    sp.add_argument("--cache-size", type=int, default=1024,
                    help="estimate cache capacity (0 disables)")
    sp.add_argument("--max-active", type=int, default=8,
                    help="broker requests allowed to run concurrently")
    sp.add_argument("--max-queued", type=int, default=32,
                    help="requests allowed to wait for a slot before "
                         "shedding with 503")
    sp.add_argument("--max-queue-wait", type=float, default=5.0,
                    help="wait cap for queued requests without a deadline")
    sp.add_argument("--retry-after", type=float, default=1.0,
                    help="Retry-After hint on shed responses")
    sp.add_argument("--coalesce-window-ms", type=float, default=0.0,
                    help="coalesce concurrent /estimate and /search "
                         "requests for up to this many milliseconds into "
                         "one broker batch (0 disables; lone requests "
                         "always take the idle fast-path)")
    sp.add_argument("--coalesce-max-batch", type=int, default=64,
                    help="flush a coalescing window at this occupancy")
    _common_serve_args(sp)
    sp.set_defaults(func=_cmd_serve_gateway)

    sp = serve_sub.add_parser(
        "shard", help="serve one shard of a partitioned fleet"
    )
    sp.add_argument("--collections", nargs="+", default=None,
                    help="JSONL collections owned by this shard")
    sp.add_argument("--slice", default=None,
                    help="columnar fleet slice (.npz) holding this shard's "
                         "representatives; engines registered from "
                         "--collections adopt their resident entry")
    sp.add_argument("--shard-index", type=int, default=0,
                    help="this shard's position in the coordinator's list")
    sp.add_argument("--workers", type=int, default=4,
                    help="engine-call threads of a /dispatch under a "
                         "--timeout; without one, calls run on the "
                         "request's thread")
    sp.add_argument("--timeout", type=float, default=None,
                    help="engine fan-out deadline, enforced on up to "
                         "--workers threads (requires workers > 1)")
    sp.add_argument("--retries", type=int, default=0,
                    help="extra attempts after an engine error")
    sp.add_argument("--cache-size", type=int, default=1024,
                    help="estimate cache capacity (0 disables)")
    _common_serve_args(sp)
    sp.set_defaults(func=_cmd_serve_shard)

    sp = serve_sub.add_parser(
        "coordinator",
        help="serve the coordinator (the broker) over shard workers",
    )
    sp.add_argument("--shards", type=int, default=None,
                    help="spawn this many shard worker processes, "
                         "partitioning --collections round-robin")
    sp.add_argument("--collections", nargs="+", default=None,
                    help="JSONL collections to partition across spawned "
                         "shards (with --shards)")
    sp.add_argument("--shard-urls", nargs="+", default=None,
                    help="attach to already-running shard workers instead "
                         "of spawning")
    sp.add_argument("--timeout", type=float, default=None,
                    help="dispatch deadline per fan-out; a shard missing "
                         "it is treated as dead for that request")
    sp.add_argument("--retries", type=int, default=0,
                    help="extra attempts per shard call")
    sp.add_argument("--shard-timeout", type=float, default=30.0,
                    help="per-request socket budget for shard calls")
    sp.add_argument("--attach-timeout", type=float, default=30.0,
                    help="seconds to wait for shard /healthz at startup")
    sp.add_argument("--max-active", type=int, default=8,
                    help="coordinator requests allowed to run concurrently")
    sp.add_argument("--max-queued", type=int, default=32,
                    help="requests allowed to wait for a slot before "
                         "shedding with 503")
    sp.add_argument("--max-queue-wait", type=float, default=5.0,
                    help="wait cap for queued requests without a deadline")
    sp.add_argument("--retry-after", type=float, default=1.0,
                    help="Retry-After hint on shed responses")
    sp.add_argument("--coalesce-window-ms", type=float, default=0.0,
                    help="coalesce concurrent /estimate and /search "
                         "requests for up to this many milliseconds into "
                         "one broker batch (0 disables; lone requests "
                         "always take the idle fast-path)")
    sp.add_argument("--coalesce-max-batch", type=int, default=64,
                    help="flush a coalescing window at this occupancy")
    _common_serve_args(sp)
    sp.set_defaults(func=_cmd_serve_coordinator)

    p = sub.add_parser(
        "eval",
        help="score engine selection as a ranking task over golden strata",
    )
    p.add_argument("--config", choices=("columnar", "sharded", "delta"),
                   default="columnar",
                   help="topology under test: one in-process broker on its "
                        "columnar fleet store, a sharded scatter-gather "
                        "topology, or the live-fleet delta path (partial "
                        "registration caught up through versioned deltas)")
    p.add_argument("--estimators", nargs="+", default=_EVAL_ESTIMATORS,
                   help="estimators to score (default: the five with a "
                        "batched grid kernel)")
    p.add_argument("--golden-dir", default="tests/integration/golden/queries",
                   help="directory of committed golden strata (falls back "
                        "to in-memory generation when absent)")
    p.add_argument("--out-dir", default="results",
                   help="where eval_<config>.{md,json} are written")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed for fleet + query generation; "
                        "overrides the committed sets' seed (regenerating "
                        "them in memory) when it differs")
    p.add_argument("--engines", type=int, default=None,
                   help="evaluation fleet width when generating")
    p.add_argument("--shards", type=int, default=2,
                   help="shard count for --config sharded")
    p.add_argument("--write-golden", action="store_true",
                   help="(re)generate the golden strata into --golden-dir "
                        "and exit")
    p.add_argument("--check-floors", default=None,
                   help="floors JSON to gate the report against; exits 1 "
                        "on any violation")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("scalability", help="print the Section 3.2 sizing table")
    p.add_argument("--synthetic", action="store_true",
                   help="append rows for the synthetic D1/D2/D3")
    p.add_argument("--seed", type=int, default=1999)
    p.set_defaults(func=_cmd_scalability)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
