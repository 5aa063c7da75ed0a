"""``serve``: the engine, gateway, shard and coordinator roles over HTTP.

Every role announces ``serving <role> at <url>`` on stdout (flushed) once
its port is bound, runs until SIGTERM/SIGINT drains it, and exits 0 when
the drain completed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli.common import (
    UsageError,
    at_least_one,
    collection_documents,
    deadline_options,
    dispatch_options,
    dispatch_settings,
    make_broker,
    usage_errors,
)
from repro.corpus import load_collection
from repro.engine import SearchEngine
from repro.obs import MetricsRegistry
from repro.representatives import DatabaseRepresentative, quantize_representative


def _serve(app_class, backend, args: argparse.Namespace, registry=None,
           **options) -> int:
    """The one serve loop: ``app_class(backend)`` (an option it refuses is
    a usage error) on ``--host``/``--port``; announce the URL, run until
    drained, flush the final metrics."""
    from repro.serving import ServingServer

    with usage_errors():
        app = app_class(
            backend,
            registry=MetricsRegistry() if registry is None else registry,
            default_deadline=args.default_deadline,
            **options,
        )
    server = ServingServer(app, host=args.host, port=args.port)
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


def _admission(args: argparse.Namespace) -> dict:
    """The gateway's and the coordinator's admission and coalescing options,
    as :class:`~repro.serving.GatewayApp` keywords."""
    return dict(
        max_active=args.max_active,
        max_queued=args.max_queued,
        max_queue_wait=args.max_queue_wait,
        retry_after=args.retry_after,
        coalesce_window=args.coalesce_window_ms / 1000.0,
        coalesce_max_batch=args.coalesce_max_batch,
    )


def _cmd_serve_engine(args: argparse.Namespace) -> int:
    """Serve one search engine over HTTP from a saved artifact."""
    from repro.serving import EngineApp, LiveEngineApp

    if args.live:
        if not args.collection:
            raise UsageError(
                "--live needs --collection (a live corpus mutates; "
                "a frozen .npz index cannot)"
            )
        from repro.fleet import LiveEngineServer

        collection = load_collection(args.collection)
        live = LiveEngineServer(collection.name, collection_documents(collection))
        print(
            f"live engine {live.name!r}: {live.n_documents} documents, "
            f"version {live.version}",
            flush=True,
        )
        return _serve(LiveEngineApp, live, args)
    if args.index:
        from repro.index.store import load_index

        engine = SearchEngine.from_index(load_index(args.index))
    else:
        engine = SearchEngine(load_collection(args.collection))
    print(
        f"engine {engine.name!r}: {engine.n_documents} documents",
        flush=True,
    )
    return _serve(EngineApp, engine, args)


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


def _register_collections(broker, paths) -> None:
    """Register each JSONL collection of ``paths`` as an in-process engine."""
    for path in paths or []:
        engine = SearchEngine(load_collection(path))
        broker.register(engine)
        print(f"registered local engine {engine.name!r} from {path}", flush=True)


def _cmd_serve_gateway(args: argparse.Namespace) -> int:
    """Serve a metasearch broker over remote and/or local engines."""
    from repro.serving import GatewayApp, RemoteEngine, RemoteServingError

    if not args.engines and not args.collections:
        raise UsageError("give at least one --engines URL or --collections path")
    if args.quantize is not None:
        at_least_one(args, "--quantize")
    registry = MetricsRegistry()
    broker = make_broker(registry=registry, **dispatch_settings(args))
    for url in args.engines or []:
        remote = RemoteEngine(url, timeout=args.engine_timeout)
        if args.quantize is not None:
            remote = _QuantizedRemote(remote, args.quantize)
        with usage_errors(RemoteServingError, ValueError,
                          prefix=f"cannot register {url}: "):
            report = broker.sync_representative(remote)
        print(
            f"registered remote engine {remote.name!r} at {url} "
            f"(version {report.to_version})",
            flush=True,
        )
    _register_collections(broker, args.collections)
    return _serve(GatewayApp, broker, args, registry, **_admission(args))


def _cmd_serve_shard(args: argparse.Namespace) -> int:
    """Serve one shard of a partitioned fleet: a broker over the engines
    assigned to this shard, behind the shard endpoints."""
    from repro.serving import ShardApp

    registry = MetricsRegistry()
    fleet = None
    if args.slice:
        from repro.representatives.columnar import FleetRepresentativeStore

        fleet = FleetRepresentativeStore.load_npz(args.slice)
        print(
            f"loaded slice {args.slice} "
            f"({len(fleet)} representatives)",
            flush=True,
        )
    broker = make_broker(
        fleet=fleet, registry=registry, **dispatch_settings(args)
    )
    _register_collections(broker, args.collections)
    if not len(broker):
        raise UsageError("shard has no engines (give --collections)")
    return _serve(ShardApp, broker, args, registry, shard_index=args.shard_index)


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
            command = [sys.executable, "-m", "repro.cli", "serve", "shard",
                       "--shard-index", str(index), "--collections", *paths]
            processes.append(subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True,
            ))
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
    from repro.serving import CoordinatorApp, RemoteServingError, ShardedFleet

    if bool(args.shards) == bool(args.shard_urls):
        raise UsageError(
            "give exactly one of --shards N (spawn workers from "
            "--collections) or --shard-urls (attach to running workers)"
        )
    if args.shards and not args.collections:
        raise UsageError("--shards needs --collections to partition")
    children = []
    try:
        if args.shards:
            with usage_errors(OSError, RuntimeError, ValueError):
                children, shard_urls = _spawn_shards(args)
        else:
            shard_urls = list(args.shard_urls)
        registry = MetricsRegistry()
        with usage_errors(RemoteServingError, ValueError):
            fleet = ShardedFleet(
                shard_urls,
                timeout=args.timeout,
                retries=args.retries,
                shard_timeout=args.shard_timeout,
                registry=registry,
            ).attach(timeout=args.attach_timeout)
        print(
            f"attached {fleet.n_shards} shard(s), "
            f"{len(fleet)} engines: {', '.join(fleet.engine_names)}",
            flush=True,
        )
        return _serve(CoordinatorApp, fleet, args, registry, **_admission(args))
    finally:
        _stop_shards(children)


def _serve_options(parser: argparse.ArgumentParser) -> None:
    """What every role declares last: where to listen, the default request
    budget, the drain and the final metrics flush."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = pick a free one; the bound URL "
                             "is printed on startup)")
    parser.add_argument("--default-deadline", type=float, default=None,
                        help="budget in seconds for requests without an "
                             "X-Repro-Deadline header")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        help="seconds to wait for in-flight requests on "
                             "SIGTERM/SIGINT")
    parser.add_argument("--metrics-out", default=None,
                        help="write the final metrics flush (Prometheus "
                             "text) here after draining")


def _admission_options(parser: argparse.ArgumentParser) -> None:
    """The gateway's and the coordinator's admission and coalescing options."""
    parser.add_argument("--max-active", type=int, default=8,
                        help="requests allowed to run concurrently")
    parser.add_argument("--max-queued", type=int, default=32,
                        help="requests allowed to wait for a slot before "
                             "shedding with 503")
    parser.add_argument("--max-queue-wait", type=float, default=5.0,
                        help="wait cap for queued requests without a deadline")
    parser.add_argument("--retry-after", type=float, default=1.0,
                        help="Retry-After hint on shed responses")
    parser.add_argument("--coalesce-window-ms", type=float, default=0.0,
                        help="coalesce concurrent /estimate and /search "
                             "requests for up to this many milliseconds into "
                             "one broker batch (0 disables; lone requests "
                             "always take the idle fast-path)")
    parser.add_argument("--coalesce-max-batch", type=int, default=64,
                        help="flush a coalescing window at this occupancy")


def add_serve(sub) -> None:
    p = sub.add_parser(
        "serve", help="serve an engine or the broker gateway over HTTP"
    )
    roles = p.add_subparsers(dest="role", required=True)

    sp = roles.add_parser(
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
    _serve_options(sp)
    sp.set_defaults(func=_cmd_serve_engine)

    sp = roles.add_parser(
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
    dispatch_options(sp, workers=8)
    _admission_options(sp)
    _serve_options(sp)
    sp.set_defaults(func=_cmd_serve_gateway)

    sp = roles.add_parser(
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
    dispatch_options(sp, workers=4)
    _serve_options(sp)
    sp.set_defaults(func=_cmd_serve_shard)

    sp = roles.add_parser(
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
    deadline_options(sp)
    sp.add_argument("--shard-timeout", type=float, default=30.0,
                    help="per-request socket budget for shard calls")
    sp.add_argument("--attach-timeout", type=float, default=30.0,
                    help="seconds to wait for shard /healthz at startup")
    _admission_options(sp)
    _serve_options(sp)
    sp.set_defaults(func=_cmd_serve_coordinator)
