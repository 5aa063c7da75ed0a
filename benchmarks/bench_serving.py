"""Serving bench — gateway-over-HTTP versus the in-process broker.

A fleet of four engine-server *processes* (launched through ``repro serve
engine``, exactly as an operator would) sits behind an HTTP gateway.  A
closed-loop load generator drives Zipf queries through the gateway from
several concurrent workers, then replays the identical workload against an
in-process :class:`MetasearchBroker` over the same collections.

The bench asserts the wire adds **zero** answer drift — merged hits,
estimates, invoked engines and failures are all exactly equal — and
reports what it costs: throughput, latency percentiles, and the per-request
overhead over the in-process path.

The sharded bench pits the 4-shard scatter-gather coordinator (spawned
end-to-end through ``repro serve coordinator --shards 4``: four shard
worker processes plus the coordinator) against the PR 4
single-broker gateway over the same collections, driven by a
*multi-process* closed-loop load generator (each worker is its own
Python process with its own keep-alive connection, barrier-released so
interpreter startup never lands inside the timed window).  Exactness vs
the in-process broker is asserted outside the timed section;
the machine-readable outcome lands in ``BENCH_sharded_serving.json``
(override: ``REPRO_BENCH_SHARDED_JSON``).  The >=2x throughput floor is
armed only on machines with >=4 usable CPUs (a 1-CPU container cannot
express process-level parallelism; ``cpus`` and ``floor_armed`` are
recorded either way) — force it with ``REPRO_BENCH_SHARDED_FLOOR=1``/
``0``.

The coalescing bench isolates what the front-door micro-batcher buys:
an in-process :class:`CoordinatorApp` over four live shard-worker
servers, driven closed-loop at concurrency 1 / 4 / 16 with coalescing on
versus off.  Shard estimate caches are warmed (and on==off exactness
asserted byte-for-byte) before timing, so per-request scatter RPCs —
the cost coalescing collapses — dominate the measured window.  The
coordinator's scatter counters must prove at most one ``/estimate`` RPC
per shard per flushed window (a shard the headroom summary rules out is
skipped), the idle fast-path must add <1 ms p50 at
concurrency 1, and at concurrency 16 the coalesced lane must clear the
2x throughput floor (armed like the sharded floor; force with
``REPRO_BENCH_COALESCE_FLOOR=1``/``0``).  Occupancy and flush-reason
distributions land in ``BENCH_sharded_serving.json`` (merged, not
overwritten) and the human-readable breakdown — including why the
sharded-vs-single lane regresses on 1 CPU — in
``results/sharded_serving.txt``.

Knobs: ``REPRO_BENCH_SERVING_QUERIES`` (default 60), ``REPRO_BENCH_SEED``,
``REPRO_BENCH_SHARDED_QUERIES`` (default 40),
``REPRO_BENCH_SHARDED_ROUNDS`` (default 3),
``REPRO_BENCH_SHARDED_WORKERS`` (default 8 load-generator processes),
``REPRO_BENCH_COALESCE_QUERIES`` (default 48),
``REPRO_BENCH_COALESCE_ROUNDS`` (default 2).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.corpus import Query, save_collection
from repro.corpus.synth import NewsgroupModel, QueryLogModel
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker
from repro.obs import MetricsRegistry
from repro.representatives import build_representative, partition_round_robin
from repro.serving import (
    CoordinatorApp,
    GatewayApp,
    GatewayClient,
    RemoteEngine,
    ServingServer,
    ShardApp,
    ShardedFleet,
)
from repro.serving.wire import query_to_wire

from _bench_utils import BENCH_SEED, THRESHOLDS, emit

SERVING_QUERIES = int(os.environ.get("REPRO_BENCH_SERVING_QUERIES", "60"))
N_ENGINES = 4
WORKERS = 4

SHARDED_QUERIES = int(os.environ.get("REPRO_BENCH_SHARDED_QUERIES", "40"))
SHARDED_ROUNDS = int(os.environ.get("REPRO_BENCH_SHARDED_ROUNDS", "3"))
SHARDED_WORKERS = int(os.environ.get("REPRO_BENCH_SHARDED_WORKERS", "8"))
SHARDED_JSON = Path(
    os.environ.get("REPRO_BENCH_SHARDED_JSON", "BENCH_sharded_serving.json")
)
SHARDED_TXT = Path(
    os.environ.get("REPRO_BENCH_SHARDED_TXT", "results/sharded_serving.txt")
)
N_SHARDS = 4

COALESCE_QUERIES = int(os.environ.get("REPRO_BENCH_COALESCE_QUERIES", "48"))
COALESCE_ROUNDS = int(os.environ.get("REPRO_BENCH_COALESCE_ROUNDS", "2"))
COALESCE_WINDOW = 0.005  # seconds; the idle fast-path makes it free at c=1
COALESCE_MAX_BATCH = 64
COALESCE_CONCURRENCY = (1, 4, 16)


def _fleet_model() -> NewsgroupModel:
    return NewsgroupModel(
        vocab_size=2000,
        topic_size=100,
        topic_band=(50, 800),
        mean_length=60,
        seed=BENCH_SEED,
        group_sizes=[40, 30, 25, 20],
    )


def _launch_fleet(collections, tmp):
    """Start one ``repro serve engine`` process per collection."""
    processes, urls = [], []
    for collection in collections:
        path = tmp / f"{collection.name}.jsonl.gz"
        save_collection(collection, path)
        processes.append(
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "serve",
                    "engine",
                    "--collection",
                    str(path),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        )
    for proc in processes:
        url = None
        deadline = time.time() + 30
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            match = re.search(r"serving engine at (http://\S+)", line)
            if match:
                url = match.group(1)
                break
        assert url, "engine server did not announce its URL"
        urls.append(url)
    return processes, urls


def _stop_fleet(processes):
    for proc in processes:
        proc.send_signal(signal.SIGTERM)
    for proc in processes:
        try:
            proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _closed_loop(client, requests):
    """Drive ``requests`` through ``client`` from WORKERS threads.

    Returns (responses, latencies) in request order, plus the wall time.
    """
    responses = [None] * len(requests)
    latencies = [0.0] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            query, threshold = requests[index]
            start = time.perf_counter()
            responses[index] = client.search(query, threshold)
            latencies[index] = time.perf_counter() - start

    threads = [threading.Thread(target=worker) for __ in range(WORKERS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return responses, latencies, time.perf_counter() - start


def test_serving_gateway_exactness_and_overhead(benchmark, tmp_path):
    model = _fleet_model()
    collections = [model.generate_group(group) for group in range(N_ENGINES)]
    queries = QueryLogModel(model, seed=42).generate(SERVING_QUERIES)
    requests = [
        (query, THRESHOLDS[i % len(THRESHOLDS)])
        for i, query in enumerate(queries)
    ]

    processes, server = [], None
    try:
        processes, urls = _launch_fleet(collections, tmp_path)
        broker = MetasearchBroker(workers=N_ENGINES)
        for url in urls:
            broker.sync_representative(RemoteEngine(url))
        server = ServingServer(
            GatewayApp(broker, max_active=WORKERS * 2, max_queued=64)
        )
        server.start_background()
        client = GatewayClient(server.url)

        # Warm the keep-alive connections before measuring.
        client.search(requests[0][0], requests[0][1])

        responses, latencies, wall = _closed_loop(client, requests)

        local_broker = MetasearchBroker()
        for collection in collections:
            local_broker.register(SearchEngine(collection))
        start = time.perf_counter()
        local = [
            local_broker.search(query, threshold)
            for query, threshold in requests
        ]
        local_seconds = time.perf_counter() - start

        for remote_response, local_response in zip(responses, local):
            assert remote_response.hits == local_response.hits
            assert remote_response.estimates == local_response.estimates
            assert remote_response.invoked == local_response.invoked
            assert remote_response.failures == local_response.failures

        ordered = sorted(latencies)
        throughput = len(requests) / wall if wall > 0 else float("inf")
        lines = [
            "",
            f"=== serving gateway over {N_ENGINES} engine-server processes, "
            f"{len(requests)} Zipf queries, {WORKERS} closed-loop workers ===",
            f"{'path':<11} {'seconds':>9} {'ms/req':>9}",
            f"{'gateway':<11} {wall:>9.2f} "
            f"{1000.0 * wall / len(requests):>9.2f}",
            f"{'in-process':<11} {local_seconds:>9.2f} "
            f"{1000.0 * local_seconds / len(requests):>9.2f}",
            f"throughput : {throughput:.1f} req/s through the gateway",
            f"latency    : p50 {1000.0 * _percentile(ordered, 0.50):.2f} ms, "
            f"p90 {1000.0 * _percentile(ordered, 0.90):.2f} ms, "
            f"p99 {1000.0 * _percentile(ordered, 0.99):.2f} ms",
            f"equality   : exact ({len(requests)} responses compared: "
            f"hits, estimates, invoked, failures)",
        ]
        emit("serving", "\n".join(lines))

        # Steady-state kernel: one warm request through the full stack
        # (gateway admission -> concurrent dispatch -> 4 HTTP engines).
        query, threshold = requests[0]
        benchmark(lambda: client.search(query, threshold))

        client.close()
    finally:
        if server is not None:
            server.drain(timeout=10)
        _stop_fleet(processes)


# -- sharded topology vs single-broker gateway ------------------------------

_LOADGEN_SOURCE = '''
"""Closed-loop load-generator worker: one process, one connection."""
import json
import sys
import time

from repro.corpus import Query
from repro.serving import GatewayClient

url, requests_path, index, n_workers, rounds = (
    sys.argv[1],
    sys.argv[2],
    int(sys.argv[3]),
    int(sys.argv[4]),
    int(sys.argv[5]),
)
with open(requests_path, encoding="utf-8") as fh:
    raw = json.load(fh)
requests = [
    (Query(terms=tuple(terms), weights=tuple(weights)), threshold)
    for terms, weights, threshold in raw
]
mine = list(range(index, len(requests), n_workers))
client = GatewayClient(url)
query, threshold = requests[mine[0] if mine else 0]
client.search(query, threshold)  # warm the keep-alive connection
print("READY", flush=True)
assert sys.stdin.readline().strip() == "GO"
latencies = []
for _ in range(rounds):
    for i in mine:
        query, threshold = requests[i]
        start = time.perf_counter()
        client.search(query, threshold)
        latencies.append(time.perf_counter() - start)
client.close()
print(json.dumps({"count": len(latencies), "latencies": latencies}), flush=True)
'''


def _spawn_announced(cli_args, pattern):
    """Start a ``repro serve ...`` process; return (process, url)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *cli_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    url, deadline = None, time.time() + 90
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(pattern, line)
        if match:
            url = match.group(1)
            break
    if url is None:
        _stop_fleet([proc])
        raise AssertionError(f"server did not announce a URL for {cli_args}")
    return proc, url


def _mp_closed_loop(url, requests_path, script_path, n_workers, rounds):
    """Drive the workload from ``n_workers`` worker *processes*.

    Workers warm up, report READY, and start on a GO barrier, so process
    startup cost stays outside the timed window.  Returns
    ``(total_requests, wall_seconds, sorted_latencies)``.
    """
    workers = [
        subprocess.Popen(
            [
                sys.executable,
                str(script_path),
                url,
                str(requests_path),
                str(index),
                str(n_workers),
                str(rounds),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for index in range(n_workers)
    ]
    try:
        for worker in workers:
            line = worker.stdout.readline()
            assert line.strip() == "READY", f"worker failed to start: {line!r}"
        start = time.perf_counter()
        for worker in workers:
            worker.stdin.write("GO\n")
            worker.stdin.flush()
        total, latencies = 0, []
        for worker in workers:
            payload = json.loads(worker.stdout.readline())
            total += payload["count"]
            latencies.extend(payload["latencies"])
        wall = time.perf_counter() - start
    finally:
        _stop_fleet(workers)
    return total, wall, sorted(latencies)


def _merge_json(path: Path, updates: dict) -> dict:
    """Read-modify-write ``path``: lanes written by the other serving
    benches survive, so the artifact accumulates the full picture."""
    report = {}
    if path.exists():
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = {}
    report.update(updates)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_sharded_coordinator_throughput_vs_single_broker(tmp_path):
    model = _fleet_model()
    collections = [model.generate_group(group) for group in range(N_ENGINES)]
    queries = QueryLogModel(model, seed=43).generate(SHARDED_QUERIES)
    requests = [
        (query, THRESHOLDS[i % len(THRESHOLDS)])
        for i, query in enumerate(queries)
    ]
    paths = []
    for collection in collections:
        path = tmp_path / f"{collection.name}.jsonl.gz"
        save_collection(collection, path)
        paths.append(str(path))
    requests_path = tmp_path / "requests.json"
    requests_path.write_text(
        json.dumps(
            [
                [list(q.terms), list(q.weights), threshold]
                for q, threshold in requests
            ]
        ),
        encoding="utf-8",
    )
    script_path = tmp_path / "loadgen_worker.py"
    script_path.write_text(_LOADGEN_SOURCE, encoding="utf-8")

    servers = []
    try:
        single_proc, single_url = _spawn_announced(
            [
                "gateway",
                "--collections",
                *paths,
                "--workers",
                str(N_ENGINES),
                "--max-active",
                str(SHARDED_WORKERS),
                "--max-queued",
                "64",
            ],
            r"serving gateway at (http://\S+)",
        )
        servers.append(single_proc)
        sharded_proc, sharded_url = _spawn_announced(
            [
                "coordinator",
                "--shards",
                str(N_SHARDS),
                "--collections",
                *paths,
                "--max-active",
                str(SHARDED_WORKERS),
                "--max-queued",
                "64",
            ],
            r"serving coordinator at (http://\S+)",
        )
        servers.append(sharded_proc)
        coalesced_proc, coalesced_url = _spawn_announced(
            [
                "coordinator",
                "--shards",
                str(N_SHARDS),
                "--collections",
                *paths,
                "--max-active",
                str(SHARDED_WORKERS),
                "--max-queued",
                "64",
                "--coalesce-window-ms",
                "5",
                "--coalesce-max-batch",
                "64",
            ],
            r"serving coordinator at (http://\S+)",
        )
        servers.append(coalesced_proc)

        # Exactness first, outside the timed section: both coordinators'
        # merged rankings are exactly the in-process columnar broker's.
        local_broker = MetasearchBroker()
        for collection in collections:
            local_broker.register(SearchEngine(collection))
        for url in (sharded_url, coalesced_url):
            client = GatewayClient(url)
            for query, threshold in requests:
                sharded = client.search(query, threshold)
                local = local_broker.search(query, threshold)
                assert sharded.hits == local.hits
                assert sharded.estimates == local.estimates
                assert sharded.invoked == local.invoked
                assert sharded.failures == local.failures
            client.close()

        single_total, single_wall, single_lat = _mp_closed_loop(
            single_url, requests_path, script_path, SHARDED_WORKERS,
            SHARDED_ROUNDS,
        )
        sharded_total, sharded_wall, sharded_lat = _mp_closed_loop(
            sharded_url, requests_path, script_path, SHARDED_WORKERS,
            SHARDED_ROUNDS,
        )
        coalesced_total, coalesced_wall, coalesced_lat = _mp_closed_loop(
            coalesced_url, requests_path, script_path, SHARDED_WORKERS,
            SHARDED_ROUNDS,
        )
        assert single_total == sharded_total == len(requests) * SHARDED_ROUNDS
        assert coalesced_total == sharded_total
    finally:
        _stop_fleet(servers)

    single_rps = single_total / single_wall if single_wall > 0 else 0.0
    sharded_rps = sharded_total / sharded_wall if sharded_wall > 0 else 0.0
    coalesced_rps = (
        coalesced_total / coalesced_wall if coalesced_wall > 0 else 0.0
    )
    speedup = sharded_rps / single_rps if single_rps > 0 else float("inf")
    cpus = len(os.sched_getaffinity(0))
    floor_env = os.environ.get("REPRO_BENCH_SHARDED_FLOOR")
    floor_armed = cpus >= 4 if floor_env is None else floor_env == "1"

    report = {
        "bench": "sharded_serving",
        "n_shards": N_SHARDS,
        "n_engines": N_ENGINES,
        "queries": len(requests),
        "rounds": SHARDED_ROUNDS,
        "loadgen_processes": SHARDED_WORKERS,
        "cpus": cpus,
        "floor_armed": floor_armed,
        "throughput_floor": 2.0,
        "single_broker": {
            "requests": single_total,
            "seconds": single_wall,
            "rps": single_rps,
            "p50_ms": 1000.0 * _percentile(single_lat, 0.50),
            "p95_ms": 1000.0 * _percentile(single_lat, 0.95),
        },
        "sharded": {
            "requests": sharded_total,
            "seconds": sharded_wall,
            "rps": sharded_rps,
            "p50_ms": 1000.0 * _percentile(sharded_lat, 0.50),
            "p95_ms": 1000.0 * _percentile(sharded_lat, 0.95),
        },
        "sharded_coalesced": {
            "requests": coalesced_total,
            "seconds": coalesced_wall,
            "rps": coalesced_rps,
            "p50_ms": 1000.0 * _percentile(coalesced_lat, 0.50),
            "p95_ms": 1000.0 * _percentile(coalesced_lat, 0.95),
            "window_ms": 5.0,
            "max_batch": 64,
        },
        "speedup": speedup,
        "exactness": "exact",
    }
    _merge_json(SHARDED_JSON, report)

    lines = [
        "",
        f"=== sharded coordinator ({N_SHARDS} shard processes) vs "
        f"single-broker gateway ===",
        f"workload   : {len(requests)} Zipf queries x {SHARDED_ROUNDS} "
        f"rounds from {SHARDED_WORKERS} load-generator processes",
        f"{'path':<14} {'req/s':>8} {'p50 ms':>8} {'p95 ms':>8}",
        f"{'single':<14} {single_rps:>8.1f} "
        f"{1000.0 * _percentile(single_lat, 0.50):>8.2f} "
        f"{1000.0 * _percentile(single_lat, 0.95):>8.2f}",
        f"{'sharded x4':<14} {sharded_rps:>8.1f} "
        f"{1000.0 * _percentile(sharded_lat, 0.50):>8.2f} "
        f"{1000.0 * _percentile(sharded_lat, 0.95):>8.2f}",
        f"{'  + coalesce':<14} {coalesced_rps:>8.1f} "
        f"{1000.0 * _percentile(coalesced_lat, 0.50):>8.2f} "
        f"{1000.0 * _percentile(coalesced_lat, 0.95):>8.2f}",
        f"speedup    : {speedup:.2f}x "
        f"(floor 2.0x {'armed' if floor_armed else 'disarmed'}, "
        f"{cpus} cpu(s) visible)",
        f"equality   : exact ({len(requests)} coordinator responses vs "
        f"in-process columnar broker)",
    ]
    emit("sharded_serving", "\n".join(lines))

    if floor_armed:
        assert speedup >= 2.0, (
            f"sharded throughput {sharded_rps:.1f} rps is only {speedup:.2f}x "
            f"the single-broker {single_rps:.1f} rps (floor 2.0x at "
            f"{N_SHARDS} shards)"
        )


# -- front-door coalescing: window batching vs per-request scatter -----------


def _estimate_body(query, threshold) -> bytes:
    return json.dumps(
        {"query": query_to_wire(query), "threshold": threshold}
    ).encode("utf-8")


def _inproc_closed_loop(app, bodies, concurrency, rounds):
    """Drive ``bodies`` through ``app.handle`` from ``concurrency``
    closed-loop threads; returns (total, wall_seconds, sorted_latencies).

    Calling the app in-process keeps the front door out of the measured
    path on purpose: the shard RPCs (the cost coalescing collapses) are
    still real HTTP round trips to live shard servers.
    """
    order = list(range(len(bodies))) * rounds
    latencies = [0.0] * len(order)
    cursor = iter(range(len(order)))
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                slot = next(cursor, None)
            if slot is None:
                return
            body = bodies[order[slot]]
            start = time.perf_counter()
            response = app.handle("POST", "/estimate", {}, body)
            latencies[slot] = time.perf_counter() - start
            assert response.status == 200, response.body_bytes()

    threads = [threading.Thread(target=worker) for __ in range(concurrency)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return len(order), time.perf_counter() - start, sorted(latencies)


def _coalesce_metrics(registry) -> dict:
    """Flush-reason counts and occupancy distribution for the estimate
    window, read straight from the in-process registry."""
    flush_reasons = {}
    occupancy = {}
    wait = {}
    for entry in registry.snapshot():
        labels = entry.get("labels", {})
        if (
            entry["name"] == "serving.coalesce.flush"
            and labels.get("window") == "estimate"
        ):
            flush_reasons[labels["reason"]] = entry["value"]
        elif (
            entry["name"] == "serving.coalesce.batch.occupancy"
            and labels.get("window") == "estimate"
        ):
            occupancy = {
                "count": entry["count"],
                "sum": entry["sum"],
                "buckets": entry["buckets"],
            }
        elif (
            entry["name"] == "serving.coalesce.wait.seconds"
            and labels.get("window") == "estimate"
        ):
            wait = {"count": entry["count"], "sum": entry["sum"]}
    return {
        "flush_reasons": flush_reasons,
        "occupancy": occupancy,
        "wait_seconds": wait,
    }


def _write_sharded_txt(report: dict) -> None:
    """The human-readable breakdown, including why the sharded lane
    regresses on starved CPU and what coalescing recovers."""
    lanes = report.get("coalescing", {}).get("lanes", {})
    single = report.get("single_broker", {})
    sharded = report.get("sharded", {})
    sharded_coalesced = report.get("sharded_coalesced", {})
    speedup = report.get("speedup")
    cpus = report.get("cpus", "?")
    lines = [
        "sharded serving: measured breakdown",
        "===================================",
        "",
        "Lane A - multi-process, /search workload "
        f"({report.get('loadgen_processes', '?')} load-generator "
        "processes):",
    ]
    for name, lane in (
        ("single-broker gateway", single),
        (f"{report.get('n_shards', 4)}-shard coordinator", sharded),
        ("coordinator + coalescing (5 ms window)", sharded_coalesced),
    ):
        if lane:
            lines.append(
                f"  {name:<40} {lane.get('rps', 0.0):8.1f} req/s   "
                f"p50 {lane.get('p50_ms', 0.0):7.2f} ms   "
                f"p95 {lane.get('p95_ms', 0.0):7.2f} ms"
            )
    if speedup is not None:
        lines += [
            "",
            f"sharded/single speedup: {speedup:.2f}x on {cpus} visible "
            "cpu(s).",
        ]
        if isinstance(speedup, float) and speedup < 1.0:
            lines += [
                "",
                "Why the sharded lane regresses here (the ~"
                f"{speedup:.2f}x): scatter-gather turns every request "
                f"into {report.get('n_shards', 4)} shard RPCs plus a "
                "merge.  That trade buys parallel compute across "
                "processes - but on a container with "
                f"{cpus} visible cpu(s) there is no parallelism to buy, "
                "so the per-request RPC fan-out is pure overhead: "
                "4x the HTTP round trips, 4x the JSON codec work, all "
                "serialized onto one core.  The floor stays disarmed "
                "below 4 cpus for exactly this reason.",
            ]
    if lanes:
        lines += [
            "",
            "Lane B - in-process coordinator, /estimate workload, warm "
            "shard caches (scatter RPCs dominate; coalescing window "
            f"{report['coalescing'].get('window_ms', '?')} ms, max batch "
            f"{report['coalescing'].get('max_batch', '?')}):",
            f"  {'concurrency':>11} {'off req/s':>10} {'on req/s':>10} "
            f"{'speedup':>8} {'off p50':>9} {'on p50':>9}",
        ]
        for key in sorted(lanes, key=int):
            lane = lanes[key]
            lines.append(
                f"  {key:>11} {lane['off']['rps']:>10.1f} "
                f"{lane['on']['rps']:>10.1f} {lane['speedup']:>7.2f}x "
                f"{lane['off']['p50_ms']:>8.2f}m {lane['on']['p50_ms']:>8.2f}m"
            )
        coalesce = report["coalescing"]
        lines += [
            "",
            "How coalescing recovers the scatter overhead: concurrent "
            "requests gathered by one window leave as ONE /estimate RPC "
            "per shard (coordinator.scatter.rpcs + skipped == fanouts x "
            "shards, asserted), so the per-request RPC cost is amortized across "
            "the window's occupancy instead of paid per request.  A lone "
            "request takes the idle fast-path and never waits for the "
            "window (p50 delta at concurrency 1: "
            f"{coalesce.get('idle_p50_delta_ms', 0.0):.3f} ms, floor "
            "<1 ms).",
            "",
            f"flush reasons: {coalesce.get('metrics', {}).get('flush_reasons', {})}",
            f"occupancy: {coalesce.get('metrics', {}).get('occupancy', {})}",
        ]
    SHARDED_TXT.parent.mkdir(parents=True, exist_ok=True)
    SHARDED_TXT.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_coalescing_gateway_throughput():
    model = _fleet_model()
    collections = [model.generate_group(group) for group in range(N_ENGINES)]
    queries = QueryLogModel(model, seed=44).generate(COALESCE_QUERIES)
    bodies = [
        _estimate_body(query, THRESHOLDS[i % len(THRESHOLDS)])
        for i, query in enumerate(queries)
    ]

    shard_servers = []
    try:
        urls = []
        for index, slice_collections in enumerate(
            partition_round_robin(collections, N_SHARDS)
        ):
            broker = MetasearchBroker()
            for collection in slice_collections:
                engine = SearchEngine(collection)
                broker.register(
                    engine, representative=build_representative(engine)
                )
            server = ServingServer(ShardApp(broker, shard_index=index))
            server.start_background()
            shard_servers.append(server)
            urls.append(server.url)

        registry = MetricsRegistry()
        fleet_on = ShardedFleet(urls, registry=registry).attach()
        app_on = CoordinatorApp(
            fleet_on,
            registry=registry,
            coalesce_window=COALESCE_WINDOW,
            coalesce_max_batch=COALESCE_MAX_BATCH,
            max_active=32,
            max_queued=128,
        )
        app_off = CoordinatorApp(
            ShardedFleet(urls).attach(), max_active=32, max_queued=128
        )

        # Warm every shard's estimate cache and assert on == off
        # byte-for-byte before any timing.
        for body in bodies:
            want = app_off.handle("POST", "/estimate", {}, body)
            got = app_on.handle("POST", "/estimate", {}, body)
            assert want.status == got.status == 200
            assert got.body_bytes() == want.body_bytes()

        lanes = {}
        for concurrency in COALESCE_CONCURRENCY:
            off_total, off_wall, off_lat = _inproc_closed_loop(
                app_off, bodies, concurrency, COALESCE_ROUNDS
            )
            on_total, on_wall, on_lat = _inproc_closed_loop(
                app_on, bodies, concurrency, COALESCE_ROUNDS
            )
            assert on_total == off_total == len(bodies) * COALESCE_ROUNDS
            off_rps = off_total / off_wall if off_wall > 0 else 0.0
            on_rps = on_total / on_wall if on_wall > 0 else 0.0
            lanes[str(concurrency)] = {
                "off": {
                    "rps": off_rps,
                    "p50_ms": 1000.0 * _percentile(off_lat, 0.50),
                    "p95_ms": 1000.0 * _percentile(off_lat, 0.95),
                },
                "on": {
                    "rps": on_rps,
                    "p50_ms": 1000.0 * _percentile(on_lat, 0.50),
                    "p95_ms": 1000.0 * _percentile(on_lat, 0.95),
                },
                "speedup": on_rps / off_rps if off_rps > 0 else float("inf"),
            }

        # The coordinator invariant behind the win: every scatter round
        # cost at most one /estimate RPC per shard, whatever its width
        # (none for a shard its headroom summary rules out).
        fanouts = registry.value(
            "coordinator.scatter.fanouts", labels={"phase": "estimate"}
        )
        rpcs = registry.value(
            "coordinator.scatter.rpcs", labels={"phase": "estimate"}
        )
        skipped = registry.value(
            "coordinator.scatter.skipped", labels={"phase": "estimate"}
        )
        assert fanouts and rpcs + skipped == fanouts * N_SHARDS
        on_requests = registry.value(
            "serving.coalesce.requests", labels={"window": "estimate"}
        )
        assert fanouts <= on_requests
        metrics = _coalesce_metrics(registry)
    finally:
        for server in shard_servers:
            server.drain(timeout=10)

    idle_delta_ms = (
        lanes["1"]["on"]["p50_ms"] - lanes["1"]["off"]["p50_ms"]
    )
    top = str(COALESCE_CONCURRENCY[-1])
    cpus = len(os.sched_getaffinity(0))
    floor_env = os.environ.get("REPRO_BENCH_COALESCE_FLOOR")
    floor_armed = cpus >= 4 if floor_env is None else floor_env == "1"

    coalescing = {
        "window_ms": 1000.0 * COALESCE_WINDOW,
        "max_batch": COALESCE_MAX_BATCH,
        "queries": len(bodies),
        "rounds": COALESCE_ROUNDS,
        "lanes": lanes,
        "idle_p50_delta_ms": idle_delta_ms,
        "scatter": {
            "fanouts": fanouts,
            "rpcs": rpcs,
            "skipped": skipped,
            "requests": on_requests,
            "rpcs_per_fanout": rpcs / fanouts if fanouts else 0.0,
        },
        "metrics": metrics,
        "cpus": cpus,
        "floor_armed": floor_armed,
        "throughput_floor": 2.0,
        "exactness": "exact",
    }
    report = _merge_json(SHARDED_JSON, {"coalescing": coalescing})
    _write_sharded_txt(report)

    lines = [
        "",
        f"=== front-door coalescing over {N_SHARDS} shard servers "
        f"({len(bodies)} /estimate bodies x {COALESCE_ROUNDS} rounds, "
        "warm shard caches) ===",
        f"{'concurrency':>11} {'off req/s':>10} {'on req/s':>10} "
        f"{'speedup':>8}",
    ]
    for key in sorted(lanes, key=int):
        lane = lanes[key]
        lines.append(
            f"{key:>11} {lane['off']['rps']:>10.1f} "
            f"{lane['on']['rps']:>10.1f} {lane['speedup']:>7.2f}x"
        )
    lines += [
        f"idle path  : p50 delta {idle_delta_ms:+.3f} ms at concurrency 1 "
        "(floor <1 ms)",
        f"scatter    : {fanouts} fanouts x {N_SHARDS} shards = {rpcs} "
        f"RPCs + {skipped} skipped for {on_requests} coalesced requests",
        f"flushes    : {metrics['flush_reasons']}",
    ]
    emit("coalescing", "\n".join(lines))

    assert idle_delta_ms < 1.0, (
        f"idle fast-path added {idle_delta_ms:.3f} ms p50 at concurrency 1"
    )
    if floor_armed:
        assert lanes[top]["speedup"] >= 2.0, (
            f"coalesced lane is only {lanes[top]['speedup']:.2f}x the "
            f"per-request lane at concurrency {top} (floor 2.0x)"
        )
