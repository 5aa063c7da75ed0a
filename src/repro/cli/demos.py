"""The broker demos over a seeded synthetic fleet: ``fleet`` (dispatch
knobs and fault injection), ``stats`` (metrics export) and ``batch``
(the batched pipeline against the serial one)."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.cli.common import (
    at_least_one,
    dispatch_options,
    dispatch_settings,
    make_broker,
    seed_options,
)
from repro.corpus.synth import NewsgroupModel, QueryLogModel
from repro.engine import SearchEngine
from repro.obs import MetricsRegistry
from repro.representatives import build_representative


class _InjectedFault:
    """Demo-only engine wrapper adding latency (or a hang) to ``search``;
    everything else delegates, so registration and the oracle still work."""

    def __init__(self, inner: SearchEngine, delay: float):
        self.inner = inner
        self.delay = delay

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def search(self, query, threshold=0.0):
        time.sleep(self.delay)
        return self.inner.search(query, threshold)


def _synth_model(scale: str, seed: int) -> NewsgroupModel:
    """The synthetic corpus behind the demos: a quick small variant or the
    paper's full newsgroup sizing."""
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


def _register_groups(broker, model, args, hang_engines=0) -> None:
    """Register ``model``'s first ``--groups`` groups on ``broker`` as
    engines, the first ``hang_engines`` behind an injected
    ``--hang-seconds`` delay."""
    for group in range(min(args.groups, model.n_groups)):
        engine = SearchEngine(model.generate_group(group))
        if group < hang_engines:
            slow = _InjectedFault(engine, delay=args.hang_seconds)
            broker.register(slow, representative=build_representative(engine))
        else:
            broker.register(engine)


def _synthetic_fleet(args, scale, hang_engines=0, **broker_options):
    """The demos' prologue: check ``--groups`` and ``--queries``, build
    the seeded model and the broker of ``broker_options``, register the
    model's groups on it (:func:`_register_groups`) and draw the
    ``--queries`` query log.  Returns ``(model, broker, queries)``."""
    at_least_one(args, "--groups", "--queries")
    model = _synth_model(scale, args.seed)
    broker = make_broker(**broker_options)
    _register_groups(broker, model, args, hang_engines)
    queries = QueryLogModel(model, seed=args.query_seed).generate(args.queries)
    return model, broker, queries


def _cache_line(broker) -> str:
    return (f"cache    : {broker.cache.hits + broker.cache.misses} lookups, "
            f"{broker.cache.hit_rate:.1%} hit rate, "
            f"{len(broker.cache)} resident")


def add_fleet(sub) -> None:
    p = sub.add_parser(
        "fleet",
        help="query a synthetic engine fleet through the concurrent broker",
    )
    p.add_argument("--groups", type=int, default=16, help="engines to register")
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--threshold", type=float, default=0.3)
    dispatch_options(p, workers=8)
    p.add_argument("--scale", choices=("small", "paper"), default="small",
                   help="corpus scale: quick demo or the paper's full size")
    p.add_argument("--hang-engines", type=int, default=0,
                   help="fault injection: make the first N engines hang")
    p.add_argument("--hang-seconds", type=float, default=5.0,
                   help="how long an injected hang sleeps")
    seed_options(p)
    p.set_defaults(func=_cmd_fleet)


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run a query log through a full broker fleet with the concurrency,
    timeout, retry, and caching knobs — the production dispatch demo."""
    __, broker, queries = _synthetic_fleet(
        args, args.scale, args.hang_engines, **dispatch_settings(args)
    )
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
    print(_cache_line(broker))
    return 0


def add_stats(sub) -> None:
    p = sub.add_parser(
        "stats",
        help="run an instrumented workload and export query-path metrics",
    )
    p.add_argument("--groups", type=int, default=6, help="engines to register")
    p.add_argument("--queries", type=int, default=25)
    p.add_argument("--threshold", type=float, default=0.3)
    dispatch_options(p, workers=4)
    p.add_argument("--format", choices=("json", "prometheus"), default="json",
                   help="export format for the metrics snapshot")
    p.add_argument("--out", default=None,
                   help="write the export to a file instead of stdout")
    p.add_argument("--show-trace", action="store_true",
                   help="print the last query's per-stage trace to stderr")
    seed_options(p)
    p.set_defaults(func=_cmd_stats)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a seeded workload through a fully instrumented broker and export
    the collected metrics as JSON or Prometheus text format."""
    from repro.obs import registry_to_json, registry_to_prometheus

    registry = MetricsRegistry()
    __, broker, queries = _synthetic_fleet(
        args, "small", registry=registry, **dispatch_settings(args)
    )
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


def add_batch(sub) -> None:
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
    seed_options(p)
    p.set_defaults(func=_cmd_batch)


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run a query log through the batched estimation/search pipeline and
    report its amortization — optionally checking it against the serial
    per-query path, which must agree exactly."""
    model, broker, queries = _synthetic_fleet(
        args, args.scale, cache_size=args.cache_size
    )
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
    print(_cache_line(broker))

    if args.compare_serial:
        serial_broker = make_broker(cache_size=args.cache_size)
        _register_groups(serial_broker, model, args)
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
