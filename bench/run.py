#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads, one schema.

Driver contract (one workload per invocation; the last stdout line is one
JSON object ``{correct, attempted, failed, metrics}``)::

    python3 bench/run.py --workload gateway_search --seed 7 --seconds 8 --trace 0

Whole report (every workload, untraced then traced, every metric by name
with its unit, plus ``results/report-<seed>.json`` with an environment
fingerprint)::

    python3 bench/run.py --seed 1999
    python3 bench/run.py --seed 1999 --aa     # two sets back to back -> compare.py

End-to-end metrics come from a run with tracing off; ``--trace 1`` makes
a traced run that yields the per-layer metrics and
``results/trace-<workload>.jsonl``.  See ``README.md`` for the catalog.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"

from summary import (  # noqa: E402
    median, median_or_none, percentile, spread, supported_tail,
)

#: Per-layer metrics read off the workload's own requests (every other
#: per-layer metric is an ``adapter.PROBES`` call on the in-bench replica).
WORKLOAD_METRIC_UNITS = {
    "loadgen.latency_p99_ms": "ms",
    "loadgen.ttfb_p50_ms": "ms",
    "loadgen.cpu_share": "ratio",
    "proc.cpu_ms_per_req": "ms",
    "proc.ctx_switches_per_req": "count",
    "http.body_bytes_per_resp": "bytes",
    "cache.estimate_hit_ratio": "ratio",
    "cache.evictions_per_req": "count",
    "polycache.hit_ratio": "ratio",
    "dispatch.engines_per_req": "count",
    "trace.residual_ms": "ms",
    "trace.residual_share": "ratio",
    "trace.overhead_share": "ratio",
    "probe.errors": "count",
    "host.slowdown": "ratio",
    "live.write_p50_ms": "ms",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


# -- one workload, one run ---------------------------------------------------------


def _cleanup(workload) -> None:
    import procs

    try:
        workload.close()
    finally:
        procs.stop_all()
        shutil.rmtree(workload.workdir, ignore_errors=True)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


PASS_METRICS = ("req_per_s", "latency_p50_ms", "latency_p95_ms", "write_p50_ms")


def pass_row(workload, result, traced: bool) -> dict:
    """One pass's own figures.  A CPU-bound pass is divided by the host
    slowdown measured during it (``hostspeed``); the raw seconds are kept
    beside it."""
    slowdown = workload.slowdown(result.interval)
    seconds = result.interval.seconds / slowdown
    reads_ms = [l * 1e3 / slowdown for l in result.latencies_s]
    writes_ms = [w * 1e3 / slowdown for w in result.write_latencies_s]
    return {
        "traced": traced,
        "host_slowdown": slowdown,
        "raw_wall_s": result.interval.seconds,
        "attempted": result.attempted,
        "ok_ops": result.ok_ops,
        "req_per_s": result.ok_ops / seconds,
        "latency_p50_ms": percentile(reads_ms, 50) if reads_ms else None,
        "latency_p95_ms": percentile(reads_ms, 95) if reads_ms else None,
        # mutate call -> sync_representative return; None off live_delta_mix
        "write_p50_ms": median_or_none(writes_ms),
    }


def best_pass(rows: List[dict]) -> Dict[str, Optional[float]]:
    """The headline: the best whole pass on each metric (highest rate, lowest
    percentile).  Interference on a shared box only ever adds time, and a
    whole pass keeps every periodic cost the sequence triggers (re-pack,
    eviction bursts, GC) inside the number."""
    out = {}
    for key in PASS_METRICS:
        values = [row[key] for row in rows if row[key] is not None]
        pick = max if key == "req_per_s" else min
        out[key] = pick(values) if values else None
    return out


@dataclass
class Window:
    """Everything measured between warm-up and the correctness gate."""

    passes: list  # PassResult
    rows: List[dict]  # pass_row of each
    seconds: float
    own_cpu_s: float
    stats_before: Dict[str, float]
    stats_after: Dict[str, float]
    counters_before: Dict[str, float]
    counters_after: Dict[str, float]

    def rows_where(self, traced: bool) -> List[dict]:
        return [row for row in self.rows if row["traced"] == traced]

    def passes_where(self, traced: bool) -> list:
        return [p for p, row in zip(self.passes, self.rows) if row["traced"] == traced]

    @property
    def ok_ops(self) -> int:
        return sum(p.ok_ops for p in self.passes)


def run_workload(args) -> int:
    import procs
    import workloads

    RESULTS_DIR.mkdir(exist_ok=True)
    workload = workloads.make_workload(
        args.workload, args.seed, args.scale, RESULTS_DIR
    )
    atexit.register(_cleanup, workload)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: sys.exit(130))  # runs atexit

    workload.prepare()
    setups = [workload.setup() for __ in range(workload.setup_repeats)]
    workload.warm_up()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    # -- the measuring window: a number of whole passes fixed by --seconds
    # and the workload's nominal pass time, not by how fast the program
    # runs today.  A traced run makes the same passes untraced first, then
    # as many traced: wrapping a method on a live object slows attribute
    # lookups on it for good (~4 % of a wide_estimate_cold pass), so an
    # untraced pass after a traced one would not be an untraced run's pass.
    n_plain = workload.n_passes(args.seconds)
    n_passes = 2 * n_plain if args.trace else n_plain
    counters_before = workload.counters()
    stats_before = procs.process_stats(workload.pids())
    own_cpu_before = time.process_time()
    passes: List[workloads.PassResult] = []
    traced_flags: List[bool] = []
    request_base = 0
    window_start = time.perf_counter()
    for index in range(n_passes):
        traced = index >= n_plain
        if traced:
            workload.trace(tracer)  # in-process only; HTTP graft comes later
        try:
            result = workload.run_pass(
                tracer if traced else None, request_base
            )
        finally:
            if traced:
                tracer.unwrap_all()
        for offset, sample in enumerate(result.samples if traced else ()):
            sample.request_id = request_base + offset
        request_base += result.attempted
        passes.append(result)
        traced_flags.append(traced)
    window_seconds = time.perf_counter() - window_start
    own_cpu_s = time.process_time() - own_cpu_before
    window = Window(
        passes=passes,
        # after the last pass: the slowdown's floor is the whole run's
        rows=[pass_row(workload, p, t) for p, t in zip(passes, traced_flags)],
        seconds=window_seconds,
        own_cpu_s=own_cpu_s,
        stats_before=stats_before,
        stats_after=procs.process_stats(workload.pids()),
        counters_before=counters_before,
        counters_after=workload.counters(),
    )

    checked, mismatched = workload.verify()
    attempted = sum(p.attempted for p in passes) + checked
    failed = sum(p.failed for p in passes) + mismatched

    # -- end-to-end ----------------------------------------------------------------
    plain_rows = window.rows_where(traced=False)
    setup_rows = [
        {
            "raw_s": interval.seconds,
            "host_slowdown": workload.slowdown(interval),
            "setup_s": interval.seconds / workload.slowdown(interval),
        }
        for interval in setups
    ]
    headline = best_pass(plain_rows)
    end_to_end = {
        "setup_s": median(row["setup_s"] for row in setup_rows),
        "req_per_s": headline["req_per_s"],
        "latency_p50_ms": headline["latency_p50_ms"],
        "latency_p95_ms": headline["latency_p95_ms"],
        "peak_rss_mb": window.stats_after["peak_rss_mb"],
    }
    latency_samples = min(len(p.latencies_s) for p in passes)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "window_s": window.seconds,
        "setups": setup_rows,
        "passes": window.rows,
        # median / quartiles / IQR over the untraced passes (and over the
        # set-ups): what compare.py takes as this run's own noise
        "pass_spread": {
            "setup_s": spread(row["setup_s"] for row in setup_rows),
            **{
                key: spread(
                    row[key] for row in plain_rows if row[key] is not None
                )
                for key in PASS_METRICS
                if any(row[key] is not None for row in plain_rows)
            },
        },
        "latency_samples_per_pass": latency_samples,
        "supported_tail_percentile": supported_tail(latency_samples),
        "end_to_end": end_to_end,
        # not in BENCHMARK.json (null off live_delta_mix); see README
        "write_p50_ms": headline["write_p50_ms"],
        "failed_share": _ratio(failed, attempted),
        "attempted": attempted,
        "failed": failed,
        "raw_latencies_ms": [
            [round(l * 1e3, 4) for l in p.latencies_s] for p in passes
        ],
        "raw_write_latencies_ms": [
            [round(l * 1e3, 4) for l in p.write_latencies_s] for p in passes
        ],
    }

    metrics = end_to_end
    units = END_TO_END_UNITS
    if args.trace:
        metrics, layer_detail = per_layer_metrics(args, workload, tracer, window)
        detail.update(layer_detail)
        units = dict(all_per_layer_units())
    detail["metrics"] = metrics

    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (RESULTS_DIR / name).write_text(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": 0.0 if value is None else value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def all_per_layer_units() -> Dict[str, str]:
    import probes

    return {**probes.probe_units(), **WORKLOAD_METRIC_UNITS}


def per_layer_metrics(args, workload, tracer, window: Window):
    """The traced run's numbers: workload-derived metrics, the reconciled
    trace, and the probe suite on the in-bench replica."""
    import adapter
    import probes
    from spans import layer_self_ms, span_cost_s

    sizes = workload.sizes
    fixture = adapter.Fixture(sizes["http_engines"], sizes["http_pool"])
    try:
        if workload.topology:
            try:
                graft_http_spans(
                    tracer, fixture, workload, window.passes_where(traced=True)
                )
            except Exception:  # the replica lost a piece: no layers, all residual
                traceback.print_exc(file=sys.stderr)
                tracer.missing.append(f"replica.{workload.topology}")
                for result in window.passes_where(traced=True):
                    for sample in result.samples:
                        tracer.add(
                            "client.request", sample.send_ns, sample.last_ns,
                            request=sample.request_id,
                        )
        probe_values, probe_errors = probes.run_probes(fixture)
    finally:
        fixture.close()
    probe_errors += len(set(tracer.missing))

    # -- reconcile: per traced search/select request the root span is the
    # client's view.  Layer self times are averaged over the *median
    # requests* (the central tenth by client latency), so they add up to
    # the p50 they explain; what no wrapped call covers is the residual.
    roots = [
        s for s in tracer.spans
        if s["parent"] is None and s["name"] != "client.write"
    ]
    roots.sort(key=lambda s: s["end_ns"] - s["start_ns"])
    centre, half = len(roots) // 2, max(2, len(roots) // 20)
    band = roots[max(0, centre - half): centre + half + 1]
    band_ids = [s["request"] for s in band]
    wanted = set(band_ids)
    self_ms = layer_self_ms(
        [s for s in tracer.spans if s["request"] in wanted], band_ids
    )
    layers = {
        name: sum(values) / len(values)
        for name, values in self_ms.items() if not name.startswith("client.")
    }
    residual = sum(
        sum(values) / len(values)
        for name, values in self_ms.items() if name.startswith("client.")
    )
    client_p50 = median((s["end_ns"] - s["start_ns"]) / 1e6 for s in roots)

    # Tracing overhead, measured: the best traced pass against the best
    # untraced pass of the same run (they alternate).  HTTP workloads record
    # client timestamps on every pass and re-enact on the replica afterwards,
    # so there the two sets run identical code and the figure is this run's
    # A/A noise.  The modelled figure (spans recorded in the program's own
    # process per request x the calibrated cost of one span, over the p50)
    # is written beside it.
    passes = window.passes
    plain_best = best_pass(window.rows_where(traced=False))
    traced_best = best_pass(window.rows_where(traced=True))
    overhead_share = 1.0 - _ratio(
        traced_best["req_per_s"], plain_best["req_per_s"]
    )
    in_process_spans = 0 if workload.topology else len(tracer.spans)
    traced_ops = sum(p.attempted for p in window.passes_where(traced=True))
    modelled_overhead = _ratio(
        _ratio(in_process_spans, traced_ops) * span_cost_s() * 1e3, client_p50
    )
    ok_ops = window.ok_ops
    all_latencies_ms = [l * 1e3 for p in passes for l in p.latencies_s]
    ttfb = [t * 1e3 for p in passes for t in p.ttfb_s] or all_latencies_ms
    if workload.topology:
        generator_cpu = sum(p.generator_cpu_s for p in passes)
        generator_wall = sum(p.interval.seconds for p in passes)
    else:  # the caller is the program's own process
        generator_cpu, generator_wall = window.own_cpu_s, window.seconds
    delta = {
        k: window.counters_after[k] - window.counters_before[k]
        for k in window.counters_after
    }
    used = {
        k: window.stats_after[k] - window.stats_before[k]
        for k in ("cpu_s", "ctx_switches")
    }
    searches = sum(len(p.latencies_s) for p in passes)
    response_bytes = [b for p in passes for b in p.response_bytes]
    values = dict(probe_values)
    values.update({
        "loadgen.latency_p99_ms": percentile(all_latencies_ms, 99),
        "loadgen.ttfb_p50_ms": percentile(ttfb, 50),
        "loadgen.cpu_share": _ratio(generator_cpu, generator_wall),
        "proc.cpu_ms_per_req": _ratio(used["cpu_s"] * 1e3, ok_ops),
        "proc.ctx_switches_per_req": _ratio(used["ctx_switches"], ok_ops),
        "http.body_bytes_per_resp": _ratio(
            sum(response_bytes), len(response_bytes)
        ),
        "cache.estimate_hit_ratio": _ratio(
            delta["hits"], delta["hits"] + delta["misses"]
        ),
        "cache.evictions_per_req": _ratio(delta["evictions"], ok_ops),
        "polycache.hit_ratio": _ratio(
            delta["poly_hits"], delta["poly_hits"] + delta["poly_misses"]
        ),
        "dispatch.engines_per_req": _ratio(
            sum(p.engines_invoked for p in passes), searches
        ),
        "trace.residual_ms": residual,
        "trace.residual_share": _ratio(residual, client_p50),
        "trace.overhead_share": overhead_share,
        "probe.errors": float(probe_errors),
        "host.slowdown": workload.host.slowdown(),  # every sample of the run
        "live.write_p50_ms": best_pass(window.rows)["write_p50_ms"],
    })
    tracer.write_jsonl(RESULTS_DIR / f"trace-{args.workload}.jsonl")
    explained = sum(layers.values()) + residual
    detail = {
        "layer_self_ms_p50": layers,
        "reconciliation": {
            "median_requests": len(band),
            "client_latency_p50_ms": client_p50,
            "sum_layer_self_ms": sum(layers.values()),
            "residual_ms": residual,
            "error_share": _ratio(abs(explained - client_p50), client_p50),
            "traced_requests": len(roots),
        },
        "trace_overhead_modelled": modelled_overhead,
        "missing_symbols": sorted(set(tracer.missing)),
        "null_metrics": sorted(k for k, v in values.items() if v is None),
    }
    return values, detail


def graft_http_spans(tracer, fixture, workload, traced_passes) -> None:
    """HTTP workloads: the request span is the client's; its children are a
    re-enactment of the same body on the in-bench replica (three runs, the
    median one kept), placed at the start of the client span.  What the
    replica does not explain stays in the client span's self time."""
    if fixture.bodies != workload.bodies:
        raise RuntimeError("replica inputs differ from the workload's")
    reenactor = type(tracer)()
    fixture.trace_replica(reenactor, workload.topology)
    tracer.missing.extend(reenactor.missing)
    templates = {}
    try:
        for index in {s.index for p in traced_passes for s in p.samples}:
            runs = [
                fixture.reenact(reenactor, workload.topology, fixture.bodies[index])
                for __ in range(3)
            ]
            runs.sort(key=lambda spans: sum(
                s["end_ns"] - s["start_ns"] for s in spans if s["parent"] is None
            ))
            templates[index] = runs[1]
    finally:
        reenactor.unwrap_all()
    for result in traced_passes:
        for sample in result.samples:
            if not sample.ok:
                continue
            root = tracer.add(
                "client.request", sample.send_ns, sample.last_ns,
                request=sample.request_id,
            )
            template = templates[sample.index]
            shift = sample.send_ns - min(s["start_ns"] for s in template)
            ids = {}
            for span in sorted(template, key=lambda s: s["start_ns"]):
                ids[span["id"]] = tracer.add(
                    span["name"], span["start_ns"] + shift,
                    span["end_ns"] + shift,
                    parent=ids.get(span["parent"], root),
                    request=sample.request_id,
                )


# -- the whole report ----------------------------------------------------------------


def fingerprint(seed: int) -> dict:
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=BENCH_DIR.parent,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def run_child(workload: str, seed: int, seconds: int, trace: int, scale: str) -> dict:
    """One contract-mode invocation in its own process (so peak RSS is the
    workload's own); returns its result line plus the detail file."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--scale", scale],
        stdout=subprocess.PIPE, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} (trace {trace}) printed no result")
    result = json.loads(lines[-1])
    detail_path = RESULTS_DIR / f"{workload}-trace{trace}-seed{seed}.json"
    result["detail"] = json.loads(detail_path.read_text())
    result["exit_code"] = completed.returncode
    return result


def run_set(args, spec: dict, label: str) -> dict:
    report = {"label": label, "fingerprint": fingerprint(args.seed), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run_child(workload, args.seed, args.seconds, 0, args.scale)
        traced = run_child(workload, args.seed, args.seconds, 1, args.scale)
        report["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "setups": plain["detail"]["setups"],
            "passes": plain["detail"]["passes"],
            "pass_spread": plain["detail"]["pass_spread"],
            "write_p50_ms": plain["detail"]["write_p50_ms"],
            "failed_share": plain["detail"]["failed_share"],
            "layer_self_ms_p50": traced["detail"]["layer_self_ms_p50"],
            "reconciliation": traced["detail"]["reconciliation"],
            "null_metrics": traced["detail"]["null_metrics"],
        }
    return report


def print_report(report: dict, spec: dict) -> None:
    names = list(report["workloads"])
    width = max(len(m["name"]) for m in spec["per_layer"]) + 2

    def row(metric: str, unit: str, section: str) -> None:
        cells = []
        for name in names:
            entry = report["workloads"][name]
            value = entry[section].get(metric, {}).get("value")
            if value is None or metric in entry["null_metrics"]:
                cells.append("null".rjust(20))
            else:
                cells.append(f"{value:20.4f}")
        print(f"{metric:<{width}}{unit:<7}" + "".join(cells))

    print(json.dumps(report["fingerprint"]))
    print(f"{'metric':<{width}}{'unit':<7}" + "".join(n.rjust(20) for n in names))
    print("-- end to end (tracing off)")
    for metric in spec["end_to_end"]:
        row(metric["name"], metric["unit"], "end_to_end")
    for extra in ("write_p50_ms", "failed_share"):
        cells = "".join(
            "null".rjust(20) if report["workloads"][n][extra] is None
            else f"{report['workloads'][n][extra]:20.4f}" for n in names
        )
        print(f"{extra:<{width}}{'ms' if extra.endswith('ms') else 'ratio':<7}" + cells)
    print("-- per layer (traced run)")
    for metric in spec["per_layer"]:
        row(metric["name"], metric["unit"], "per_layer")
    print("-- reconciliation: sum of layer self times + residual vs client p50")
    for name in names:
        entry = report["workloads"][name]
        rec = entry["reconciliation"]
        print(
            f"{name}: client p50 {rec['client_latency_p50_ms']:.3f} ms = layers "
            f"{rec['sum_layer_self_ms']:.3f} + residual {rec['residual_ms']:.3f} "
            f"(error {rec['error_share']:.1%}, {rec['traced_requests']} requests)"
        )
        for layer, value in sorted(
            entry["layer_self_ms_p50"].items(), key=lambda kv: -kv[1]
        ):
            print(f"    {layer:<34}{value:10.4f} ms")


def run_report(args) -> int:
    import compare

    spec = json.loads(SPEC_PATH.read_text())
    RESULTS_DIR.mkdir(exist_ok=True)
    labels = ["A", "B"] if args.aa else ["run"]
    paths = []
    bad = False
    for label in labels:
        report = run_set(args, spec, label)
        print_report(report, spec)
        path = RESULTS_DIR / f"report-{args.seed}-{label}.json"
        path.write_text(json.dumps(report, indent=1))
        print(f"wrote {path}")
        paths.append(path)
        bad |= any(not w["correct"] for w in report["workloads"].values())
    if args.aa:
        bad |= compare.main([str(paths[0]), str(paths[1])]) != 0
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload and print its result line")
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="'smoke' shrinks every workload (test_smoke.py)")
    parser.add_argument("--aa", action="store_true",
                        help="two report sets back to back, then compare.py")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(SPEC_PATH.read_text())["run_seconds"]
    if args.workload is None:
        return run_report(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
