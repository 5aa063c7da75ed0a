"""``eval``: engine selection scored as a ranking task over the golden
query strata, behind one of three broker configurations."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli.common import UsageError, collection_documents, usage_errors
from repro.core import get_estimator
from repro.engine import SearchEngine
from repro.metasearch import MetasearchBroker
from repro.representatives import build_representative

_EVAL_ESTIMATORS = [
    "basic",
    "binary-independence",
    "gloss-hc",
    "gloss-disjoint",
    "subrange",
]


def add_eval(sub) -> None:
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


def _eval_backend(args, estimator, engines, representatives, stack):
    """``repro eval``'s backend for one estimator, behind the chosen
    configuration; resources (sharded topologies) register on ``stack``."""
    if args.config == "sharded":
        # A real sharded topology: shard brokers behind in-process HTTP
        # servers, a ShardedFleet coordinator in front estimating from the
        # representatives it read off the shards at attach.
        # Representatives and hits travel the same wire CI's subprocess
        # topology uses; only the process boundary is elided.
        from repro.representatives import partition_round_robin
        from repro.serving import ServingServer, ShardApp, ShardedFleet

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
        fleet = ShardedFleet(urls, estimator=estimator).attach(timeout=30.0)
        stack.callback(fleet.close)
        return fleet
    broker = MetasearchBroker(estimator=estimator)
    for engine in engines:
        if args.config == "columnar":
            broker.register(engine, representative=representatives[engine.name])
        else:
            _register_through_deltas(broker, engine)
    return broker


def _register_through_deltas(broker, engine) -> None:
    """The live-fleet path of ``--config delta``: ``engine`` starts
    registered from a *partial* corpus snapshot, then the broker catches
    up to the full corpus through versioned deltas (including a
    remove-then-re-add to exercise document removal) — the estimates the
    harness scores come from delta-applied representatives, not fresh
    builds."""
    from repro.fleet import LiveEngineServer

    documents = collection_documents(engine.collection)
    held_back = max(1, len(documents) // 4)
    live = LiveEngineServer(engine.name, documents[: len(documents) - held_back])
    base = live.delta_since(0)
    broker.register(
        engine, representative=base.as_representative(), version=base.to_version
    )
    if live.n_documents:
        victim = documents[0]
        live.remove_documents([victim.doc_id])
        live.add_documents([victim])
    live.add_documents(documents[len(documents) - held_back :])
    broker.apply_representative_delta(live.delta_since(base.to_version))


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

    golden_dir = Path(args.golden_dir) if args.golden_dir else None
    n_engines = args.engines if args.engines is not None else DEFAULT_N_ENGINES
    seed = args.seed if args.seed is not None else DEFAULT_SEED

    if args.write_golden:
        if golden_dir is None:
            raise UsageError("--write-golden needs --golden-dir")
        written = write_golden_strata(golden_dir, seed=seed, n_engines=n_engines)
        for name, path in sorted(written.items()):
            print(f"wrote {path} ({name})")
        return 0

    with usage_errors():
        estimators = {name: get_estimator(name) for name in args.estimators}
    committed = golden_dir is not None and (golden_dir / "manifest.json").exists()
    if committed:
        manifest = golden_manifest(golden_dir)
        # An explicit seed other than the committed sets' regenerates them
        # in memory, so the whole run (fleet + queries) derives from it.
        committed = args.seed in (None, int(manifest["seed"]))
        seed = int(manifest["seed"]) if args.seed is None else args.seed
        if committed or args.engines is None:
            n_engines = int(manifest["n_engines"])

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
        with usage_errors():
            backends = {
                name: _eval_backend(args, estimator, engines, representatives, stack)
                for name, estimator in estimators.items()
            }
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
        scores = result.payload["strata"][name]["estimators"]
        fired = [e for e, score in scores.items() if not score["tripwires"]["ok"]]
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
