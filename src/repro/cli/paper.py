"""The paper's commands: corpora, representatives, estimates, Tables 1-12
(``evaluate``), corpus statistics, allocation, TREC import and the
Section 3.2 sizing table (``scalability``)."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.common import UsageError, at_least_one, seed_options, usage_errors
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
from repro.metasearch import plan_allocation
from repro.representatives import (
    DatabaseRepresentative,
    FleetRepresentativeStore,
    PAPER_COLLECTION_STATS,
    build_representative,
    sizing_for_collection,
)


def _query(args: argparse.Namespace) -> Query:
    """``--query``'s terms; a query too long to expand is a usage error."""
    with usage_errors():
        return check_query_length(Query.from_terms(args.query.split()))


def add_synth(sub) -> None:
    p = sub.add_parser("synth", help="generate the synthetic D1/D2/D3 + query log")
    p.add_argument("--out-dir", default="data")
    seed_options(p)
    p.add_argument("--n-queries", type=int, default=6234)
    p.set_defaults(func=_cmd_synth)


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


def add_represent(sub) -> None:
    p = sub.add_parser("represent", help="build a database representative")
    p.add_argument("--collection", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_represent)


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


def add_estimate(sub) -> None:
    p = sub.add_parser("estimate", help="estimate usefulness for one query")
    p.add_argument("--collection", required=True)
    p.add_argument("--representative", default=None)
    p.add_argument("--query", required=True, help="space-separated terms")
    p.add_argument("--threshold", type=float, default=0.2)
    p.add_argument("--method", default="subrange")
    p.set_defaults(func=_cmd_estimate)


def _cmd_estimate(args: argparse.Namespace) -> int:
    with usage_errors():
        estimator = get_estimator(args.method)
    query = _query(args)
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


def add_evaluate(sub) -> None:
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
    seed_options(p)
    p.set_defaults(func=_cmd_evaluate)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    at_least_one(args, "--queries")
    for flag, names in (("--database", args.database), ("--methods", args.methods)):
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise UsageError(f"{flag} names {', '.join(repeated)} more than once")
    with usage_errors():
        estimators = [get_estimator(name) for name in args.methods]
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


def add_analyze(sub) -> None:
    p = sub.add_parser("analyze", help="corpus statistics of a collection")
    p.add_argument("--collection", required=True)
    p.set_defaults(func=_cmd_analyze)


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


def add_allocate(sub) -> None:
    p = sub.add_parser(
        "allocate", help="per-engine retrieval quotas for a desired k"
    )
    p.add_argument("--representatives", nargs="+", required=True,
                   help="representative JSON files, one per engine")
    p.add_argument("--query", required=True, help="space-separated terms")
    p.add_argument("-k", type=int, default=10)
    p.set_defaults(func=_cmd_allocate)


def _cmd_allocate(args: argparse.Namespace) -> int:
    query = _query(args)
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


def add_import_trec(sub) -> None:
    p = sub.add_parser(
        "import-trec", help="convert TREC SGML files into a collection"
    )
    p.add_argument("files", nargs="+")
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_import_trec)


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


def add_scalability(sub) -> None:
    p = sub.add_parser("scalability", help="print the Section 3.2 sizing table")
    p.add_argument("--synthetic", action="store_true",
                   help="append rows for the synthetic D1/D2/D3")
    p.add_argument("--seed", type=int, default=1999)
    p.set_defaults(func=_cmd_scalability)


def _cmd_scalability(args: argparse.Namespace) -> int:
    rows = list(PAPER_COLLECTION_STATS)
    if args.synthetic:
        model = NewsgroupModel(seed=args.seed)
        rows.extend(
            sizing_for_collection(c) for c in build_paper_databases(model)
        )
    print(format_sizing_table(rows))
    return 0
