"""Golden-set harness bench — cost and quality shape of `repro eval`.

Times one full harness pass (five estimators, five committed strata,
columnar brokers) and emits the per-stratum subrange row next to the
weakest baseline.  Asserts the paper's qualitative conclusion holds on
the golden sets: the subrange estimator dominates the basic estimator
on selection F1 on every stratum with a non-trivial oracle, and is the
only estimator expected to stay tripwire-clean on the single-term
stratum (the Section 3.1 guarantee regime).
"""

import time
from pathlib import Path

from repro.core import get_estimator
from repro.engine import SearchEngine
from repro.evaluation.harness import (
    build_eval_fleet,
    golden_manifest,
    load_golden_strata,
    run_evaluation,
)
from repro.metasearch import MetasearchBroker
from repro.representatives import build_representative

from _bench_utils import emit

GOLDEN_DIR = Path(__file__).parent.parent / "tests/integration/golden/queries"

ESTIMATORS = [
    "basic",
    "binary-independence",
    "gloss-hc",
    "gloss-disjoint",
    "subrange",
]


def test_eval_harness_full_pass():
    manifest = golden_manifest(GOLDEN_DIR)
    strata = load_golden_strata(GOLDEN_DIR)
    collections = build_eval_fleet(
        int(manifest["seed"]), int(manifest["n_engines"])
    )
    engines = [SearchEngine(c) for c in collections]
    representatives = {e.name: build_representative(e) for e in engines}

    backends = {}
    for name in ESTIMATORS:
        broker = MetasearchBroker(estimator=get_estimator(name))
        for engine in engines:
            broker.register(engine, representative=representatives[engine.name])
        backends[name] = broker

    start = time.perf_counter()
    result = run_evaluation(
        backends, engines, strata, config="bench", seed=int(manifest["seed"])
    )
    elapsed = time.perf_counter() - start

    n_queries = sum(s.n_queries for s in strata.values())
    lines = [
        "",
        f"=== eval harness: {len(ESTIMATORS)} estimators x "
        f"{len(strata)} strata ({n_queries} queries) in {elapsed:.2f}s ===",
        f"{'stratum':<20} {'useful':>6}  "
        f"{'basic f1':>9} {'subrange f1':>11} {'subrange tau':>12}",
    ]
    for name in sorted(result.payload["strata"]):
        stratum = result.payload["strata"][name]
        basic = stratum["estimators"]["basic"]
        subrange = stratum["estimators"]["subrange"]
        lines.append(
            f"{name:<20} {stratum['oracle']['useful_queries']:>6}  "
            f"{basic['f1']:>9.3f} {subrange['f1']:>11.3f} "
            f"{subrange['kendall_tau']:>12.3f}"
        )
        # The paper's method ordering, restated on the golden sets: the
        # subrange estimator never loses to the basic estimator on
        # selection F1 where there is anything to select.  (On the
        # empty-oracle stratum a do-nothing selector scores a vacuous
        # 1.0, so dominance is not claimed there.)
        if stratum["oracle"]["useful_queries"] > 0:
            assert subrange["f1"] >= basic["f1"] - 1e-9, name
    single = result.payload["strata"]["single_term"]["estimators"]["subrange"]
    assert single["tripwires"]["ok"], single["tripwires"]
    assert single["recall"] == 1.0, single  # the Section 3.1 guarantee
    emit("BENCH_eval_harness", "\n".join(lines))
