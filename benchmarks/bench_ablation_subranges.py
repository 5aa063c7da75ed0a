"""Ablation — how many subranges does the method need?

Sweeps equal-mass schemes (1, 2, 4, 8 subranges, each plus the max-weight
singleton) against the paper's tuned six-subrange configuration on D1.
The paper asserts narrower top subranges help at high thresholds; this
bench quantifies it on the synthetic corpus.
"""

from repro.core import SubrangeEstimator
from repro.evaluation import MethodSpec, run_usefulness_experiment
from repro.representatives import SubrangeScheme

from _bench_utils import THRESHOLDS, emit

DB = "D1"
SAMPLE = 1200


def test_ablation_subrange_count(benchmark, databases, query_log):
    engine, rep = databases[DB]
    queries = query_log[:SAMPLE]
    methods = [
        MethodSpec(
            f"equal-{k}",
            SubrangeEstimator(scheme=SubrangeScheme.equal(k, include_max=True)),
            rep,
            label=f"{k} equal subranges + max",
        )
        for k in (1, 2, 4, 8)
    ]
    methods.append(MethodSpec("paper-six", SubrangeEstimator(), rep,
                              label="paper 6-subrange"))
    result = benchmark.pedantic(
        run_usefulness_experiment,
        args=(engine, queries, methods, THRESHOLDS),
        rounds=1,
        iterations=1,
    )
    lines = [
        "",
        f"=== ablation: subrange count on {DB} ({len(queries)} queries) ===",
        f"{'scheme':>24}  {'match':>6}  {'mismatch':>8}  "
        f"{'sum d-N':>8}  {'sum d-S':>8}",
    ]
    summaries = {}
    for spec in methods:
        rows = result.metrics[spec.key]
        summary = (
            sum(r.match for r in rows),
            sum(r.mismatch for r in rows),
            sum(r.d_nodoc for r in rows),
            sum(r.d_avgsim for r in rows),
        )
        summaries[spec.key] = summary
        lines.append(f"{spec.label:>24}  {summary[0]:>6}  {summary[1]:>8}  "
                     f"{summary[2]:>8.2f}  {summary[3]:>8.3f}")
    emit("ablation_subranges", "\n".join(lines))

    # More subranges monotonically (weakly) improves NoDoc error from 1->4.
    assert summaries["equal-4"][2] <= summaries["equal-1"][2]
    # The tuned paper scheme is competitive with the best equal scheme.
    best_equal_ds = min(summaries[f"equal-{k}"][3] for k in (1, 2, 4, 8))
    assert summaries["paper-six"][3] <= best_equal_ds * 1.25
