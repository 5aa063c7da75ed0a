"""The harness core: score any broker backend over golden strata.

A *backend* is anything with the broker's ``estimate_batch(queries,
thresholds) -> List[EstimateRow]`` surface (lists of best-first
``EstimatedUsefulness`` will do) — the in-process broker, or the sharded
:class:`~repro.serving.coordinator.ShardedFleet` — which is exactly what
makes the harness a differential quality gate: every configuration is
scored against the same exact oracle with the same metrics, so two
backends claiming bit-exactness must produce *identical* reports.

Per (stratum, estimator) the harness computes:

* selected-set quality versus the oracle set (macro precision / recall /
  F1 and exact-set rate per query, plus the micro
  :class:`~repro.evaluation.selection.SelectionQuality` counts),
* rank quality of the usefulness ordering (MRR of the first truly
  useful engine, NDCG with true NoDoc as graded gain, Kendall tau-b
  against the oracle ordering),
* the structural tripwires of
  :mod:`repro.evaluation.harness.diagnostics`.

The oracle is computed once per stratum from the engines' exhaustive
similarity scan (:func:`repro.core.truth.true_usefulness`), never from
any backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.truth import true_usefulness
from repro.engine.search_engine import SearchEngine
from repro.evaluation.harness.diagnostics import (
    agreement_matrix,
    run_tripwires,
)
from repro.evaluation.harness.ranking import (
    kendall_tau_b,
    mean,
    mrr,
    ndcg,
    set_f1,
    set_precision,
    set_recall,
)
from repro.evaluation.harness.strata import GoldenStratum
from repro.evaluation.selection import (
    SelectionQuality,
    selection_quality_from_sets,
)
from repro.metasearch.selection import (
    EstimateRow,
    SelectionPolicy,
    ThresholdPolicy,
)

__all__ = [
    "EVAL_FORMAT",
    "EvalResult",
    "StratumOracle",
    "compute_oracle",
    "run_evaluation",
]

EVAL_FORMAT = 1


@dataclass(frozen=True)
class StratumOracle:
    """Exact per-query ground truth for one stratum.

    Attributes:
        nodoc_rows: Per query, true NoDoc by engine name.
        avgsim_rows: Per query, true AvgSim by engine name.
        truth_sets: Per query, the engines truly holding at least one
            document above the threshold.
        rankings: Per query, engine names best-first under the broker's
            total order ``(-nodoc, -avgsim, name)``.
    """

    nodoc_rows: List[Dict[str, float]]
    avgsim_rows: List[Dict[str, float]]
    truth_sets: List[frozenset]
    rankings: List[List[str]]


def compute_oracle(
    engines: Sequence[SearchEngine], stratum: GoldenStratum
) -> StratumOracle:
    """Exhaustive truth for every (query, engine) of the stratum."""
    nodoc_rows: List[Dict[str, float]] = []
    avgsim_rows: List[Dict[str, float]] = []
    truth_sets: List[frozenset] = []
    rankings: List[List[str]] = []
    for query in stratum.queries:
        nodoc: Dict[str, float] = {}
        avgsim: Dict[str, float] = {}
        for engine in engines:
            truth = true_usefulness(engine, query, stratum.threshold)
            nodoc[engine.name] = truth.nodoc
            avgsim[engine.name] = truth.avgsim
        nodoc_rows.append(nodoc)
        avgsim_rows.append(avgsim)
        truth_sets.append(
            frozenset(name for name, n in nodoc.items() if n >= 1.0)
        )
        rankings.append(
            sorted(nodoc, key=lambda n: (-nodoc[n], -avgsim[n], n))
        )
    return StratumOracle(
        nodoc_rows=nodoc_rows,
        avgsim_rows=avgsim_rows,
        truth_sets=truth_sets,
        rankings=rankings,
    )


@dataclass
class EvalResult:
    """A finished evaluation: the JSON-able report plus per-query detail.

    ``payload`` is everything the report writer serializes.  ``detail``
    keeps the per-query rankings and selected sets (``detail[stratum]
    [estimator]``) for differential tests — deliberately *not* part of
    the JSON, which stays an aggregate artifact.
    """

    payload: dict
    detail: Dict[str, Dict[str, dict]] = field(default_factory=dict)

    @property
    def config(self) -> str:
        return self.payload["config"]

    def comparable(self) -> dict:
        """The payload minus run identity (config label, timestamp) — two
        backends claiming exactness must agree on this, byte for byte."""
        return {
            k: v
            for k, v in self.payload.items()
            if k not in ("config", "generated_at")
        }


def _score_estimator(
    backend,
    stratum: GoldenStratum,
    oracle: StratumOracle,
    policy: SelectionPolicy,
) -> tuple:
    """Score one backend over one stratum; returns (scores, detail,
    nodoc_rows) where nodoc_rows feeds the agreement matrix."""
    queries = list(stratum.queries)
    low_rows = backend.estimate_batch(queries, stratum.threshold)
    high_rows = backend.estimate_batch(queries, stratum.diagnostic_threshold)

    rankings: List[List[str]] = []
    selected_sets: List[frozenset] = []
    nodoc_rows: List[Dict[str, float]] = []
    rounded_rows: List[Dict[str, int]] = []
    high_nodoc_rows: List[Dict[str, float]] = []
    for row, high_row in zip(low_rows, high_rows):
        row, high_row = EstimateRow.of(row), EstimateRow.of(high_row)
        ranking = row.engines
        nodoc = row.nodoc[row.order]
        rankings.append(ranking)
        selected_sets.append(frozenset(policy.select(row)))
        nodoc_rows.append(dict(zip(ranking, nodoc.tolist())))
        rounded_rows.append(
            dict(zip(ranking, np.floor(nodoc + 0.5).astype(np.int64).tolist()))
        )
        high_nodoc_rows.append(
            dict(zip(high_row.engines, high_row.nodoc[high_row.order].tolist()))
        )

    precisions = [
        set_precision(sel, truth)
        for sel, truth in zip(selected_sets, oracle.truth_sets)
    ]
    recalls = [
        set_recall(sel, truth)
        for sel, truth in zip(selected_sets, oracle.truth_sets)
    ]
    f1s = [
        set_f1(sel, truth)
        for sel, truth in zip(selected_sets, oracle.truth_sets)
    ]
    exact = sum(
        1 for sel, truth in zip(selected_sets, oracle.truth_sets) if sel == truth
    )
    micro: SelectionQuality = selection_quality_from_sets(
        zip(selected_sets, oracle.truth_sets)
    )
    rank_mrr = mrr(rankings, oracle.truth_sets)
    ndcgs = [
        ndcg(ranking, gains)
        for ranking, gains in zip(rankings, oracle.nodoc_rows)
    ]
    taus = [
        kendall_tau_b(est, truth)
        for est, truth in zip(nodoc_rows, oracle.nodoc_rows)
    ]
    tripwires = run_tripwires(
        nodoc_rows, high_nodoc_rows, rounded_rows, oracle.nodoc_rows
    )
    scores = {
        "precision": mean(precisions),
        "recall": mean(recalls),
        "f1": mean(f1s),
        "exact_set_rate": exact / len(queries) if queries else 1.0,
        "micro_precision": micro.precision,
        "micro_recall": micro.recall,
        "mrr": rank_mrr,
        "ndcg": mean(ndcgs),
        "kendall_tau": mean(taus),
        "tripwires": tripwires.as_dict(),
    }
    detail = {
        "rankings": rankings,
        "selected": [sorted(s) for s in selected_sets],
        "nodoc": nodoc_rows,
    }
    return scores, detail, nodoc_rows


def run_evaluation(
    backends: Mapping[str, object],
    engines: Sequence[SearchEngine],
    strata: Mapping[str, GoldenStratum],
    *,
    config: str,
    seed: Optional[int] = None,
    policy: Optional[SelectionPolicy] = None,
    generated_at: str = "",
) -> EvalResult:
    """Score every backend (one per estimator name) over every stratum.

    Args:
        backends: Estimator name -> backend exposing ``estimate_batch``.
            Each backend must rank the same engines as ``engines``.
        engines: The fleet the oracle is computed on.
        strata: Golden strata keyed by name.
        config: Label for the backend configuration under test
            (``columnar`` / ``sharded`` / custom).
        seed: The golden seed, echoed into the report.
        policy: Selection policy; the paper's threshold criterion by
            default.
        generated_at: Timestamp string stamped into the report (callers
            pass it so two runs can be compared with it stripped).
    """
    policy = policy or ThresholdPolicy()
    strata_payload: Dict[str, dict] = {}
    detail: Dict[str, Dict[str, dict]] = {}
    for name in sorted(strata):
        stratum = strata[name]
        oracle = compute_oracle(engines, stratum)
        estimator_scores: Dict[str, dict] = {}
        stratum_detail: Dict[str, dict] = {}
        nodoc_by_estimator: Dict[str, List[Dict[str, float]]] = {}
        for estimator_name in sorted(backends):
            scores, est_detail, nodoc_rows = _score_estimator(
                backends[estimator_name], stratum, oracle, policy
            )
            estimator_scores[estimator_name] = scores
            stratum_detail[estimator_name] = est_detail
            nodoc_by_estimator[estimator_name] = nodoc_rows
        strata_payload[name] = {
            "description": stratum.description,
            "threshold": stratum.threshold,
            "diagnostic_threshold": stratum.diagnostic_threshold,
            "n_queries": stratum.n_queries,
            "oracle": {
                "useful_queries": sum(
                    1 for s in oracle.truth_sets if s
                ),
                "mean_truth_set_size": mean(
                    [float(len(s)) for s in oracle.truth_sets]
                ),
            },
            "estimators": estimator_scores,
            "agreement": agreement_matrix(nodoc_by_estimator),
        }
        detail[name] = stratum_detail
    payload = {
        "kind": "eval_report",
        "format": EVAL_FORMAT,
        "config": config,
        "generated_at": generated_at,
        "seed": seed,
        "engines": sorted(engine.name for engine in engines),
        "estimators": sorted(backends),
        "strata": strata_payload,
    }
    return EvalResult(payload=payload, detail=detail)
