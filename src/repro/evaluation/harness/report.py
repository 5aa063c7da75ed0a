"""Timestamped markdown + JSON eval reports, and the floor gate.

The one markdown report renderer, modeled on the benchmark JSON
artifacts: ``write_report`` emits
``results/eval_<config>.json`` (the machine artifact CI uploads and
gates on) and ``results/eval_<config>.md`` (the human summary), both
stamped with the same UTC timestamp.

``check_floors`` is the regression gate: a committed floors file maps
``strata -> estimator -> metric -> floor`` and every present metric in a
report must meet its floor (tripwire counters are ceilings at 0 via the
``tripwires_ok`` pseudo-metric).  It returns violations instead of
raising so CI can print all of them before failing.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.evaluation.harness.runner import EvalResult

__all__ = ["check_floors", "render_markdown", "utc_timestamp", "write_report"]

_METRIC_COLUMNS = (
    "precision",
    "recall",
    "f1",
    "exact_set_rate",
    "mrr",
    "ndcg",
    "kendall_tau",
)


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _md_table(headers: List[str], rows: List[List[str]]) -> str:
    out = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for __ in headers) + "|",
    ]
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.3f}"


def render_markdown(result: EvalResult) -> str:
    """The human-readable report: one metric table and one tripwire
    summary per stratum, plus the inter-estimator agreement band."""
    payload = result.payload
    lines = [
        f"# Engine-selection evaluation — `{payload['config']}`",
        "",
        f"Generated {payload['generated_at']} · seed {payload['seed']} · "
        f"{len(payload['engines'])} engines · estimators: "
        + ", ".join(f"`{e}`" for e in payload["estimators"]),
        "",
    ]
    for name in sorted(payload["strata"]):
        stratum = payload["strata"][name]
        lines.append(f"## {name}")
        lines.append("")
        lines.append(
            f"{stratum['description']} — {stratum['n_queries']} queries at "
            f"threshold {stratum['threshold']:g} "
            f"({stratum['oracle']['useful_queries']} with a truly useful "
            f"engine, mean truth-set size "
            f"{stratum['oracle']['mean_truth_set_size']:.2f})"
        )
        lines.append("")
        headers = ["estimator"] + list(_METRIC_COLUMNS) + ["tripwires"]
        rows = []
        for estimator in sorted(stratum["estimators"]):
            scores = stratum["estimators"][estimator]
            wires = scores["tripwires"]
            status = (
                "ok"
                if wires["ok"]
                else "FAIL ("
                + ", ".join(
                    f"{key}={wires[key]}"
                    for key in (
                        "monotonicity_violations",
                        "degenerate_rankings",
                        "missed_all",
                    )
                    if wires[key]
                )
                + ")"
            )
            rows.append(
                [f"`{estimator}`"]
                + [_fmt(scores[m]) for m in _METRIC_COLUMNS]
                + [status]
            )
        lines.append(_md_table(headers, rows))
        agreement = stratum["agreement"]
        lines.append("")
        lines.append(
            f"Inter-estimator agreement: mean pairwise tau-b "
            f"{agreement['mean_pairwise_tau']:.3f}"
            + (
                f"; below floor: {', '.join(agreement['below_floor'])}"
                if agreement["below_floor"]
                else ""
            )
        )
        lines.append("")
    return "\n".join(lines)


def write_report(
    result: EvalResult, out_dir: Union[str, Path]
) -> Dict[str, Path]:
    """Write ``eval_<config>.{md,json}``; returns the two paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not result.payload.get("generated_at"):
        result.payload["generated_at"] = utc_timestamp()
    json_path = out_dir / f"eval_{result.config}.json"
    md_path = out_dir / f"eval_{result.config}.md"
    json_path.write_text(
        json.dumps(result.payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    md_path.write_text(render_markdown(result) + "\n", encoding="utf-8")
    return {"json": json_path, "md": md_path}


def check_floors(
    payload: dict, floors: dict
) -> List[str]:
    """Violations of a committed floors file against a report payload.

    Floors format::

        {"strata": {stratum: {estimator: {metric: floor, ...}}}}

    ``metric`` is any numeric key of the estimator's scores; the
    pseudo-metric ``tripwires_ok`` (floor ``true``) requires the
    tripwires to be clean.  A floored metric that is ``null`` in the
    report (e.g. MRR with no relevant queries) is a violation — the
    floor asserts the metric exists.  Unknown strata/estimators/metrics
    are violations too: a floor that silently stops binding is how
    regressions slip through.
    """
    violations: List[str] = []
    for stratum_name, per_estimator in floors.get("strata", {}).items():
        stratum = payload.get("strata", {}).get(stratum_name)
        if stratum is None:
            violations.append(f"{stratum_name}: stratum missing from report")
            continue
        for estimator, metric_floors in per_estimator.items():
            scores = stratum["estimators"].get(estimator)
            if scores is None:
                violations.append(
                    f"{stratum_name}/{estimator}: estimator missing from report"
                )
                continue
            for metric, floor in metric_floors.items():
                if metric == "tripwires_ok":
                    if bool(floor) and not scores["tripwires"]["ok"]:
                        violations.append(
                            f"{stratum_name}/{estimator}: tripwires fired "
                            f"{scores['tripwires']}"
                        )
                    continue
                value = scores.get(metric)
                if value is None:
                    violations.append(
                        f"{stratum_name}/{estimator}/{metric}: "
                        f"missing or null (floor {floor})"
                    )
                elif value < floor:
                    violations.append(
                        f"{stratum_name}/{estimator}/{metric}: "
                        f"{value:.4f} < floor {floor}"
                    )
    return violations


def load_floors(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
