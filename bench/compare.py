#!/usr/bin/env python3
"""Compare two benchmark reports: ``python3 bench/compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate (both written by ``run.py`` without
``--workload``).  For every (end-to-end metric, workload) pair it prints
the ratio ``B/A`` with its base, how much worse ``B`` is as a share of
``A``, and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``regression`` — worse by more than the bound, beyond the noise;
* ``unresolved`` — the bound lies within the noise, so the runs cannot
  say.  Noise is the IQR/median of the report's own passes (of its
  repeated set-ups for ``setup_s``), as ``run.py`` wrote it under
  ``pass_spread``; the larger of the two reports counts;
* ``ok`` otherwise.

Exit status is non-zero when any pair regressed or either report failed
its correctness gate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def pass_noise(entry: dict, metric: str) -> float:
    """IQR/median over the report's own passes; 0 for a metric that is not
    measured per pass (memory)."""
    return entry["pass_spread"].get(metric, {}).get("iqr_share", 0.0)


def verdict(worse_by: float, bound: float, noise: float) -> str:
    if worse_by > bound + noise:
        return "regression"
    if worse_by > bound - noise:
        return "unresolved"
    return "ok"


def compare(base: dict, candidate: dict, spec: dict) -> List[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = base["workloads"][workload], candidate["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = a["end_to_end"][name]["value"]
            new = b["end_to_end"][name]["value"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (new - old) / old
            noise = max(pass_noise(a, name), pass_noise(b, name))
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": old, "candidate": new, "ratio": new / old,
                "worse_by": worse_by, "bound": metric["bound"], "noise": noise,
                "verdict": verdict(worse_by, metric["bound"], noise),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads(SPEC_PATH.read_text())
    rows = compare(base, candidate, spec)
    print(
        f"{'workload':<20}{'metric':<16}{'base':>12}{'candidate':>12}"
        f"{'ratio':>8}{'worse by':>10}{'bound':>7}{'noise':>7}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<20}{row['metric']:<16}{row['base']:>12.4f}"
            f"{row['candidate']:>12.4f}{row['ratio']:>8.3f}"
            f"{row['worse_by']:>+10.1%}{row['bound']:>7.0%}{row['noise']:>7.1%}"
            f"  {row['verdict']}"
        )
    incorrect = [
        f"{label}:{name}"
        for label, report in (("base", base), ("candidate", candidate))
        for name, entry in report["workloads"].items() if not entry["correct"]
    ]
    for item in incorrect:
        print(f"correctness gate failed in {item}")
    regressed = [r for r in rows if r["verdict"] == "regression"]
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    print(
        f"{len(rows)} pairs: {len(regressed)} regression, "
        f"{unresolved} unresolved"
    )
    return 1 if regressed or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
