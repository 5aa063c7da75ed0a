"""Helpers shared by the benchmark modules (importable, unlike conftest)."""

from __future__ import annotations

import os
from pathlib import Path

BENCH_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "6234"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "1999"))

THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def emit(name: str, text: str) -> None:
    """Print ``text`` and persist it under the bench results directory.

    pytest captures stdout of passing tests, so each bench also writes its
    rendered table to ``benchmarks/results/<name>.txt`` (override the
    directory with ``REPRO_BENCH_RESULTS``) — the artifact EXPERIMENTS.md
    is compiled from.
    """
    print(text)
    results_dir = Path(
        os.environ.get("REPRO_BENCH_RESULTS", "benchmarks/results")
    )
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
