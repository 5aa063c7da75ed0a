"""Rendering experiment results in the layout of the paper's tables."""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence

from repro.evaluation.experiment import DEGRADED_METHODS, ExperimentResult
from repro.evaluation.paper_reference import PAPER_CONCLUSIONS, published_result
from repro.representatives.sizing import CollectionSizing

__all__ = [
    "format_match_table",
    "format_error_table",
    "format_combined_table",
    "format_conclusions",
    "format_paper_tables",
    "format_sizing_table",
]


def _render_grid(headers: List[str], rows: List[List[str]]) -> str:
    """Fixed-width plain-text grid with right-aligned cells."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_match_table(
    result: ExperimentResult, methods: Optional[Sequence[str]] = None
) -> str:
    """Tables 1/3/5 layout: T, U, then match/mismatch per method."""
    methods = list(methods) if methods is not None else list(result.methods)
    headers = ["T", "U"] + [result.labels[m] for m in methods]
    rows = []
    useful = result.useful_counts()
    for i, threshold in enumerate(result.thresholds):
        row = [f"{threshold:.1f}", str(useful[i])]
        for key in methods:
            row.append(result.metrics[key][i].match_mismatch())
        rows.append(row)
    title = f"match/mismatch on {result.database} ({result.n_queries} queries)"
    return title + "\n" + _render_grid(headers, rows)


def format_error_table(
    result: ExperimentResult, methods: Optional[Sequence[str]] = None
) -> str:
    """Tables 2/4/6 layout: T, U, then d-N and d-S per method."""
    methods = list(methods) if methods is not None else list(result.methods)
    headers = ["T", "U"]
    for key in methods:
        headers.extend([f"{result.labels[key]} d-N", "d-S"])
    rows = []
    useful = result.useful_counts()
    for i, threshold in enumerate(result.thresholds):
        row = [f"{threshold:.1f}", str(useful[i])]
        for key in methods:
            cell = result.metrics[key][i]
            row.extend([f"{cell.d_nodoc:.2f}", f"{cell.d_avgsim:.3f}"])
        rows.append(row)
    title = f"d-N / d-S on {result.database} ({result.n_queries} queries)"
    return title + "\n" + _render_grid(headers, rows)


def format_combined_table(result: ExperimentResult, method: str) -> str:
    """Tables 7-12 layout: T, m/mis, d-N, d-S for one method."""
    headers = ["T", "m/mis", "d-N", "d-S"]
    rows = []
    for i, threshold in enumerate(result.thresholds):
        cell = result.metrics[method][i]
        rows.append(
            [
                f"{threshold:.1f}",
                cell.match_mismatch(),
                f"{cell.d_nodoc:.2f}",
                f"{cell.d_avgsim:.3f}",
            ]
        )
    title = (
        f"{result.labels[method]} on {result.database} "
        f"({result.n_queries} queries)"
    )
    return title + "\n" + _render_grid(headers, rows)


def _with_reference(number: int, reproduction: str, published: str) -> str:
    """One paper table: the reproduction, then the published rows."""
    table = f"table{number}"
    lines = [f"=== {table}: reproduction ===", reproduction]
    if published:
        lines += [f"--- {table}: published values (paper) ---", published]
    else:
        lines.append(f"--- {table}: published values unavailable ---")
    return "\n".join(lines)


def format_paper_tables(results: Mapping[str, ExperimentResult]) -> str:
    """Every paper table ``results`` fill, in table order, each beside the
    published rows.

    ``results`` holds one run per database (D1, D2, D3), keyed by its name:
    the exact-representative methods fill its match (Tables 1/3/5) and
    error (2/4/6) tables, the
    :data:`~repro.evaluation.experiment.DEGRADED_METHODS`, when run, its
    one-byte (7-9) and estimated-max-weight (10-12) tables.  Published
    columns are printed for the methods the paper has.
    """
    sections = {}
    for database, result in results.items():
        k = int(database[1:])
        published = published_result(database)
        exact = [m for m in result.methods if m not in DEGRADED_METHODS]
        shared = [m for m in exact if m in published.metrics]
        for number, render in ((2 * k - 1, format_match_table),
                               (2 * k, format_error_table)):
            sections[number] = _with_reference(
                number,
                render(result, exact),
                render(published, shared) if shared else "",
            )
        for number, key in zip((6 + k, 9 + k), DEGRADED_METHODS):
            if key in result.metrics:
                sections[number] = _with_reference(
                    number,
                    format_combined_table(result, key),
                    format_combined_table(published, key)
                    if key in published.metrics
                    else "",
                )
    return "\n\n".join(sections[number] for number in sorted(sections))


def format_conclusions(results: Mapping[str, ExperimentResult]) -> str:
    """One ``holds`` / ``FAILS`` / ``not run`` line per paper conclusion,
    checked on ``results`` keyed by database."""
    lines = ["=== the paper's conclusions ==="]
    for conclusion in PAPER_CONCLUSIONS:
        lines.append(
            f"{conclusion.check(results):<7}  {conclusion.table:<7}  {conclusion}"
        )
    return "\n".join(lines)


def format_sizing_table(rows: Iterable[CollectionSizing]) -> str:
    """Section 3.2 layout: collection size, #terms, representative size, %."""
    headers = [
        "collection",
        "size(pages)",
        "#dist. terms",
        "rep. size",
        "%",
        "1-byte size",
        "1-byte %",
    ]
    grid = []
    for sizing in rows:
        grid.append(
            [
                sizing.name,
                f"{sizing.collection_pages:.0f}",
                str(sizing.n_distinct_terms),
                f"{sizing.representative_pages:.0f}",
                f"{sizing.percent:.2f}",
                f"{sizing.quantized_pages:.0f}",
                f"{sizing.quantized_percent:.2f}",
            ]
        )
    return _render_grid(headers, grid)
