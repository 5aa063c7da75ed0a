"""Evaluation harness reproducing Section 4 of the paper.

:mod:`repro.evaluation.experiment` runs (query, threshold) sweeps comparing
estimated usefulness against exact usefulness; :mod:`repro.evaluation.metrics`
defines the paper's three criteria (match/mismatch, d-N, d-S);
:mod:`repro.evaluation.tables` renders results in the layout of the paper's
tables, beside the published values and conclusions of
:mod:`repro.evaluation.paper_reference`; :mod:`repro.evaluation.selection` scores metasearch engine-selection
quality against the exhaustive oracle; :mod:`repro.evaluation.harness` is
the golden-query evaluation harness — stratified committed query sets,
rank-aware scoring (MRR/NDCG/Kendall tau) of any broker backend against
the exact oracle, structural tripwires, and floor-gated reports.
"""

from repro.evaluation.experiment import (
    ExperimentResult,
    MethodSpec,
    degraded_methods,
    run_usefulness_experiment,
)
from repro.evaluation.metrics import MethodAccumulator, ThresholdMetrics
from repro.evaluation.selection import (
    SelectionQuality,
    evaluate_selection,
    selection_quality_from_sets,
)
from repro.evaluation.tables import (
    format_combined_table,
    format_conclusions,
    format_error_table,
    format_match_table,
    format_paper_tables,
    format_sizing_table,
)

__all__ = [
    "ExperimentResult",
    "MethodAccumulator",
    "MethodSpec",
    "SelectionQuality",
    "ThresholdMetrics",
    "degraded_methods",
    "evaluate_selection",
    "format_combined_table",
    "format_conclusions",
    "format_error_table",
    "format_match_table",
    "format_paper_tables",
    "format_sizing_table",
    "run_usefulness_experiment",
    "selection_quality_from_sets",
]
