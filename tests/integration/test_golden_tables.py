"""Golden regression tests for the paper-table outputs.

The benchmark suite regenerates Tables 1-12 at full scale
(``benchmarks/results/*.txt``); that is far too slow for tier-1.  These
tests run the identical experiment pipeline — same estimators, same
renderers — on the small session-scoped corpus and compare the rendered
tables character-for-character against checked-in golden files.  Any
estimator change that silently shifts the paper-table numbers fails here
first.

Three paths are pinned to the same files: the batched kernel through
``run_usefulness_experiment`` (what the paper tables run on), the scalar
reference estimators looped per query (:func:`scalar_experiment`), and the
broker's batch pipeline.

To regenerate after an *intentional* estimator change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_tables.py
"""

import os
from pathlib import Path

import pytest

from repro.core import (
    SubrangeEstimator,
    fallback_count,
    get_estimator,
    reset_fallback_count,
)
from repro.core.truth import true_usefulness_many
from repro.engine import SearchEngine
from repro.evaluation import (
    ExperimentResult,
    MethodSpec,
    evaluate_selection,
    format_combined_table,
    format_error_table,
    format_match_table,
    run_usefulness_experiment,
)
from repro.evaluation.metrics import MethodAccumulator
from repro.metasearch import MetasearchBroker
from repro.representatives import quantize_representative
from tests.oracle import ScalarOracle

GOLDEN_DIR = Path(__file__).parent / "golden"
THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def check_golden(name: str, rendered: str) -> None:
    path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered + "\n", encoding="utf-8")
    assert path.exists(), (
        f"golden file {path} missing; run with REPRO_REGEN_GOLDEN=1 to create it"
    )
    assert rendered + "\n" == path.read_text(encoding="utf-8"), (
        f"{name} drifted from its golden snapshot; if the change is "
        f"intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


def scalar_experiment(engine, queries, methods, thresholds):
    """``run_usefulness_experiment`` answered per query by each method's
    own ``estimate_many`` — the scalar reference, or an adapter such as
    :class:`_BatchPipelineEstimator` — instead of the batched kernel."""
    accumulators = {m.key: MethodAccumulator(thresholds) for m in methods}
    for query in queries:
        truths = true_usefulness_many(engine, query, thresholds)
        for method in methods:
            estimates = method.estimator.estimate_many(
                query, method.representative, thresholds
            )
            accumulators[method.key].add(truths, estimates)
    return ExperimentResult(
        database=engine.name,
        n_documents=engine.n_documents,
        n_queries=len(queries),
        thresholds=tuple(thresholds),
        methods=[m.key for m in methods],
        labels={m.key: m.label for m in methods},
        metrics={m.key: accumulators[m.key].metrics() for m in methods},
    )


def paper_methods(small_representative):
    """The Tables 1-12 method sweep at small scale."""
    return [
        MethodSpec("gloss-hc", get_estimator("gloss-hc"), small_representative),
        MethodSpec("prev", get_estimator("prev"), small_representative),
        MethodSpec("subrange", get_estimator("subrange"), small_representative),
        MethodSpec(
            "subrange-1byte",
            get_estimator("subrange"),
            quantize_representative(small_representative),
            label="Sub 1-byte",
        ),
        MethodSpec(
            "subrange-triplet",
            SubrangeEstimator(use_stored_max=False),
            small_representative,
            label="Sub triplet",
        ),
    ]


@pytest.fixture(scope="module")
def experiment(small_engine, small_representative, small_queries):
    """One sweep mirroring the conditions of Tables 1-12 at small scale,
    on the batched kernel, with zero scalar demotions along the way."""
    reset_fallback_count()
    result = run_usefulness_experiment(
        small_engine, small_queries, paper_methods(small_representative),
        thresholds=THRESHOLDS,
    )
    assert fallback_count() == 0
    return result


class TestEstimatorTables:
    def test_match_table(self, experiment):
        """Counterpart of Tables 1/3/5: match/mismatch per method."""
        rendered = format_match_table(
            experiment, methods=["gloss-hc", "prev", "subrange"]
        )
        check_golden("match_table", rendered)

    def test_error_table(self, experiment):
        """Counterpart of Tables 2/4/6: d-N / d-S per method."""
        rendered = format_error_table(
            experiment, methods=["gloss-hc", "prev", "subrange"]
        )
        check_golden("error_table", rendered)

    def test_quantized_table(self, experiment):
        """Counterpart of Tables 7-9: subrange on the 1-byte representative."""
        check_golden(
            "quantized_table", format_combined_table(experiment, "subrange-1byte")
        )

    def test_triplet_table(self, experiment):
        """Counterpart of Tables 10-12: subrange without stored max weight."""
        check_golden(
            "triplet_table", format_combined_table(experiment, "subrange-triplet")
        )


class _BatchPipelineEstimator:
    """Adapter running every ``estimate_many`` through a single-engine
    backend's ``estimate_batch`` (one query duplicated across the
    threshold grid), so the paper-table experiment exercises the batch
    pipeline end to end."""

    def __init__(self, broker):
        self.broker = broker
        self.name = broker.estimator.name
        self.label = broker.estimator.label

    def estimate_many(self, query, representative, thresholds):
        thresholds = list(thresholds)
        rows = self.broker.estimate_batch([query] * len(thresholds), thresholds)
        return [row[0].usefulness for row in rows]


def _batch_pipeline_methods(make_backend, small_engine, small_representative):
    """The Tables 1-12 method sweep, each method answered by
    ``make_backend(estimator)``'s ``estimate_batch``."""
    methods = []
    for method in paper_methods(small_representative):
        backend = make_backend(method.estimator)
        backend.register(small_engine, representative=method.representative)
        methods.append(
            MethodSpec(
                method.key,
                _BatchPipelineEstimator(backend),
                method.representative,
                label=method.label,
            )
        )
    return methods


class TestScalarReferenceTables:
    """Tables 1-12 from the scalar reference estimators' own
    ``estimate_many``, pinned to the *same* golden files as the kernel."""

    @pytest.fixture(scope="class")
    def scalar(self, small_engine, small_representative, small_queries):
        return scalar_experiment(
            small_engine, small_queries, paper_methods(small_representative),
            THRESHOLDS,
        )

    def test_match_table_via_scalar(self, scalar):
        rendered = format_match_table(
            scalar, methods=["gloss-hc", "prev", "subrange"]
        )
        check_golden("match_table", rendered)

    def test_error_table_via_scalar(self, scalar):
        rendered = format_error_table(
            scalar, methods=["gloss-hc", "prev", "subrange"]
        )
        check_golden("error_table", rendered)

    def test_quantized_table_via_scalar(self, scalar):
        check_golden("quantized_table", format_combined_table(scalar, "subrange-1byte"))

    def test_triplet_table_via_scalar(self, scalar):
        check_golden("triplet_table", format_combined_table(scalar, "subrange-triplet"))


class TestBatchPipelineTables:
    """Tables 1-12 computed through the scalar oracle's ``estimate_batch``
    and pinned to the *same* golden files as the serial experiment — the
    reference every differential suite compares the broker against is
    itself held to the paper tables."""

    @pytest.fixture(scope="class")
    def batch_experiment(self, small_engine, small_representative, small_queries):
        methods = _batch_pipeline_methods(
            ScalarOracle, small_engine, small_representative
        )
        return scalar_experiment(
            small_engine, small_queries, methods, THRESHOLDS
        )

    def test_match_table_via_batch(self, batch_experiment):
        rendered = format_match_table(
            batch_experiment, methods=["gloss-hc", "prev", "subrange"]
        )
        check_golden("match_table", rendered)

    def test_error_table_via_batch(self, batch_experiment):
        rendered = format_error_table(
            batch_experiment, methods=["gloss-hc", "prev", "subrange"]
        )
        check_golden("error_table", rendered)

    def test_quantized_table_via_batch(self, batch_experiment):
        check_golden(
            "quantized_table",
            format_combined_table(batch_experiment, "subrange-1byte"),
        )

    def test_triplet_table_via_batch(self, batch_experiment):
        check_golden(
            "triplet_table",
            format_combined_table(batch_experiment, "subrange-triplet"),
        )


class TestColumnarGridTables:
    """Tables 1-12 computed through the broker — the columnar fleet store,
    both caches on, the vectorized subrange grid with the batched
    ``BatchedGenFunc`` product — and pinned to the *same* golden files as
    the serial experiment.  The paper-table numbers must survive the
    production path bit-for-bit, with zero scalar-fallback demotions along
    the way."""

    @pytest.fixture(scope="class")
    def columnar_experiment(
        self, small_engine, small_representative, small_queries
    ):
        methods = _batch_pipeline_methods(
            lambda estimator: MetasearchBroker(estimator=estimator),
            small_engine,
            small_representative,
        )
        reset_fallback_count()
        experiment = scalar_experiment(
            small_engine, small_queries, methods, THRESHOLDS
        )
        assert fallback_count() == 0, (
            "the golden-table sweep demoted rows to the scalar path; "
            "every configuration must run through the batched kernel"
        )
        return experiment

    def test_match_table_via_columnar_grid(self, columnar_experiment):
        rendered = format_match_table(
            columnar_experiment, methods=["gloss-hc", "prev", "subrange"]
        )
        check_golden("match_table", rendered)

    def test_error_table_via_columnar_grid(self, columnar_experiment):
        rendered = format_error_table(
            columnar_experiment, methods=["gloss-hc", "prev", "subrange"]
        )
        check_golden("error_table", rendered)

    def test_quantized_table_via_columnar_grid(self, columnar_experiment):
        check_golden(
            "quantized_table",
            format_combined_table(columnar_experiment, "subrange-1byte"),
        )

    def test_triplet_table_via_columnar_grid(self, columnar_experiment):
        check_golden(
            "triplet_table",
            format_combined_table(columnar_experiment, "subrange-triplet"),
        )


class TestFleetSelectionTable:
    """Counterpart of the full-fleet bench table at tier-1 scale."""

    @pytest.fixture(scope="class")
    def fleet_broker(self, small_model):
        broker = MetasearchBroker()
        for group in range(6):
            broker.register(SearchEngine(small_model.generate_group(group)))
        return broker

    def test_selection_quality_table(self, fleet_broker, small_queries):
        queries = small_queries[:60]
        lines = [
            f"fleet selection: {len(fleet_broker)} engines, {len(queries)} queries",
            f"{'T':>4} {'exact':>7} {'recall':>8} {'precision':>10}",
        ]
        for threshold in (0.2, 0.3, 0.4):
            quality = evaluate_selection(fleet_broker, queries, threshold)
            lines.append(
                f"{threshold:>4.1f} {quality.exact_rate:>7.1%} "
                f"{quality.recall:>8.1%} {quality.precision:>10.1%}"
            )
        check_golden("fleet_selection", "\n".join(lines))
