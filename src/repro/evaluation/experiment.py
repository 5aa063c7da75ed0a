"""The usefulness-estimation experiment runner.

One experiment = one database (engine + truth) x one query log x one
threshold grid x several estimation methods.  Each method pairs an estimator
with the representative it is allowed to see — that is how the paper's
quantized (Tables 7-9) and triplet (Tables 10-12) conditions are expressed:
same estimator, degraded representative.

Estimates come off the broker's batched kernel: one
:func:`~repro.core.vectorized.fleet_usefulness_rows` call per chunk of
queries, on a one-engine store holding the method's representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.base import UsefulnessEstimator
from repro.core.subrange_estimator import SubrangeEstimator
from repro.core.truth import true_usefulness_many
from repro.core.types import Usefulness
from repro.core.vectorized import fleet_usefulness_rows
from repro.corpus.query import Query
from repro.engine.search_engine import SearchEngine
from repro.evaluation.metrics import MethodAccumulator, ThresholdMetrics
from repro.representatives.columnar import FleetRepresentativeStore
from repro.representatives.quantized import quantize_representative

__all__ = [
    "DEGRADED_METHODS",
    "MethodSpec",
    "ExperimentResult",
    "degraded_methods",
    "run_usefulness_experiment",
]

#: The paper's threshold grid (Section 4: Cosine keeps similarities in
#: [0, 1], so no threshold above 1 — and nothing interesting below 0.1).
PAPER_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

#: A kernel call takes consecutive queries while their worst-case widths
#: (``8 ** terms``) fit: one 6-term query or eight 5-term ones at most.
_CHUNK_WIDTH = 8 ** 6


@dataclass
class MethodSpec:
    """One estimation method under evaluation.

    Attributes:
        key: Machine name (column key in results).
        estimator: The estimator instance.
        representative: The representative this method consults.
        label: Human-readable column header; defaults to the estimator's.
    """

    key: str
    estimator: UsefulnessEstimator
    representative: object
    label: str = ""

    def __post_init__(self):
        if not self.label:
            self.label = self.estimator.label


@dataclass
class ExperimentResult:
    """Outcome of one experiment: per-method, per-threshold metrics."""

    database: str
    n_documents: int
    n_queries: int
    thresholds: Sequence[float]
    methods: List[str] = field(default_factory=list)
    labels: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, List[ThresholdMetrics]] = field(default_factory=dict)

    def useful_counts(self) -> List[int]:
        """The U column — identical across methods, taken from the first."""
        first = self.metrics[self.methods[0]]
        return [row.useful_queries for row in first]


#: Method keys of the subrange method on the paper's two degraded
#: representatives: one byte per stored number (Tables 7-9) and the maximum
#: weight estimated instead of stored (Tables 10-12).
DEGRADED_METHODS = ("quantized", "triplet")


def degraded_methods(representative) -> List[MethodSpec]:
    """The subrange method on ``representative``'s two degraded forms,
    keyed as :data:`DEGRADED_METHODS`."""
    return [
        MethodSpec(
            "quantized",
            SubrangeEstimator(),
            quantize_representative(representative),
            label="subrange, 1-byte representative",
        ),
        MethodSpec(
            "triplet",
            SubrangeEstimator(use_stored_max=False),
            representative.as_triplets(),
            label="subrange, estimated max weight",
        ),
    ]


def _chunks(queries: Sequence[Query]):
    """Consecutive runs of queries within the :data:`_CHUNK_WIDTH` budget."""
    chunk, width = [], 0
    for query in queries:
        width += 8 ** len(query.terms)
        if chunk and width > _CHUNK_WIDTH:
            yield chunk
            chunk, width = [], 8 ** len(query.terms)
        chunk.append(query)
    yield chunk


def run_usefulness_experiment(
    engine: SearchEngine,
    queries: Sequence[Query],
    methods: Sequence[MethodSpec],
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
    progress: Optional[Callable[[int, int], None]] = None,
) -> ExperimentResult:
    """Run the full truth-vs-estimates sweep for one database.

    Args:
        engine: The database's search engine (source of ground truth).
        queries: The query log.
        methods: The estimation methods to compare.
        thresholds: Similarity thresholds (the paper's grid by default).
        progress: Optional callback ``(done, total)`` invoked every 500
            queries, for long interactive runs.

    Returns:
        An :class:`ExperimentResult` with one metrics row per method and
        threshold.
    """
    if not methods:
        raise ValueError("at least one method is required")
    keys = [m.key for m in methods]
    if len(set(keys)) != len(keys):
        raise ValueError("method keys must be unique")
    accumulators = {m.key: MethodAccumulator(thresholds) for m in methods}
    stores = {}  # one one-engine store per distinct representative
    for rep in {id(m.representative): m.representative for m in methods}.values():
        stores[id(rep)] = FleetRepresentativeStore()
        stores[id(rep)].add(rep)
    total = len(queries)
    done = 0
    for chunk in _chunks(queries):
        estimates = {
            m.key: fleet_usefulness_rows(
                m.estimator, stores[id(m.representative)], chunk, thresholds
            )
            for m in methods
        }
        for offset, query in enumerate(chunk):
            truths = true_usefulness_many(engine, query, thresholds)
            for key, (nodoc, avgsim) in estimates.items():
                cells = zip(nodoc[offset, :, 0].tolist(), avgsim[offset, :, 0].tolist())
                accumulators[key].add(
                    truths, [Usefulness(nodoc=nd, avgsim=av) for nd, av in cells]
                )
            done += 1
            if progress is not None and done % 500 == 0:
                progress(done, total)
    return ExperimentResult(
        database=engine.name,
        n_documents=engine.n_documents,
        n_queries=total,
        thresholds=tuple(thresholds),
        methods=keys,
        labels={m.key: m.label for m in methods},
        metrics={key: accumulators[key].metrics() for key in keys},
    )
