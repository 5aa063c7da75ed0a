"""The paper's primary contribution: usefulness estimation.

* :mod:`repro.core.genfunc` — sparse real-exponent probability generating
  functions (Expression (3)/(5) of the paper).
* :mod:`repro.core.subrange_estimator` — the subrange-based method
  (Section 3.1), in quadruplet and triplet (estimated-max) modes.
* :mod:`repro.core.basic_estimator` — the uniform-weight basic method of
  Proposition 1.
* :mod:`repro.core.prev_estimator` — reconstruction of the authors'
  previous method (VLDB'98), the second baseline of the evaluation.
* :mod:`repro.core.gloss` — the gGlOSS high-correlation and disjoint
  estimators, the third baseline.
* :mod:`repro.core.vectorized` — the batched kernel production runs on.
* :mod:`repro.core.truth` — exact usefulness, the evaluation ground truth.
"""

from repro.core.base import (
    EstimateExplanation,
    ExpansionEstimator,
    TermContribution,
    UsefulnessEstimator,
    get_estimator,
)
from repro.core.basic_estimator import BasicEstimator
from repro.core.binary_estimator import BinaryIndependenceEstimator
from repro.core.genfunc import GenFunc
from repro.core.gloss import GlossDisjointEstimator, GlossHighCorrelationEstimator
from repro.core.prev_estimator import PreviousMethodEstimator
from repro.core.subrange_estimator import SubrangeEstimator
from repro.core.truth import true_usefulness, true_usefulness_many
from repro.core.types import Usefulness
from repro.core.vectorized import (
    fallback_count,
    fleet_usefulness_grid,
    fleet_usefulness_rows,
    reset_fallback_count,
)

__all__ = [
    "BasicEstimator",
    "BinaryIndependenceEstimator",
    "EstimateExplanation",
    "ExpansionEstimator",
    "TermContribution",
    "GenFunc",
    "GlossDisjointEstimator",
    "GlossHighCorrelationEstimator",
    "PreviousMethodEstimator",
    "SubrangeEstimator",
    "Usefulness",
    "UsefulnessEstimator",
    "fallback_count",
    "fleet_usefulness_grid",
    "fleet_usefulness_rows",
    "get_estimator",
    "reset_fallback_count",
    "true_usefulness",
    "true_usefulness_many",
]
