"""The binary-and-independent baseline (Yu, Luk & Siu, TODS 1978).

The paper's related work recalls the earliest estimator family: documents
as *binary* vectors with independent terms ([18]), later extended to
dependent terms ([14]), and dismisses it because "a substantial amount of
information will be lost when documents are represented by binary vectors."
This module implements the binary-independent case inside our framework so
that the information-loss claim is measurable.

Under the binary model the only per-term statistic is the occurrence
probability ``p``; the generating function is a product of
``p * X^u + (1 - p)`` factors, whose expansion gives the distribution of
the *number of weighted term matches*.  To place the resulting scores on
the similarity scale the evaluation thresholds live on, every present term
is assumed to contribute one database-global constant weight — the mean of
all terms' mean normalized weights — which is precisely the information a
binary representation cannot distinguish per term.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.base import ExpansionEstimator, register_estimator
from repro.representatives.representative import DatabaseRepresentative

__all__ = ["BinaryIndependenceEstimator"]


class BinaryIndependenceEstimator(ExpansionEstimator):
    """Occurrence-probability-only estimator over binary document vectors.

    Every present term contributes one per-database constant: the mean of
    the representative's per-term mean weights — the best single constant
    available to a binary model.
    """

    name = "binary-independence"
    label = "binary independent"
    #: The expansion context reduces over *every* term's mean weight, so a
    #: one-term delta can shift every cached factor — per-term cache
    #: invalidation is unsound and the broker evicts the whole engine.
    term_local = False

    def _polynomial_context(self, representative: DatabaseRepresentative):
        """The database-global constant weight, derived once per query."""
        means = [stats.mean for __, stats in representative.items()]
        return float(np.mean(means)) if means else 0.0

    def term_polynomial(
        self, u: float, stats, context
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``p * X^(u * context) + (1-p)`` — occurrence only, ``context``
        being the database-global constant weight."""
        p = stats.probability
        return np.array([u * context, 0.0]), np.array([p, 1.0 - p])


register_estimator("binary-independence", BinaryIndependenceEstimator)
