"""Reconstruction of the authors' previous method (Meng et al., VLDB 1998).

The paper describes its second baseline only in outline: "similar to the
basic method … except that it also utilizes the standard deviation of the
weights of each term … to dynamically adjust the average weight and
probability of each query term according to the threshold used for the
query."  The full VLDB'98 algorithm is not restated, so this module
implements a faithful-in-spirit reconstruction (documented in DESIGN.md §3):

1. The threshold ``T`` is apportioned to the query terms in proportion to
   their expected similarity contribution ``u_i * w_i``, giving a per-term
   weight cutoff ``lambda_i / u_i``.
2. Under the normal assumption ``N(w_i, sigma_i^2)``, the term's probability
   shrinks to the mass above the cutoff and its weight rises to the
   conditional mean above the cutoff — the threshold-dependent adjustment.
3. The basic generating function is expanded with the adjusted pairs.

The reconstruction reproduces the qualitative behaviour the paper reports
for this baseline: materially better than the high-correlation estimator,
materially worse than the subrange method.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.base import UsefulnessEstimator, register_estimator
from repro.core.genfunc import GenFunc
from repro.core.types import Usefulness
from repro.corpus.query import Query
from repro.representatives.representative import DatabaseRepresentative
from repro.stats.normal import (
    truncated_normal_mean_above,
    truncated_normal_tail_mass,
)

__all__ = ["PreviousMethodEstimator", "adjust_terms"]


def adjust_terms(
    terms: Sequence[Tuple[float, float, float, float]],
    thresholds: Sequence[float],
) -> List[List[Tuple[float, float]]]:
    """Steps 1-2 for one (query, database): per threshold, per term,
    ``(adjusted_p, adjusted_w)`` from the ``(u, p, mean, std)`` of every
    matching query term (``p > 0``, query order).  The same scalar
    arithmetic serves the scalar estimator and the batched kernel."""
    if not terms:
        return [[] for __ in thresholds]
    contributions = np.array([u * mean for u, __, mean, __ in terms])
    total = contributions.sum()
    adjusted = []
    for threshold in thresholds:
        pairs = []
        for (u, p, mean, std), contribution in zip(terms, contributions):
            if total > 0.0 and threshold > 0.0:
                share = contribution / total
                cutoff = threshold * share / u
            else:
                cutoff = 0.0
            if cutoff <= 0.0:
                # No part of the threshold falls on this term: the method
                # degenerates to the basic (p, w) pair, by design.
                pairs.append((p, mean))
                continue
            tail = truncated_normal_tail_mass(cutoff, mean, std)
            if tail > 0.0:
                adjusted_w = truncated_normal_mean_above(cutoff, mean, std)
            else:
                adjusted_w = 0.0
            pairs.append((p * tail, adjusted_w))
        adjusted.append(pairs)
    return adjusted


class PreviousMethodEstimator(UsefulnessEstimator):
    """Threshold-adjusted basic method (VLDB'98 reconstruction).

    The whole apportioned cutoff is applied (the full reconstruction).
    :meth:`estimate` is the scalar reference the batched kernel equals.
    """

    name = "prev"
    label = "our prev method"

    def adjusted_pairs(
        self,
        query: Query,
        representative: DatabaseRepresentative,
        threshold: float,
    ) -> List[Tuple[float, float, float]]:
        """Per matching term: ``(u, adjusted_p, adjusted_w)``."""
        terms = []
        for term, u in query.normalized_items():
            stats = representative.get(term)
            if stats is not None and stats.probability > 0.0:
                terms.append((u, stats.probability, stats.mean, stats.std))
        (pairs,) = adjust_terms(terms, [threshold])
        return [(u, p, w) for (u, *__), (p, w) in zip(terms, pairs)]

    def estimate(
        self,
        query: Query,
        representative: DatabaseRepresentative,
        threshold: float,
    ) -> Usefulness:
        polynomials = []
        for u, p, w in self.adjusted_pairs(query, representative, threshold):
            if p <= 0.0:
                continue
            polynomials.append(
                (np.array([u * w, 0.0]), np.array([p, 1.0 - p]))
            )
        expansion = GenFunc.product(polynomials)
        return Usefulness(
            nodoc=expansion.est_nodoc(threshold, representative.n_documents),
            avgsim=expansion.est_avgsim(threshold),
        )


register_estimator("prev", PreviousMethodEstimator)
