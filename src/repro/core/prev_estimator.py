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

__all__ = ["PreviousMethodEstimator"]


class PreviousMethodEstimator(UsefulnessEstimator):
    """Threshold-adjusted basic method (VLDB'98 reconstruction).

    The whole apportioned cutoff is applied (the full reconstruction).
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
        matched = []
        for term, u in query.normalized_items():
            stats = representative.get(term)
            if stats is not None and stats.probability > 0.0:
                matched.append((u, stats))
        if not matched:
            return []
        contributions = np.array([u * s.mean for u, s in matched])
        total = contributions.sum()
        pairs = []
        for (u, stats), contribution in zip(matched, contributions):
            if total > 0.0 and threshold > 0.0:
                share = contribution / total
                cutoff = threshold * share / u
            else:
                cutoff = 0.0
            if cutoff <= 0.0:
                # No part of the threshold falls on this term: the method
                # degenerates to the basic (p, w) pair, by design.
                adjusted_p = stats.probability
                adjusted_w = stats.mean
            else:
                tail = truncated_normal_tail_mass(cutoff, stats.mean, stats.std)
                adjusted_p = stats.probability * tail
                if tail > 0.0:
                    adjusted_w = truncated_normal_mean_above(
                        cutoff, stats.mean, stats.std
                    )
                else:
                    adjusted_w = 0.0
            pairs.append((u, adjusted_p, adjusted_w))
        return pairs

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

    def estimate_many(
        self,
        query: Query,
        representative: DatabaseRepresentative,
        thresholds: Sequence[float],
    ) -> List[Usefulness]:
        """Per-threshold expansion — this method is threshold-dependent by
        construction, unlike the expansion estimators."""
        return [self.estimate(query, representative, t) for t in thresholds]


register_estimator("prev", PreviousMethodEstimator)
