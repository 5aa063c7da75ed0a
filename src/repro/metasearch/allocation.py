"""Document-count-driven engine selection and retrieval allocation.

The paper criticizes rank-only selection methods because "a separate method
has to be used to convert these measures to the number of documents to
retrieve from each search engine."  The usefulness measure needs no such
second method: because expansion estimators answer *every* threshold from
one generating function, we can invert the relationship — given a desired
total number of documents ``k``, find the similarity threshold at which the
fleet is expected to hold ``k`` documents, and read each engine's expected
share straight off its expansion.

:func:`threshold_for_k` performs the inversion (NoDoc estimates are
monotone non-increasing in the threshold, so bisection applies) and
:func:`allocate_documents` turns the per-engine expectations into integer
retrieval quotas via largest-remainder rounding; :func:`plan_allocation`
returns both.  Each expands the fleet once, on the batched kernel
(:func:`~repro.core.vectorized.fleet_tails`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.base import ExpansionEstimator
from repro.core.subrange_estimator import SubrangeEstimator
from repro.core.vectorized import fleet_tails
from repro.corpus.query import Query
from repro.representatives.columnar import FleetRepresentativeStore
from repro.representatives.representative import DatabaseRepresentative

__all__ = [
    "allocate_documents",
    "expected_nodoc_at",
    "plan_allocation",
    "threshold_for_k",
]


def _nodoc_reader(
    query: Query,
    representatives: Dict[str, object],
    estimator: Optional[ExpansionEstimator],
) -> Callable[[float], List[float]]:
    """Expand every engine once; read each one's NoDoc at a threshold."""
    store = FleetRepresentativeStore()
    for name, rep in representatives.items():
        if rep.name != name:
            rep = DatabaseRepresentative(name, rep.n_documents, dict(rep.items()))
        store.add(rep)
    tails = fleet_tails(estimator or SubrangeEstimator(), store, query)
    n = store.n_documents
    return lambda threshold: (n * tails([threshold])[0][0]).tolist()


def _bisect(
    nodoc_at: Callable[[float], List[float]], k: int, tolerance: float
) -> float:
    """The largest threshold whose fleet total NoDoc is at least ``k``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    lo, hi = 0.0, 1.0
    # Extend the upper bracket if similarities can exceed 1 (e.g. pivoted
    # normalization or unnormalized weights).
    while sum(nodoc_at(hi)) >= k and hi < 1e6:
        lo = hi
        hi *= 2.0
    if sum(nodoc_at(0.0)) < k:
        return 0.0
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if sum(nodoc_at(mid)) >= k:
            lo = mid
        else:
            hi = mid
    return lo


def expected_nodoc_at(
    query: Query,
    representatives: Dict[str, object],
    threshold: float,
    estimator: Optional[ExpansionEstimator] = None,
) -> Dict[str, float]:
    """Per-engine expected NoDoc at one threshold."""
    nodoc = _nodoc_reader(query, representatives, estimator)(threshold)
    return dict(zip(representatives, nodoc))


def threshold_for_k(
    query: Query,
    representatives: Dict[str, object],
    k: int,
    estimator: Optional[ExpansionEstimator] = None,
    tolerance: float = 1e-6,
) -> float:
    """The similarity threshold at which ~``k`` documents are expected.

    Returns the largest threshold whose total expected NoDoc across the
    fleet is at least ``k`` (0.0 when even the full range cannot supply
    ``k``).  Bisection is exact here because every engine's NoDoc estimate
    is a non-increasing step function of the threshold.
    """
    nodoc_at = _nodoc_reader(query, representatives, estimator)
    return _bisect(nodoc_at, k, tolerance)


def plan_allocation(
    query: Query,
    representatives: Dict[str, object],
    k: int,
    estimator: Optional[ExpansionEstimator] = None,
) -> Tuple[float, Dict[str, int]]:
    """``(threshold_for_k, allocate_documents)`` from one expansion.

    Engines receive quotas proportional to their expected NoDoc at the
    ``k``-threshold, rounded by largest remainder so the total is exactly
    ``k`` whenever the fleet is expected to supply it (when it is not, the
    expectation-weighted allocation of everything available is returned).
    """
    nodoc_at = _nodoc_reader(query, representatives, estimator)
    threshold = _bisect(nodoc_at, k, 1e-6)
    expected = dict(zip(representatives, nodoc_at(threshold)))
    total = sum(expected.values())
    if total <= 0.0:
        return threshold, {name: 0 for name in representatives}
    scale = min(k / total, 1.0)
    shares: List[Tuple[str, float]] = [
        (name, value * scale) for name, value in expected.items()
    ]
    quotas = {name: int(share) for name, share in shares}
    assigned = sum(quotas.values())
    want = min(k, int(round(total)))
    remainders = sorted(
        shares, key=lambda item: (item[1] - int(item[1]), item[0]), reverse=True
    )
    for name, __ in remainders:
        if assigned >= want:
            break
        quotas[name] += 1
        assigned += 1
    return threshold, quotas


def allocate_documents(
    query: Query,
    representatives: Dict[str, object],
    k: int,
    estimator: Optional[ExpansionEstimator] = None,
) -> Dict[str, int]:
    """Integer per-engine quotas summing to ``k`` (:func:`plan_allocation`)."""
    return plan_allocation(query, representatives, k, estimator)[1]
