"""Estimator interfaces and the estimator registry.

Two families of estimators exist in the paper:

* *Expansion estimators* (basic, subrange) build a threshold-independent
  generating function per (query, database) and answer every threshold from
  the same expansion — the paper's "little additional effort" observation.
  They subclass :class:`ExpansionEstimator` and implement
  :meth:`ExpansionEstimator.polynomials`.
* *Direct estimators* (gGlOSS variants, the previous method) compute each
  threshold independently and subclass :class:`UsefulnessEstimator` directly.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.genfunc import GenFunc
from repro.core.types import Usefulness
from repro.corpus.query import Query
from repro.obs.registry import LATENCY_BUCKETS, NULL_REGISTRY, SIZE_BUCKETS
from repro.representatives.representative import DatabaseRepresentative

__all__ = [
    "EstimateExplanation",
    "ExpansionEstimator",
    "TermContribution",
    "UsefulnessEstimator",
    "get_estimator",
    "register_estimator",
]


@dataclass(frozen=True)
class TermContribution:
    """How one query term entered the generating function.

    Attributes:
        term: The term string.
        query_weight: Its normalized query weight ``u``.
        matched: Whether the representative knows the term.
        polynomial_size: Number of (exponent, coeff) points contributed.
        max_exponent: The largest similarity contribution the term can
            make (``u * mw`` for the subrange method).
        occurrence_probability: The representative's ``p`` (0 if unmatched).
    """

    term: str
    query_weight: float
    matched: bool
    polynomial_size: int
    max_exponent: float
    occurrence_probability: float


@dataclass(frozen=True)
class EstimateExplanation:
    """A debuggable account of one expansion-based estimate.

    Attributes:
        estimate: The (NoDoc, AvgSim) answer.
        threshold: The threshold it answers.
        terms: Per-query-term contributions, in query order.
        expansion_terms: Size of the expanded generating function.
        tail_mass: Probability mass above the threshold.
    """

    estimate: Usefulness
    threshold: float
    terms: List[TermContribution]
    expansion_terms: int
    tail_mass: float


class UsefulnessEstimator(ABC):
    """Estimates (NoDoc, AvgSim) from a database representative."""

    #: Short machine name used by the registry, CLI and benchmark tables.
    name: str = "abstract"
    #: Human-readable label used in rendered tables.
    label: str = "abstract"
    #: Metrics sink; the shared no-op registry until :meth:`instrument`.
    registry = NULL_REGISTRY
    #: True when an estimate depends only on the query terms' own
    #: statistics plus the document count.  The broker's precise cache
    #: invalidation (per-term eviction on a representative delta) is sound
    #: only for term-local estimators; the conservative default keeps the
    #: degraded whole-engine eviction for anything that reduces over the
    #: full representative (e.g. the binary baseline's database weight).
    term_local: bool = False

    def instrument(self, registry) -> "UsefulnessEstimator":
        """Route this estimator's metrics to ``registry``; returns self.

        The base estimators record nothing; :class:`ExpansionEstimator`
        reports expansion time and generating-function term counts.
        """
        self.registry = registry if registry is not None else NULL_REGISTRY
        return self

    @abstractmethod
    def estimate(
        self,
        query: Query,
        representative: DatabaseRepresentative,
        threshold: float,
    ) -> Usefulness:
        """Estimated usefulness of the database for ``query`` at ``threshold``."""

    def estimate_many(
        self,
        query: Query,
        representative: DatabaseRepresentative,
        thresholds: Sequence[float],
    ) -> List[Usefulness]:
        """Estimates for several thresholds; subclasses override when they
        can share work across thresholds."""
        return [self.estimate(query, representative, t) for t in thresholds]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ExpansionEstimator(UsefulnessEstimator):
    """Estimator whose answers come from one generating-function expansion.

    Subclasses implement :meth:`term_polynomial` — a pure function of one
    query term's ``(weight, stats, context)`` — and the base class builds
    the per-query factor list and expands it with the scalar
    :class:`~repro.core.genfunc.GenFunc`.  That scalar path is the paper's
    reference algorithm: production answers come off the batched kernel
    (:mod:`repro.core.vectorized`), which equals it bit for bit.

    The expansion is exact up to the rounding of
    :data:`~repro.core.genfunc.DECIMALS`.
    """

    #: The default expansion context is the document count alone, so each
    #: term's factor depends only on that term's statistics — per-term
    #: cache invalidation is sound.  Subclasses whose context reduces over
    #: the whole representative must reset this to False.
    term_local: bool = True

    @abstractmethod
    def term_polynomial(
        self, u: float, stats, context
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(exponents, coeffs)`` factor of one matched query term.

        Args:
            u: The term's normalized query weight.
            stats: The representative's statistics for the term (never
                None, and ``probability > 0``).
            context: Whatever :meth:`_polynomial_context` returned for the
                representative — per-database constants shared by every
                term of a query (the document count, by default).
        """

    def _polynomial_context(self, representative: DatabaseRepresentative):
        """Per-database constants handed to every :meth:`term_polynomial`
        call of a query; computed once per factor-list build."""
        return representative.n_documents

    def polynomials(
        self, query: Query, representative: DatabaseRepresentative
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-query-term ``(exponents, coeffs)`` polynomials (Expr. (3)).

        Terms unknown to the representative contribute nothing and are
        omitted; the returned list follows query-term order (the contract
        :meth:`explain` relies on to attribute polynomials back to terms).
        """
        context = self._polynomial_context(representative)
        polys: List[Tuple[np.ndarray, np.ndarray]] = []
        for term, u in query.normalized_items():
            stats = representative.get(term)
            if stats is None or stats.probability <= 0.0:
                continue
            polys.append(self.term_polynomial(u, stats, context))
        return polys

    def expand(
        self, query: Query, representative: DatabaseRepresentative
    ) -> GenFunc:
        """Expand the full generating function for (query, database).

        Each expansion reports its duration and final term count to the
        estimator's metrics registry (no-op unless
        :meth:`~UsefulnessEstimator.instrument`-ed).
        """
        start = time.perf_counter()
        expansion = GenFunc.product(self.polynomials(query, representative))
        registry = self.registry
        registry.counter("estimator.expansions").inc()
        registry.histogram(
            "estimator.expansion.seconds", buckets=LATENCY_BUCKETS
        ).observe(time.perf_counter() - start)
        registry.histogram(
            "estimator.genfunc.terms", buckets=SIZE_BUCKETS
        ).observe(expansion.n_terms)
        return expansion

    def estimate(
        self,
        query: Query,
        representative: DatabaseRepresentative,
        threshold: float,
    ) -> Usefulness:
        expansion = self.expand(query, representative)
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
        """One expansion answers every threshold.

        All tails are read from the expansion's single cumulative-sum pass
        (:meth:`GenFunc.tail_profile`) instead of re-running a
        ``searchsorted`` + slice sum per threshold; the values are
        bit-identical to per-threshold :meth:`estimate` calls.
        """
        expansion = self.expand(query, representative)
        n = representative.n_documents
        mass, moment = expansion.tail_profile(thresholds)
        return [
            Usefulness(nodoc=n * m, avgsim=(mo / m if m > 0.0 else 0.0))
            for m, mo in zip(mass.tolist(), moment.tolist())
        ]

    def explain(
        self,
        query: Query,
        representative: DatabaseRepresentative,
        threshold: float,
    ) -> EstimateExplanation:
        """A per-term, inspectable account of one estimate.

        Useful when an engine is selected (or skipped) unexpectedly: the
        explanation shows which terms the representative matched, each
        term's maximum possible contribution, the expansion size, and where
        the probability mass sits relative to the threshold.
        """
        polys = self.polynomials(query, representative)
        poly_iter = iter(polys)
        contributions = []
        for term, u in query.normalized_items():
            stats = representative.get(term)
            matched = stats is not None and stats.probability > 0.0
            if matched:
                exponents, __ = next(poly_iter)
                contributions.append(
                    TermContribution(
                        term=term,
                        query_weight=u,
                        matched=True,
                        polynomial_size=int(len(exponents)),
                        max_exponent=float(np.max(exponents)),
                        occurrence_probability=stats.probability,
                    )
                )
            else:
                contributions.append(
                    TermContribution(
                        term=term,
                        query_weight=u,
                        matched=False,
                        polynomial_size=0,
                        max_exponent=0.0,
                        occurrence_probability=0.0,
                    )
                )
        expansion = GenFunc.product(polys)
        estimate = Usefulness(
            nodoc=expansion.est_nodoc(threshold, representative.n_documents),
            avgsim=expansion.est_avgsim(threshold),
        )
        return EstimateExplanation(
            estimate=estimate,
            threshold=threshold,
            terms=contributions,
            expansion_terms=expansion.n_terms,
            tail_mass=expansion.tail_mass(threshold),
        )


_REGISTRY: Dict[str, Callable[[], UsefulnessEstimator]] = {}


def register_estimator(name: str, factory: Callable[[], UsefulnessEstimator]) -> None:
    """Register an estimator factory under a short name."""
    if name in _REGISTRY:
        raise ValueError(f"estimator {name!r} already registered")
    _REGISTRY[name] = factory


def get_estimator(name: str) -> UsefulnessEstimator:
    """Instantiate a registered estimator ('subrange', 'basic', 'prev',
    'gloss-hc', 'gloss-disjoint', 'subrange-triplet', ...)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown estimator {name!r}; known: {known}")
    return factory()
