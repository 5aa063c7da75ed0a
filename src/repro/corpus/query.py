"""Query model.

A query is "simply a set of words submitted by a user ... transformed into a
vector of terms with weights" (paper, Section 1).  :class:`Query` stores the
distinct terms with raw (term-frequency) weights; the Cosine convention
normalizes the weight vector to unit length before matching, which
:meth:`Query.normalized_weights` provides.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.text.pipeline import TextPipeline

__all__ = ["MAX_QUERY_TERMS", "Query", "check_query_length"]

_MIN_NORMAL = sys.float_info.min

#: The most terms a query may have where it enters the service: the wire
#: decoder (every HTTP route that takes a query) and the ``estimate`` /
#: ``allocate`` commands.  A subrange expansion grows about ``7**Q`` terms,
#: so one long query can exhaust a process (EXPERIMENTS.md, "Scaling —
#: query length, and the cap").  Six is the paper's query regime (its
#: profiles have at most 6 terms) and the query model's longest length.
MAX_QUERY_TERMS = 6


@dataclass(frozen=True)
class Query:
    """An immutable weighted query.

    Attributes:
        terms: Distinct term strings, in first-occurrence order.
        weights: Raw weights, parallel to ``terms`` (term frequency when
            built from text).
    """

    terms: Tuple[str, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        if len(self.terms) != len(self.weights):
            raise ValueError("terms and weights must have equal length")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("query terms must be distinct")
        if not all(0 < w < math.inf for w in self.weights):  # NaN fails both
            raise ValueError("query weights must be positive and finite")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_terms(cls, tokens: Iterable[str]) -> "Query":
        """Build from a token stream; repeats accumulate term frequency."""
        counts: Dict[str, float] = {}
        order: List[str] = []
        for token in tokens:
            if token not in counts:
                order.append(token)
                counts[token] = 0.0
            counts[token] += 1.0
        return cls(terms=tuple(order), weights=tuple(counts[t] for t in order))

    @classmethod
    def from_text(cls, text: str, pipeline: Optional[TextPipeline] = None) -> "Query":
        """Build from raw text through a text pipeline (default pipeline if
        omitted).  An all-stopword query yields an empty query."""
        pipeline = pipeline or TextPipeline()
        return cls.from_terms(pipeline.terms(text))

    # -- accessors -------------------------------------------------------------

    @property
    def n_terms(self) -> int:
        """Number of distinct query terms (r in the paper's notation)."""
        return len(self.terms)

    @property
    def is_single_term(self) -> bool:
        """True for the single-term queries of the paper's guarantee."""
        return len(self.terms) == 1

    def norm(self) -> float:
        """Euclidean norm of the raw weight vector (``inf`` past the
        double range)."""
        root, exponent = self._norm_parts()
        try:
            return math.ldexp(root, exponent)
        except OverflowError:
            return math.inf

    def _norm_parts(self) -> Tuple[float, int]:
        """``(root, exponent)`` with the norm equal to ``root * 2**exponent``.

        The plain sum of squares overflows for weights above ~1.3e154 and
        loses precision to underflow below ~1.5e-154.  Only when a square
        is not a normal float, or the sum overflows, are the weights first
        scaled by an exact power of two (``exponent``), so every norm the
        plain sum gets right is returned unchanged.
        """
        squares = [w * w for w in self.weights]
        total = sum(squares)
        if not squares or (_MIN_NORMAL <= min(squares) and total < math.inf):
            return math.sqrt(total), 0
        exponent = max(math.frexp(w)[1] for w in self.weights)
        scaled = [math.ldexp(w, -exponent) for w in self.weights]
        return math.sqrt(sum(w * w for w in scaled)), exponent

    def normalized_weights(self) -> np.ndarray:
        """Unit-norm weights — the ``u_i`` of the Cosine similarity.

        Scale-invariant: exactly proportional weight vectors — ``(1, 1)``,
        ``(3, 3)`` and ``(0.5, 0.5)`` alike — give bit-identical results.
        The weights are first divided by the largest one; each ratio is a
        correctly rounded quotient of the same real number, so the common
        factor cancels exactly, and the ratios (at most 1, the largest
        exactly 1) are then scaled to unit norm without overflow.  Dividing
        by the norm directly rounds differently per factor (``1/sqrt(2)``
        and ``3/sqrt(18)`` differ in the last bit), and the estimate cache,
        which keys proportional queries together, would then answer one
        with the other's estimate.

        Computed once per query; every call answers a fresh copy.
        """
        return self._unit().copy()

    def _unit(self) -> np.ndarray:
        """The unit-norm weights, memoized on the instance: the caller
        must not mutate them.  The memo is left out of the pickled state,
        and equality and hashing read only the fields."""
        unit = self.__dict__.get("_unit_weights")
        if unit is None:
            arr = np.asarray(self.weights, dtype=float)
            unit = arr
            if arr.size:  # not the empty query
                ratios = arr / arr.max()
                unit = ratios / math.sqrt(sum(r * r for r in ratios.tolist()))
            object.__setattr__(self, "_unit_weights", unit)
        return unit

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_unit_weights"}

    def items(self) -> Iterable[Tuple[str, float]]:
        """Iterate ``(term, raw_weight)`` pairs."""
        return zip(self.terms, self.weights)

    def normalized_items(self) -> Iterable[Tuple[str, float]]:
        """Iterate ``(term, normalized_weight)`` pairs."""
        return zip(self.terms, self._unit().tolist())

    def __repr__(self) -> str:
        shown = " ".join(self.terms[:6])
        return f"Query({shown!r}, n_terms={self.n_terms})"


def check_query_length(query: Query) -> Query:
    """``query`` itself; ``ValueError`` past :data:`MAX_QUERY_TERMS` terms."""
    if query.n_terms > MAX_QUERY_TERMS:
        raise ValueError(
            f"query has {query.n_terms} terms; at most {MAX_QUERY_TERMS} "
            f"are accepted"
        )
    return query
