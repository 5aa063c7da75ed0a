"""The subrange-based estimation method — the paper's contribution.

For each query term the occurrence probability ``p`` is split across the
subranges of a :class:`~repro.representatives.SubrangeScheme`; each subrange
is represented by its median weight, approximated under the normal
assumption as ``w + c_j * sigma`` (Expression (8)).  When the scheme includes
the max-weight singleton, that subrange holds the term's maximum normalized
weight with probability ``1/n`` — the component responsible for the paper's
correct-identification guarantee on single-term queries.

Two operating modes mirror the paper's experiments:

* ``use_stored_max=True`` (default) — quadruplet representative; the stored
  ``mw`` is used (Tables 1-9).
* ``use_stored_max=False`` — triplet representative; ``mw`` is *estimated*
  as the 99.9 percentile point of ``N(w, sigma^2)`` (Tables 10-12).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.base import ExpansionEstimator, register_estimator
from repro.representatives.subrange import SubrangeScheme
from repro.representatives.term_stats import TermStats
from repro.stats.normal import normal_quantile

__all__ = ["SubrangeEstimator"]

#: Percentile of ``N(w, sigma^2)`` taken as a term's maximum weight when
#: the representative stores none (the paper uses 99.9).
_MAX_PERCENTILE = 99.9
_MAX_Z = normal_quantile(_MAX_PERCENTILE / 100.0)


class SubrangeEstimator(ExpansionEstimator):
    """Generating-function estimator with subrange-resolved term weights.

    Args:
        scheme: The subrange partition; defaults to the paper's six-subrange
            evaluation configuration.
        use_stored_max: Whether the representative's stored maximum
            normalized weight may be used; when False (or absent from the
            representative) it is estimated as the 99.9 percentile of
            ``N(w, sigma^2)``.
    """

    name = "subrange"
    label = "subrange method"

    def __init__(
        self,
        scheme: Optional[SubrangeScheme] = None,
        use_stored_max: bool = True,
    ):
        self.scheme = scheme or SubrangeScheme.paper_six()
        self.use_stored_max = use_stored_max
        self._offsets = np.asarray(self.scheme.normal_offsets())
        self._masses = np.asarray(self.scheme.masses)

    # -- per-term polynomial ------------------------------------------------------

    def _effective_max(self, stats: TermStats) -> float:
        """The max weight used for clamping and for the singleton subrange.

        The triplet-mode estimate ``w + z * sigma`` is clamped to ``[0, 1]``:
        a normalized document weight can never exceed 1, and an unclamped
        high-sigma term would place probability mass at impossible
        similarities (> 1), inflating est_NoDoc above the threshold range a
        real document can reach.
        """
        if self.use_stored_max and stats.max_weight is not None:
            return stats.max_weight
        return min(1.0, max(stats.mean + _MAX_Z * stats.std, 0.0))

    def term_polynomial(
        self, u: float, stats: TermStats, n_documents: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expression (8) for one query term.

        Args:
            u: Normalized query weight of the term.
            stats: The term's representative statistics.
            n_documents: Database size ``n`` (the singleton max subrange has
                probability ``1/n``).
        """
        p = stats.probability
        mw = self._effective_max(stats)
        exponents: List[float] = []
        coeffs: List[float] = []
        remaining = p
        if self.scheme.include_max and n_documents > 0:
            p_max = min(1.0 / n_documents, p)
            exponents.append(u * mw)
            coeffs.append(p_max)
            remaining = p - p_max
        if remaining > 0.0:
            medians = np.clip(stats.mean + self._offsets * stats.std, 0.0, mw)
            exponents.extend((u * medians).tolist())
            coeffs.extend((remaining * self._masses).tolist())
        exponents.append(0.0)
        coeffs.append(1.0 - p)
        return np.asarray(exponents), np.asarray(coeffs)

    def effective_max(
        self, w: np.ndarray, sigma: np.ndarray, mw: np.ndarray
    ) -> np.ndarray:
        """:meth:`_effective_max` over ``(E, Q)`` statistics arrays.

        The stored max where allowed and present (``NaN`` in ``mw``
        encodes "no stored max"), else the clamped normal estimate —
        elementwise identical to :meth:`_effective_max` (Python min/max
        and np.minimum/np.maximum agree on the non-negative, NaN-free
        values here).  It caps every slot of a term's factor: the medians
        clip to it and the singleton sits on it, so for a positive query
        weight ``u``, ``u * effective_max`` is the factor's largest
        exponent.
        """
        estimated = np.minimum(1.0, np.maximum(w + _MAX_Z * sigma, 0.0))
        if self.use_stored_max:
            return np.where(np.isnan(mw), estimated, mw)
        return estimated

    def factor_grid(
        self,
        p: np.ndarray,
        w: np.ndarray,
        sigma: np.ndarray,
        mw: np.ndarray,
        u: np.ndarray,
        n: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Expression (8) for a whole fleet in one numpy pass.

        The batched counterpart of :meth:`term_polynomial`: given the
        ``(engines, query terms)`` statistics block of a
        :class:`~repro.representatives.columnar.FleetRepresentativeStore`
        gather, computes every engine's per-term factor points at once.

        Args:
            p / w / sigma / mw: ``(E, Q)`` statistics arrays; ``NaN`` in
                ``mw`` encodes a triplet-mode "no stored max".
            u: ``(E, Q)`` normalized query weights (a ``(Q,)`` vector
                broadcasts: one query for every row).
            n: ``(E,)`` per-row document counts.

        Returns:
            ``(exponents, coefficients, has_max_row, remaining)``.  The
            first two are ``(E, Q, S + 2)`` tensors laid out
            ``[max-weight singleton, subrange medians..., miss]``; each
            slot is elementwise bit-identical to the scalar
            :meth:`term_polynomial`'s value for that engine and term.
            ``has_max_row`` marks engines whose factors carry the
            singleton slot, and ``remaining[e, q] > 0`` marks factors
            whose median slots are live — together they say which slice
            of the tensor is engine ``e``'s actual factor.
        """
        n_engines = p.shape[0]
        u = np.atleast_2d(u)
        mw_eff = self.effective_max(w, sigma, mw)
        n_f = n.astype(np.float64)
        has_max_row = (
            (n > 0)
            if self.scheme.include_max
            else np.zeros(n_engines, dtype=bool)
        )
        with np.errstate(divide="ignore"):
            inv_n = np.where(n > 0, 1.0 / n_f, np.inf)
        p_max = np.minimum(inv_n[:, None], p)
        remaining = np.where(has_max_row[:, None], p - p_max, p)
        n_sub = self._offsets.size
        medians = np.clip(
            w[:, :, None] + self._offsets * sigma[:, :, None],
            0.0,
            mw_eff[:, :, None],
        )
        exponents = np.empty(p.shape + (n_sub + 2,))
        coefficients = np.empty_like(exponents)
        exponents[:, :, 0] = u * mw_eff
        exponents[:, :, 1 : n_sub + 1] = u[:, :, None] * medians
        exponents[:, :, n_sub + 1] = 0.0
        coefficients[:, :, 0] = p_max
        coefficients[:, :, 1 : n_sub + 1] = remaining[:, :, None] * self._masses
        coefficients[:, :, n_sub + 1] = 1.0 - p
        return exponents, coefficients, has_max_row, remaining


register_estimator("subrange", SubrangeEstimator)
register_estimator(
    "subrange-triplet", lambda: SubrangeEstimator(use_stored_max=False)
)
