"""Subrange schemes — how a term's weight distribution is discretized.

Section 3.1 of the paper partitions the (descending) weights of a term into
subranges and represents each subrange by its median weight, approximated
under a normal assumption as ``w + c * sigma`` with ``c`` a standard-normal
quantile.  A :class:`SubrangeScheme` is the declarative description of such a
partition: the median percentiles (measured from the *bottom* of the
distribution, so percentile 98 is a high weight) with the probability mass of
each subrange, plus whether a singleton top subrange holds the maximum
normalized weight with probability ``1/n``.

Two canonical schemes:

* :meth:`SubrangeScheme.equal` — ``k`` equal subranges; ``equal(4)`` is the
  four-subrange construction of the paper's exposition (Example 3.3:
  ``c = +-1.15, +-0.318``).
* :meth:`SubrangeScheme.paper_six` — the six-subrange configuration of the
  experiments: the singleton max-weight subrange plus medians at the 98,
  93.1, 70, 37.5 and 12.5 percentiles.  The masses are recovered from the
  medians by walking boundaries down from the top (see DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.stats.normal import normal_quantile

__all__ = ["SubrangeScheme"]


@dataclass(frozen=True)
class SubrangeScheme:
    """A discretization of a term-weight distribution.

    Attributes:
        median_percentiles: Median of each subrange, in percent from the
            bottom of the weight distribution, strictly descending.
        masses: Fraction of the term's occurrence probability assigned to
            each subrange; parallel to ``median_percentiles``; sums to 1.
        include_max: Prepend a singleton subrange holding the maximum
            normalized weight with probability ``1/n`` (deducted from the
            top subrange's mass).
    """

    median_percentiles: Tuple[float, ...]
    masses: Tuple[float, ...]
    include_max: bool = True

    def __post_init__(self):
        if len(self.median_percentiles) != len(self.masses):
            raise ValueError("median_percentiles and masses must align")
        if not self.median_percentiles:
            raise ValueError("a scheme needs at least one subrange")
        for pct in self.median_percentiles:
            if not 0.0 < pct < 100.0:
                raise ValueError(f"percentile must be in (0, 100), got {pct!r}")
        if any(
            a <= b
            for a, b in zip(self.median_percentiles, self.median_percentiles[1:])
        ):
            raise ValueError("median percentiles must be strictly descending")
        if any(m <= 0.0 for m in self.masses):
            raise ValueError("all masses must be positive")
        total = sum(self.masses)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1, got {total!r}")

    def normal_offsets(self) -> Tuple[float, ...]:
        """The ``c_j`` constants: standard-normal quantiles of the medians.

        These are term-independent, as the paper stresses — one lookup table
        serves every term.
        """
        return tuple(normal_quantile(p / 100.0) for p in self.median_percentiles)

    # -- canonical schemes ---------------------------------------------------------

    @classmethod
    def equal(cls, k: int, include_max: bool = False) -> "SubrangeScheme":
        """``k`` equal-mass subranges with medians at their midpoints.

        ``equal(4)`` gives medians 87.5/62.5/37.5/12.5 — the construction of
        the paper's Section 3.1 figure and Example 3.3.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        medians = tuple(100.0 * (2 * (k - j) - 1) / (2 * k) for j in range(k))
        masses = (1.0 / k,) * k
        return cls(
            median_percentiles=medians, masses=masses, include_max=include_max
        )

    @classmethod
    def paper_six(cls) -> "SubrangeScheme":
        """The six-subrange configuration of the paper's experiments.

        One singleton subrange holds the maximum normalized weight; the
        other five have medians at the 98, 93.1, 70, 37.5 and 12.5
        percentiles.  Masses follow from the medians being subrange
        midpoints: boundaries 100 / 96 / 90.2 / 49.8 / 25.2 / 0 give masses
        4%, 5.8%, 40.4%, 24.6% and 25.2% — narrow subranges at the top,
        where weights matter most for high thresholds, exactly the rationale
        the paper states.
        """
        return cls(
            median_percentiles=(98.0, 93.1, 70.0, 37.5, 12.5),
            masses=(0.040, 0.058, 0.404, 0.246, 0.252),
            include_max=True,
        )

    def __repr__(self) -> str:
        medians = ", ".join(f"{p:g}" for p in self.median_percentiles)
        return (
            f"SubrangeScheme(medians=[{medians}], include_max={self.include_max})"
        )
