"""Per-term statistics stored in a database representative."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["TermStats"]


@dataclass(frozen=True)
class TermStats:
    """The paper's quadruplet for one term (triplet when ``max_weight`` is
    withheld, pair when ``std`` is additionally irrelevant).

    Attributes:
        probability: ``p`` — fraction of the database's documents containing
            the term.
        mean: ``w`` — average (normalized) weight of the term over the
            documents containing it.
        std: ``sigma`` — population standard deviation of those weights.
        max_weight: ``mw`` — maximum normalized weight; None in the triplet
            representation of the Tables 10-12 experiments, where it must be
            estimated from ``mean`` and ``std``.
    """

    probability: float
    mean: float
    std: float
    max_weight: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability!r}")
        # ``0 <= x < inf`` fails for NaN as well as for negatives and inf:
        # JSON parses ``NaN`` and ``Infinity``, so representative files,
        # remote representatives and delta records can all carry them.
        if not 0.0 <= self.mean < math.inf:
            raise ValueError(
                f"mean weight must be finite and >= 0, got {self.mean!r}"
            )
        if not 0.0 <= self.std < math.inf:
            raise ValueError(f"std must be finite and >= 0, got {self.std!r}")
        if self.max_weight is not None and not 0.0 <= self.max_weight < math.inf:
            raise ValueError(
                f"max_weight must be finite and >= 0, got {self.max_weight!r}"
            )

    def without_max_weight(self) -> "TermStats":
        """The triplet view of this term (drops ``mw``)."""
        return TermStats(
            probability=self.probability, mean=self.mean, std=self.std, max_weight=None
        )
