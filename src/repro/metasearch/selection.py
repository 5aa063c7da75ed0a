"""Engine-selection policies over estimate rows.

Given per-engine usefulness estimates, a policy decides which engines the
broker should actually invoke.  The paper's notion is threshold-based —
invoke every engine estimated to hold at least one document above the
similarity threshold — and :class:`ThresholdPolicy` implements it
(estimates rounded to integers, as in the evaluation).  :class:`TopKPolicy`
is the common practical alternative: invoke the ``k`` engines with the
largest estimated NoDoc.

An estimate row is an :class:`EstimateRow`: the engine names, their
``nodoc`` and ``avgsim`` arrays and the best-first permutation ``order``
(one ``np.lexsort`` under :attr:`EstimatedUsefulness.sort_key`).  The
policies read only those arrays; an :class:`EstimatedUsefulness` is built
only when a caller indexes or iterates the row.
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.types import Usefulness

__all__ = [
    "EstimateRow",
    "EstimatedUsefulness",
    "SelectionPolicy",
    "ThresholdPolicy",
    "TopKPolicy",
    "rank_names",
]


@dataclass(frozen=True)
class EstimatedUsefulness:
    """A usefulness estimate attributed to a named engine."""

    engine: str
    usefulness: Usefulness

    @property
    def sort_key(self):
        """Engines compare by (NoDoc, AvgSim) descending, name ascending for
        deterministic ties."""
        return (-self.usefulness.nodoc, -self.usefulness.avgsim, self.engine)


def rank_names(names: Sequence[str]) -> np.ndarray:
    """Each name's position under Python ``sorted`` — the ``engine``
    component of :attr:`EstimatedUsefulness.sort_key` as an integer key
    (equal names rank in input order, as a stable sort keeps them)."""
    rank = np.empty(len(names), dtype=np.intp)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return rank


class EstimateRow(SequenceABC):
    """A read-only, best-first ``Sequence[EstimatedUsefulness]`` held as
    arrays.

    ``names[e]``, ``nodoc[e]`` and ``avgsim[e]`` are engine ``e``'s
    estimate in the producer's order (the fleet store's, for the broker);
    ``order`` lists those indices best first.  Indexing or iterating builds
    the :class:`EstimatedUsefulness` objects on demand; a slice is a row
    over the same arrays.  A row compares equal to a list (or row) of the
    same estimates in the same order.
    """

    __slots__ = ("names", "nodoc", "avgsim", "order")
    __hash__ = None  # compares equal to lists, which are unhashable

    def __init__(
        self,
        names: Sequence[str],
        nodoc: np.ndarray,
        avgsim: np.ndarray,
        order: np.ndarray,
    ):
        self.names = names
        self.nodoc = nodoc
        self.avgsim = avgsim
        self.order = order

    @classmethod
    def ranked(
        cls,
        names: Sequence[str],
        nodoc: np.ndarray,
        avgsim: np.ndarray,
        rank: Optional[np.ndarray] = None,
    ) -> "EstimateRow":
        """The row over these arrays, ordered by one stable
        ``np.lexsort((rank, -avgsim, -nodoc))`` — exactly
        ``sorted(..., key=sort_key)``; ``rank`` is :func:`rank_names` of
        ``names``, computed when not given."""
        if rank is None:
            rank = rank_names(names)
        return cls(names, nodoc, avgsim, np.lexsort((rank, -avgsim, -nodoc)))

    @classmethod
    def of(cls, estimates: Iterable[EstimatedUsefulness]) -> "EstimateRow":
        """``estimates`` as a row: a row is returned as is, anything else
        is ranked under ``sort_key`` (so a best-first list round-trips
        unchanged)."""
        if isinstance(estimates, EstimateRow):
            return estimates
        estimates = list(estimates)
        return cls.ranked(
            [e.engine for e in estimates],
            np.array([e.usefulness.nodoc for e in estimates], dtype=np.float64),
            np.array([e.usefulness.avgsim for e in estimates], dtype=np.float64),
        )

    @property
    def engines(self) -> List[str]:
        """Engine names, best first."""
        names = self.names
        return [names[e] for e in self.order.tolist()]

    def __len__(self) -> int:
        return self.order.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EstimateRow(
                self.names, self.nodoc, self.avgsim, self.order[index]
            )
        e = int(self.order[index])
        return EstimatedUsefulness(
            engine=self.names[e],
            usefulness=Usefulness(
                nodoc=float(self.nodoc[e]), avgsim=float(self.avgsim[e])
            ),
        )

    def __iter__(self):
        order = self.order
        for name, nodoc, avgsim in zip(
            self.engines, self.nodoc[order].tolist(), self.avgsim[order].tolist()
        ):
            yield EstimatedUsefulness(
                engine=name, usefulness=Usefulness(nodoc=nodoc, avgsim=avgsim)
            )

    def __eq__(self, other):
        if not isinstance(other, (EstimateRow, list)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"EstimateRow({list(self)!r})"


def _count(value, name: str, minimum: int) -> int:
    """``value`` if it is a non-bool integer of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


class SelectionPolicy(ABC):
    """Chooses which engines to invoke from ranked usefulness estimates."""

    @abstractmethod
    def select(self, estimates: Sequence[EstimatedUsefulness]) -> List[str]:
        """Names of the engines to invoke, most promising first;
        ``estimates`` is an :class:`EstimateRow` or anything
        :meth:`EstimateRow.of` adapts."""


class ThresholdPolicy(SelectionPolicy):
    """Invoke every engine whose rounded estimated NoDoc is >= ``min_nodoc``.

    ``min_nodoc=1`` is the paper's usefulness criterion.  Rounding is
    ``floor(nodoc + 0.5)``, the IEEE arithmetic of
    :attr:`Usefulness.nodoc_rounded`, applied to the whole row at once.
    """

    def __init__(self, min_nodoc: int = 1):
        self.min_nodoc = _count(min_nodoc, "min_nodoc", 1)

    def select(self, estimates: Sequence[EstimatedUsefulness]) -> List[str]:
        row = EstimateRow.of(estimates)
        order = row.order
        kept = order[np.floor(row.nodoc[order] + 0.5) >= self.min_nodoc]
        names = row.names
        return [names[e] for e in kept.tolist()]


class TopKPolicy(SelectionPolicy):
    """Invoke the ``k`` engines with the largest estimated NoDoc (non-zero)."""

    def __init__(self, k: int):
        self.k = _count(k, "k", 0)

    def select(self, estimates: Sequence[EstimatedUsefulness]) -> List[str]:
        row = EstimateRow.of(estimates)
        top = row.order[: self.k]
        kept = top[row.nodoc[top] > 0.0]
        names = row.names
        return [names[e] for e in kept.tolist()]
