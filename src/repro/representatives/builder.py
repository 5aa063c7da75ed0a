"""Building representatives from a local engine's index.

The statistics are computed over the *normalized* document weights — with
the Cosine similarity in effect, the contribution of term ``t`` to
``sim(q, d)`` is the query weight times ``d``'s normalized weight for ``t``,
so that is the distribution the estimators must summarize (the paper's
"maximum normalized weight" makes this explicit).
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.engine.search_engine import SearchEngine
from repro.index.inverted import InvertedIndex
from repro.representatives.representative import DatabaseRepresentative
from repro.representatives.term_stats import TermStats

__all__ = ["build_representative", "reduce_weight_rows"]


def reduce_weight_rows(
    rows: Sequence[Sequence[float]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Length, mean, population std and max of every non-empty weight row.

    Rows of equal length (a term's posting weights: equal document
    frequency) are stacked into one ``(rows, df)`` block and reduced along
    ``axis=1`` — one ``mean`` / ``std`` / ``max`` call per distinct length
    instead of one per row.  numpy reduces each row of a C-contiguous block
    with the pairwise summation it applies to a lone 1-D array, so every
    statistic is bit-identical to reducing the rows one at a time.

    Returns:
        ``(df, mean, std, max_weight)``, parallel to ``rows``.
    """
    df = np.array([len(row) for row in rows], dtype=np.int64)
    mean, std, max_weight = (np.empty(df.size) for __ in range(3))
    by_df = np.argsort(df, kind="stable")
    for group in np.split(by_df, np.flatnonzero(np.diff(df[by_df])) + 1):
        if group.size:
            # np.array stacks equal-length rows like np.stack, 3-6x faster
            block = np.array([rows[i] for i in group.tolist()], dtype=np.float64)
            mean[group] = block.mean(axis=1)
            std[group] = block.std(axis=1, ddof=0)
            max_weight[group] = block.max(axis=1)
    return df, mean, std, max_weight


def build_representative(
    source: Union[SearchEngine, InvertedIndex],
    include_max_weight: bool = True,
) -> DatabaseRepresentative:
    """Summarize an engine (or raw index) into a database representative.

    The posting lists are reduced by :func:`reduce_weight_rows`; terms keep
    the index's iteration order.

    Args:
        source: The engine/index to summarize; its weighting and
            normalization settings determine the weight space.
        include_max_weight: Store the quadruplet (Tables 1-9) when True, the
            triplet (Tables 10-12) when False.

    Returns:
        A :class:`DatabaseRepresentative` keyed by term string.
    """
    index = source.index if isinstance(source, SearchEngine) else source
    n = index.n_documents
    vocabulary = index.collection.vocabulary
    items = list(index.items())
    df, mean, std, max_weight = reduce_weight_rows(
        [plist.weights for __, plist in items]
    )
    term_stats = {
        vocabulary.term_of(term_id): TermStats(
            probability=d / n if n else 0.0,
            mean=m,
            std=s,
            max_weight=x if include_max_weight else None,
        )
        for (term_id, __), d, m, s, x in zip(
            items, df.tolist(), mean.tolist(), std.tolist(), max_weight.tolist()
        )
    }
    return DatabaseRepresentative(
        name=index.collection.name, n_documents=n, term_stats=term_stats
    )
