"""Engine-axis vectorized usefulness estimation over a fleet store.

The scalar path answers one (engine, query, threshold) at a time: walk the
representative dict, build per-term polynomials, expand, read the tail.
This module answers a whole fleet at once from a
:class:`~repro.representatives.columnar.FleetRepresentativeStore`: one
gather yields the ``(engines, query terms)`` statistics block, one numpy
pass computes every engine's polynomial factors, and the read-outs run
across the engine axis.

The contract throughout is *bit-identity with the scalar estimators*:

* The three expansion estimators (subrange, basic, binary-independence)
  share one batched polynomial kernel,
  :class:`~repro.core.genfunc.BatchedGenFunc`: the generating-function
  state of every engine advances together, one multiply-and-merge per
  query term, replicating the scalar ``round → unique → bincount``
  pipeline per row (see the kernel's docstring for the exactness argument
  covering rounding and merge order).  The
  subrange factor tensor — median weights ``w + c_j * sigma``, the
  max-weight singleton, probabilities — is built in one vectorized pass by
  :meth:`SubrangeEstimator.factor_grid`, and all tails come off one
  batched suffix-cumsum read (:meth:`BatchedGenFunc.tail_profile`).
* The expansion is *threshold-aware*: Eq. 6 reads only exponents above
  T, so after each query term every engine drops the terms that could not
  exceed the smallest threshold of the call even if each later term added
  its largest factor exponent (:func:`_threshold_cuts`; the exactness
  argument is in :class:`~repro.core.genfunc.BatchedGenFunc`).  Every
  read-out stays bit-identical to the full expansion; only the kept term
  count changes, so ``estimator.genfunc.terms`` counts the terms *kept*
  (the scalar path, which expands in full, still counts them all).
* Before any factor is built, each engine's *whole-row bound* — its
  matched factors' largest exponents summed (subrange ``u * mw_eff``, the
  max-weight singleton; basic / binary ``max(x, 0)``) — is compared with
  the same cut applied to the initial ``1 * X^0`` term
  (:func:`_live_rows`).  An engine at or below it cannot read a non-empty
  tail at any threshold of the call: it is answered ``(0.0, 0.0)`` and
  never enters the kernel, so factor build, product, tails and boxing run
  on the live rows only.  ``estimator.expansions`` counts those kernel
  rows and ``estimator.rows.skipped`` the rest.
* The gGlOSS estimators are closed-form over sorted bands; both variants
  vectorize to a lexsort plus suffix cumulative sums that accumulate in the
  scalar code's exact addition order.

There is no configuration-triggered fallback: every expansion estimator,
exponents past ``2**53`` included, runs through the batched kernel with
scalar-identical semantics.  Two things are evaluated per engine row
instead, both with the scalar code itself:

* *Demotion* — rows whose factor exponents are non-finite (or whose
  rounding would overflow float64) are expanded with the scalar
  :meth:`GenFunc.product`; everything else stays batched, and every
  demotion is counted (:func:`fallback_count`) and reported to the
  estimator's metrics registry as ``vectorized.scalar_demotions``.
* *Estimators without a batched kernel* — the previous-method baseline and
  any subclass of the five (which may override ``term_polynomial`` or
  ``estimate``, so a re-implementation would silently diverge) run their
  own ``estimate_many`` per row over a
  :class:`~repro.representatives.columnar.FleetRepresentativeRef`.

So :func:`fleet_usefulness_grid` is total: every estimator gets a grid, and
the broker needs no second estimation path.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.base import ExpansionEstimator, UsefulnessEstimator
from repro.core.basic_estimator import BasicEstimator
from repro.core.binary_estimator import BinaryIndependenceEstimator
from repro.core.genfunc import DECIMALS, BatchedGenFunc, GenFunc
from repro.core.gloss import GlossDisjointEstimator, GlossHighCorrelationEstimator
from repro.core.subrange_estimator import SubrangeEstimator
from repro.core.types import Usefulness
from repro.corpus.query import Query
from repro.obs.registry import LATENCY_BUCKETS, SIZE_BUCKETS
from repro.representatives.columnar import (
    FleetRepresentativeRef,
    FleetRepresentativeStore,
)

__all__ = [
    "fallback_count",
    "fleet_usefulness_grid",
    "reset_fallback_count",
]

#: Estimator types with a batched kernel.  Exact types, not subclasses: a
#: subclass may override term_polynomial/estimate and the vectorized
#: re-implementation would silently diverge from it, so it is evaluated
#: per row with its own code instead.
_BATCHED_TYPES = (
    SubrangeEstimator,
    BasicEstimator,
    BinaryIndependenceEstimator,
    GlossHighCorrelationEstimator,
    GlossDisjointEstimator,
)

#: Accumulated-exponent ceiling: ``np.round`` scales by ``10**DECIMALS``,
#: and past ``1e306`` after that scaling its intermediate product can
#: overflow to ``inf``, where the batched kernel's padded sort loses its
#: finite/in-row distinction.  Rows at or above it (or non-finite) are
#: demoted to the scalar path (still exact); float64 itself tops out near
#: 1.8e308.
_EXPONENT_CEILING = 1e306 / 10.0 ** DECIMALS

#: How many engine rows were demoted to the scalar per-engine product
#: because their factor exponents were non-finite or overflow-adjacent.
#: Zero on every sane representative; the fleet-scaling bench asserts it
#: stays zero through the whole sweep.
_SCALAR_DEMOTIONS = 0

#: The estimate of every row the whole-row bound rules out (immutable,
#: so one instance serves every such cell).
_NO_USEFULNESS = Usefulness(nodoc=0.0, avgsim=0.0)


def fallback_count() -> int:
    """Engine rows demoted to the scalar product since the last reset."""
    return _SCALAR_DEMOTIONS


def reset_fallback_count() -> None:
    """Zero the demotion counter (benches call this before a sweep)."""
    global _SCALAR_DEMOTIONS
    _SCALAR_DEMOTIONS = 0


def fleet_usefulness_grid(
    estimator: UsefulnessEstimator,
    store: FleetRepresentativeStore,
    query: Query,
    thresholds: Sequence[float],
    polycache=None,
) -> List[List[Usefulness]]:
    """Usefulness of every engine in ``store`` at every threshold.

    Args:
        estimator: Any estimator.  The five exact types in
            ``_BATCHED_TYPES`` run their batched kernel; anything else is
            evaluated per engine row with its own ``estimate_many``.
        store: The packed fleet; rows follow its ``engine_names`` order.
        query: The query.
        thresholds: Thresholds to read out (the expansion estimators share
            one expansion across all of them, like ``estimate_many``).
        polycache: Optional term-polynomial cache, handed to per-row
            expansion estimators only — they build factors one
            ``term_polynomial`` call at a time, which is what it memoizes.
            The batched kernels compute every factor in one numpy pass
            and never touch it.

    The three expansion estimators first bound each engine's whole row:
    if the sum of its matched factors' largest exponents cannot pass the
    smallest threshold (after the threshold cut's rounding margin), every
    tail it could read is empty, so it gets the shared ``(0.0, 0.0)``
    estimate and no kernel row; a call where every engine is ruled out
    expands nothing.  That is the threshold cut's own exactness argument
    one step early, so the grid stays bit-identical to the scalar
    estimator, which expands every engine in full.

    Returns:
        ``grid[t][e]`` — the estimate for ``thresholds[t]`` and engine
        ``store.engine_names[e]``, bit-identical to the scalar estimator.
    """
    thresholds = [float(t) for t in thresholds]
    if len(store) == 0:
        return [[] for __ in thresholds]
    if type(estimator) not in _BATCHED_TYPES:
        return _per_row_grid(estimator, store, query, thresholds, polycache)
    ids = store.vocab.ids_of(query.terms)
    p, w, sigma, mw = store.gather(ids)
    u = np.asarray(query.normalized_weights(), dtype=np.float64)
    n = store.n_documents
    matched = p > 0.0
    if isinstance(estimator, GlossHighCorrelationEstimator):
        return _gloss_hc_grid(p, w, u, n, matched, thresholds)
    if isinstance(estimator, GlossDisjointEstimator):
        return _gloss_disjoint_grid(p, w, u, n, matched, thresholds)
    # Per (engine, term): the factor's largest exponent (the threshold
    # cut's headroom) and largest |exponent|.  Query weights are positive,
    # so for subrange both are u * mw_eff: the singleton sits on it, every
    # median clips to it and the miss slot is 0.
    if isinstance(estimator, SubrangeEstimator):
        top = u[None, :] * estimator.effective_max(w, sigma, mw)
        headroom = magnitude = top
        stats = (p, w, sigma, mw)
    else:
        mean_w = (
            w if isinstance(estimator, BasicEstimator)
            else store.binary_mean_w[:, None]
        )
        x = u[None, :] * mean_w
        headroom, magnitude = np.maximum(x, 0.0), np.abs(x)
        stats = (x, p)
    # Worst-case exponent accumulation per engine.
    bound = np.where(matched, magnitude, 0.0).sum(axis=1)
    n_engines = len(store)
    live = _live_rows(matched, headroom, bound, thresholds)
    if not estimator.registry.null:
        estimator.registry.counter("estimator.rows.skipped").inc(
            n_engines - live.size
        )
    if live.size == 0:
        return [[_NO_USEFULNESS] * n_engines for __ in thresholds]
    if live.size < n_engines:
        stats = tuple(a[live] for a in stats)
        matched, headroom, bound, n = (
            matched[live], headroom[live], bound[live], n[live]
        )
    if isinstance(estimator, SubrangeEstimator):
        grid = _subrange_grid(
            estimator, *stats, u, n, matched, headroom, bound, thresholds
        )
    else:
        grid = _expansion_grid(
            estimator, *stats, matched, headroom, bound, n, thresholds
        )
    if live.size == n_engines:
        return grid
    rows = live.tolist()
    spread = []
    for values in grid:
        row = [_NO_USEFULNESS] * n_engines
        for e, value in zip(rows, values):
            row[e] = value
        spread.append(row)
    return spread


# -- shared expansion machinery ----------------------------------------------


def _unsafe_rows(exponent_bound: np.ndarray) -> np.ndarray:
    """Rows the batched kernel must not touch: worst-case accumulated
    exponent magnitude NaN, infinite, or at the rounding-overflow
    ceiling."""
    return ~(exponent_bound < _EXPONENT_CEILING)


def _per_row_grid(
    estimator: UsefulnessEstimator,
    store: FleetRepresentativeStore,
    query: Query,
    thresholds: List[float],
    polycache,
) -> List[List[Usefulness]]:
    """The grid of an estimator without a batched kernel: its own
    ``estimate_many`` per engine row, reading the packed store through a
    :class:`FleetRepresentativeRef` (bit-exact term statistics).  The
    inherited :meth:`ExpansionEstimator.estimate_many` also takes the
    term-polynomial cache; an override keeps its own signature."""
    inherited = (
        getattr(estimator.estimate_many, "__func__", None)
        is ExpansionEstimator.estimate_many
    )
    columns = [
        estimator.estimate_many(
            query,
            FleetRepresentativeRef(name, store),
            thresholds,
            *((polycache, name) if inherited else ()),
        )
        for name in store.engine_names
    ]
    return [[column[i] for column in columns] for i in range(len(thresholds))]


def _report_expansions(registry, batch: BatchedGenFunc, seconds: float) -> None:
    """The ``estimator.*`` series :meth:`ExpansionEstimator.expand` reports
    on the scalar path: one size observation per kernel row — each engine
    the whole-row bound left live — and the batched product's duration as
    one sample (a demoted row shows as the one-term identity its batch
    slot still holds)."""
    registry.counter("estimator.expansions").inc(batch.n_rows)
    registry.histogram(
        "estimator.expansion.seconds", buckets=LATENCY_BUCKETS
    ).observe(seconds)
    sizes = registry.histogram("estimator.genfunc.terms", buckets=SIZE_BUCKETS)
    for n_terms in batch.row_len.tolist():
        sizes.observe(n_terms)


def _demote_rows(
    est,
    rows: np.ndarray,
    polys_of,
    thresholds: List[float],
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Scalar ``GenFunc.product`` tails for the demoted rows, counted."""
    global _SCALAR_DEMOTIONS
    tails: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for e in rows.tolist():
        tails[e] = GenFunc.product(polys_of(e)).tail_profile(thresholds)
    _SCALAR_DEMOTIONS += len(tails)
    est.registry.counter("vectorized.scalar_demotions").inc(len(tails))
    return tails


def _grid_readout(
    est,
    batch: BatchedGenFunc,
    n: np.ndarray,
    thresholds: List[float],
    scalar_tails: Dict[int, Tuple[np.ndarray, np.ndarray]],
    started: float,
) -> List[List[Usefulness]]:
    """Batched tails -> per-threshold Usefulness rows (scalar-identical
    ``nodoc = n * mass`` / ``avgsim = moment / mass`` arithmetic); an
    instrumented estimator gets its expansion series for the product that
    began at ``started``."""
    if not est.registry.null:
        _report_expansions(est.registry, batch, time.perf_counter() - started)
    mass, moment = batch.tail_profile(thresholds)
    for e, (row_mass, row_moment) in scalar_tails.items():
        mass[:, e] = row_mass
        moment[:, e] = row_moment
    n_f = n.astype(np.float64)
    grid = []
    for i in range(len(thresholds)):
        m = mass[i]
        nodoc = n_f * m
        positive = m > 0.0
        avgsim = np.where(positive, moment[i] / np.where(positive, m, 1.0), 0.0)
        grid.append(
            [
                Usefulness(nodoc=nd, avgsim=av)
                for nd, av in zip(nodoc.tolist(), avgsim.tolist())
            ]
        )
    return grid


def _cut_floor(thresholds: List[float]) -> float:
    """The smallest threshold read: NaN reads an empty tail and is
    ignored; ``+inf`` when no threshold is a number."""
    return min((t for t in thresholds if t == t), default=float("inf"))


def _cut_margin(n_terms: int, bound: np.ndarray, floor: float) -> np.ndarray:
    """Per-row rounding-drift margin of the threshold cut (derived in
    :func:`_threshold_cuts`)."""
    unit = 10.0 ** -DECIMALS
    return (n_terms + 2) * (4.0 * unit + 1e-12 * (1.0 + bound + abs(floor)))


def _live_rows(matched, headroom, bound, thresholds) -> np.ndarray:
    """Indices of the engine rows that may read a non-empty tail.

    A row is dead when even its initial ``1 * X^0`` term falls at or
    below the cut before the first multiply: ``sum(headroom) <= floor -
    margin``, the cut of :func:`_threshold_cuts` with every term still to
    come.  Then no term of its expansion can exceed ``floor``, so every
    read at ``T >= floor`` (or NaN) is the empty tail ``(0.0, 0.0)`` —
    the argument of :class:`~repro.core.genfunc.BatchedGenFunc`'s cut,
    applied one step earlier.  A NaN sum compares false and stays live
    (the demotion path sees it); a non-finite floor keeps every row.
    """
    floor = _cut_floor(thresholds)
    if not math.isfinite(floor):
        return np.arange(matched.shape[0])
    total = np.where(matched, headroom, 0.0).sum(axis=1)
    dead = total <= floor - _cut_margin(matched.shape[1], bound, floor)
    return np.nonzero(~dead)[0]


def _threshold_cuts(matched, headroom, bound, thresholds):
    """Per ``(engine, term)`` cut for the threshold-aware expansion (see
    :class:`BatchedGenFunc`), or ``None`` when nothing may be cut.

    After term ``j`` an engine's cut is ``floor - H_j - margin``:

    * ``floor`` is the smallest threshold read.  NaN and ``+inf`` read an
      empty tail and constrain nothing; a ``-inf`` threshold (or none
      finite) reads everything, so nothing is cut.
    * ``H_j`` sums ``headroom`` — at least each matched factor's largest
      exponent — over the terms after ``j``.
    * ``margin = (Q + 2) * (4 * 10**-d + 1e-12 * (1 + bound + |floor|))``
      for a ``Q``-term query and ``d = DECIMALS``.  One multiply moves a
      value by its factor exponent plus at most ``10**-d / 2`` of rounding
      plus a few float ulps (``<= 5 * 2**-53`` relative to magnitudes
      ``<= bound + Q * 10**-d``); summing ``H_j`` and computing the cut
      itself err by a few more relative ulps.  Per remaining step
      ``4 * 10**-d`` covers the rounding and ``1e-12`` relative covers
      every ulp term with room to spare, so a term at or below its cut
      ends at or below ``floor``.
    """
    floor = _cut_floor(thresholds)
    if not math.isfinite(floor):
        return None
    margin = _cut_margin(matched.shape[1], bound, floor)
    head = np.where(matched, headroom, 0.0)
    after = np.zeros_like(head)
    after[:, :-1] = np.cumsum(head[:, :0:-1], axis=1)[:, ::-1]
    # Finite on every vectorizable row; demoted rows (non-finite bound or
    # headroom) never reach the kernel.
    return floor - after - margin[:, None]


def _batched_expansion(
    est, matched, bound, headroom, factor_rows, scalar_polys, n, thresholds
) -> List[List[Usefulness]]:
    """The batched twin of :meth:`ExpansionEstimator.expand`: one
    multiply-and-merge per query term across the engine axis.

    The per-estimator part — the counterpart of ``term_polynomial`` — is
    two callables: ``factor_rows(rows, j)`` returns term ``j``'s
    ``(exponents, coeffs, lengths)`` for the engine ``rows``, and
    ``scalar_polys(e)`` engine ``e``'s factor list for the demotion path.
    ``bound`` is each engine's worst-case accumulated exponent magnitude;
    rows where it is unsafe are demoted to the scalar product.
    ``headroom[e, j]`` is at least the largest exponent of engine ``e``'s
    factor for term ``j``: with it, each multiply drops the terms that
    can no longer exceed any threshold read (:func:`_threshold_cuts`).
    """
    started = time.perf_counter()
    n_engines, n_terms = matched.shape
    demoted = _unsafe_rows(bound)
    vectorizable = ~demoted
    cuts = _threshold_cuts(matched, headroom, bound, thresholds)

    def term_factors():
        for j in range(n_terms):
            rows = np.nonzero(matched[:, j] & vectorizable)[0]
            if rows.size:
                yield (
                    rows, *factor_rows(rows, j),
                    None if cuts is None else cuts[rows, j],
                )

    batch = BatchedGenFunc.product(n_engines, term_factors())
    scalar_tails: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    if demoted.any():
        scalar_tails = _demote_rows(
            est, np.nonzero(demoted)[0], scalar_polys, thresholds
        )
    return _grid_readout(est, batch, n, thresholds, scalar_tails, started)


# -- subrange: batched factor tensor -----------------------------------------


def _subrange_grid(
    est, p, w, sigma, mw, u, n, matched, headroom, bound, thresholds
):
    """All subrange polynomial factors in one numpy pass
    (:meth:`SubrangeEstimator.factor_grid`), sliced per term for the
    batched product."""
    exps, coeffs, has_max_row, remaining = est.factor_grid(p, w, sigma, mw, u, n)
    n_sub = est._offsets.size
    return _batched_expansion(
        est, matched, bound, headroom,
        lambda rows, j: _subrange_factor_rows(
            exps, coeffs, has_max_row, remaining, rows, j, n_sub
        ),
        lambda e: _subrange_scalar_polys(
            exps, coeffs, has_max_row, remaining, matched, e, n_sub
        ),
        n, thresholds,
    )


def _subrange_factor_rows(exps, coeffs, has_max_row, remaining, rows, j, n_sub):
    """Per-row subrange factors for term ``j`` in scalar point order.

    Three factor shapes exist (see
    :meth:`SubrangeEstimator.term_polynomial`): the full
    ``[singleton, medians..., miss]``, the collapsed ``[singleton, miss]``
    when the singleton absorbs the whole occurrence probability, and the
    ``[medians..., miss]`` form when the scheme carries no max subrange
    (or the engine has no documents).  All three are sliced from the
    factor tensor into one padded ``(rows, S + 2)`` block with per-row
    effective lengths — the batched kernel ignores the padding entirely.
    """
    width = n_sub + 2
    fexp = np.zeros((rows.size, width))
    fcoef = np.zeros((rows.size, width))
    flen = np.empty(rows.size, dtype=np.int64)
    with_max = has_max_row[rows]
    live_medians = remaining[rows, j] > 0.0
    full = with_max & live_medians
    singleton = with_max & ~live_medians
    no_max = ~with_max
    if full.any():
        sel = rows[full]
        fexp[full] = exps[sel, j]
        fcoef[full] = coeffs[sel, j]
        flen[full] = width
    if singleton.any():
        sel = rows[singleton]
        fexp[singleton, 0] = exps[sel, j, 0]
        fcoef[singleton, 0] = coeffs[sel, j, 0]
        fexp[singleton, 1] = exps[sel, j, n_sub + 1]
        fcoef[singleton, 1] = coeffs[sel, j, n_sub + 1]
        flen[singleton] = 2
    if no_max.any():
        sel = rows[no_max]
        fexp[no_max, : n_sub + 1] = exps[sel, j, 1:]
        fcoef[no_max, : n_sub + 1] = coeffs[sel, j, 1:]
        flen[no_max] = n_sub + 1
    return fexp, fcoef, flen


def _subrange_scalar_polys(exps, coeffs, has_max_row, remaining, matched, e, n_sub):
    """Engine ``e``'s factor list, sliced from the same tensors the batch
    uses — the demotion path's input to the scalar ``GenFunc.product``."""
    head_tail = np.array([0, n_sub + 1])
    polys = []
    for j in range(matched.shape[1]):
        if not matched[e, j]:
            continue
        if has_max_row[e]:
            if remaining[e, j] > 0.0:
                polys.append((exps[e, j], coeffs[e, j]))
            else:
                polys.append((exps[e, j, head_tail], coeffs[e, j, head_tail]))
        else:
            polys.append((exps[e, j, 1:], coeffs[e, j, 1:]))
    return polys


# -- basic / binary: two-point factors ---------------------------------------


def _expansion_grid(est, x, p, matched, headroom, bound, n, thresholds):
    """The two-point factors ``p * X^x + (1-p)`` of the basic and
    binary-independence estimators, built per term for the batched
    product."""

    def factor_rows(rows, j):
        fexp = np.zeros((rows.size, 2))
        fexp[:, 0] = x[rows, j]
        fcoef = np.empty((rows.size, 2))
        fcoef[:, 0] = p[rows, j]
        fcoef[:, 1] = 1.0 - p[rows, j]
        return fexp, fcoef, None  # every row uses the full width

    def scalar_polys(e):
        return [
            (np.array([x[e, j], 0.0]), np.array([p[e, j], 1.0 - p[e, j]]))
            for j in range(x.shape[1])
            if matched[e, j]
        ]

    return _batched_expansion(
        est, matched, bound, headroom, factor_rows, scalar_polys,
        n, thresholds,
    )


# -- gGlOSS ------------------------------------------------------------------


def _gloss_hc_grid(p, w, u, n, matched, thresholds):
    """High-correlation bands across the engine axis.

    Matched terms sort per engine by ``(df, u, w)`` ascending with original
    position as the final tiebreak — the exact order Python's stable tuple
    sort produces in the scalar estimator.  Unmatched terms sort last
    (``df = inf``) with zero contributions, so the suffix-similarity chain
    accumulates in the scalar order with bit-inert +0.0 prefixes.
    """
    n_engines, n_terms = p.shape
    n_f = n.astype(np.float64)
    dfs = p * n_f[:, None]
    contrib = u[None, :] * w
    df_key = np.where(matched, dfs, np.inf)
    u_key = np.where(matched, np.broadcast_to(u, p.shape), 0.0)
    w_key = np.where(matched, w, 0.0)
    row = np.repeat(np.arange(n_engines), n_terms)
    col = np.tile(np.arange(n_terms), n_engines)
    order = np.lexsort(
        (col, w_key.ravel(), u_key.ravel(), df_key.ravel(), row)
    )
    df_s = df_key.ravel()[order].reshape(n_engines, n_terms)
    c_s = (
        np.where(matched, contrib, 0.0).ravel()[order].reshape(n_engines, n_terms)
    )
    m_s = matched.ravel()[order].reshape(n_engines, n_terms)
    suffix = np.cumsum(c_s[:, ::-1], axis=1)[:, ::-1]
    prev = np.hstack([np.zeros((n_engines, 1)), df_s[:, :-1]])
    with np.errstate(invalid="ignore"):
        pop = df_s - prev
        grid = []
        for t in thresholds:
            nodoc = np.zeros(n_engines)
            sim_sum = np.zeros(n_engines)
            for i in range(n_terms):
                cond = m_s[:, i] & (pop[:, i] > 0.0) & (suffix[:, i] > t)
                nodoc = nodoc + np.where(cond, pop[:, i], 0.0)
                sim_sum = sim_sum + np.where(
                    cond, pop[:, i] * suffix[:, i], 0.0
                )
            grid.append(_usefulness_row(nodoc, sim_sum))
    return grid


def _gloss_disjoint_grid(p, w, u, n, matched, thresholds):
    """Disjoint-assumption groups, accumulated in query-term order."""
    n_engines, n_terms = p.shape
    n_f = n.astype(np.float64)
    dfs = p * n_f[:, None]
    contrib = u[None, :] * w
    grid = []
    for t in thresholds:
        nodoc = np.zeros(n_engines)
        sim_sum = np.zeros(n_engines)
        for j in range(n_terms):
            cond = matched[:, j] & (contrib[:, j] > t) & (dfs[:, j] > 0.0)
            nodoc = nodoc + np.where(cond, dfs[:, j], 0.0)
            sim_sum = sim_sum + np.where(cond, dfs[:, j] * contrib[:, j], 0.0)
        grid.append(_usefulness_row(nodoc, sim_sum))
    return grid


def _usefulness_row(nodoc: np.ndarray, sim_sum: np.ndarray) -> List[Usefulness]:
    positive = nodoc > 0.0
    avgsim = np.where(positive, sim_sum / np.where(positive, nodoc, 1.0), 0.0)
    return [
        Usefulness(nodoc=(nd if ok else 0.0), avgsim=av)
        for nd, av, ok in zip(nodoc.tolist(), avgsim.tolist(), positive.tolist())
    ]
