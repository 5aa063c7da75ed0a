"""Batched usefulness estimation over a fleet store.

The paper's method is one generating-function expansion per (query,
database); this module computes many at once from a
:class:`~repro.representatives.columnar.FleetRepresentativeStore`.  The
kernel's rows are *(query, engine) pairs*: each query's gathered
``(engines, query terms)`` block is stacked (padded with unmatched columns
to the longest query), one numpy pass builds every row's polynomial
factors, and the read-outs run across the row axis.
:func:`fleet_usefulness_rows` answers a list of queries,
:func:`fleet_usefulness_grid` one query (the broker's call), and
:func:`fleet_tails` one query's full expansions, for read-outs at
thresholds not known up front (the allocation bisection).

The contract is *bit-identity with the scalar estimators*, which stay
public as the paper's reference algorithms and the test oracle:

* The expansion estimators share one batched polynomial kernel,
  :class:`~repro.core.genfunc.BatchedGenFunc` (see its docstring for the
  exactness argument): subrange factors come from one
  :meth:`SubrangeEstimator.factor_grid` pass, basic and
  binary-independence factors are two-point ``p * X^x + (1 - p)``.
* The previous method is the basic expansion over threshold-adjusted
  ``(p, w)`` pairs, so its kernel row is one (threshold, query, engine):
  the truncated-normal adjustment stays scalar per cell
  (:func:`~repro.core.prev_estimator.adjust_terms`), and each row reads
  its own threshold.
* The expansion is *threshold-aware*: after each query term a row drops
  the terms that could not exceed the smallest threshold it reads even if
  every later term added its largest factor exponent
  (:func:`_threshold_cuts`).  Read-outs stay bit-identical; only the kept
  term count (``estimator.genfunc.terms``) changes.
* A row whose matched factors' largest exponents, summed, cannot pass
  that threshold (:func:`_live_rows`) never enters the kernel: its cells
  of the output arrays stay exact zeros.  ``estimator.expansions`` counts
  kernel rows and ``estimator.rows.skipped`` the rest.
* The gGlOSS estimators are closed-form over sorted bands: a lexsort plus
  suffix cumulative sums in the scalar code's exact addition order.

Every kernel answers in arrays, never per-engine objects: a
``(nodoc, avgsim)`` pair of float64 arrays, ``(T, E)`` from
:func:`fleet_usefulness_grid` and ``(Q, T, E)`` from
:func:`fleet_usefulness_rows`, engines in ``store.engine_names`` order —
the values the scalar estimator's ``Usefulness`` would hold, bit for bit.

Each of the six estimator types has a kernel, matched on the exact type: a
subclass may override ``term_polynomial`` or ``estimate``, which a kernel
would silently ignore, so any other type is a ``TypeError``
(:func:`require_kernel`).  The one scalar step is *demotion*: a row whose
factor exponents are non-finite (or whose rounding would overflow float64)
is expanded with the scalar :meth:`GenFunc.product`, counted by
:func:`fallback_count` and the ``vectorized.scalar_demotions`` series.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import UsefulnessEstimator
from repro.core.basic_estimator import BasicEstimator
from repro.core.binary_estimator import BinaryIndependenceEstimator
from repro.core.genfunc import DECIMALS, BatchedGenFunc, GenFunc
from repro.core.gloss import GlossDisjointEstimator, GlossHighCorrelationEstimator
from repro.core.prev_estimator import PreviousMethodEstimator, adjust_terms
from repro.core.subrange_estimator import SubrangeEstimator
from repro.corpus.query import Query
from repro.obs.registry import LATENCY_BUCKETS, SIZE_BUCKETS
from repro.representatives.columnar import FleetRepresentativeStore

__all__ = [
    "fallback_count",
    "fleet_headroom",
    "fleet_tails",
    "fleet_usefulness_grid",
    "fleet_usefulness_rows",
    "require_kernel",
    "reset_fallback_count",
    "rules_out",
    "summary_rules_out",
]

#: Accumulated-exponent ceiling: ``np.round`` scales by ``10**DECIMALS``,
#: and past ``1e306`` after that scaling its intermediate product can
#: overflow to ``inf``, where the batched kernel's padded sort loses its
#: finite/in-row distinction.  Rows at or above it (or non-finite) are
#: demoted to the scalar path (still exact); float64 itself tops out near
#: 1.8e308.
_EXPONENT_CEILING = 1e306 / 10.0 ** DECIMALS

#: How many kernel rows were demoted to the scalar product because their
#: factor exponents were non-finite or overflow-adjacent.  Zero on every
#: sane representative; the fleet-scaling bench asserts it stays zero
#: through the whole sweep.
_SCALAR_DEMOTIONS = 0

#: A kernel's answer: ``(nodoc, avgsim)`` float64 arrays of one shape.
Estimates = Tuple[np.ndarray, np.ndarray]


def fallback_count() -> int:
    """Kernel rows demoted to the scalar product since the last reset."""
    return _SCALAR_DEMOTIONS


def reset_fallback_count() -> None:
    """Zero the demotion counter (benches call this before a sweep)."""
    global _SCALAR_DEMOTIONS
    _SCALAR_DEMOTIONS = 0


class _Rows(NamedTuple):
    """Stacked (query, engine) rows, row ``i * E + e`` being query ``i`` on
    engine ``e``: ``(R, W)`` statistics and query weights (a short query
    padded with unmatched columns), ``(R,)`` per-row constants."""

    p: np.ndarray
    w: np.ndarray
    sigma: np.ndarray
    mw: np.ndarray
    u: np.ndarray
    matched: np.ndarray
    n: np.ndarray
    binary_mean_w: np.ndarray
    n_terms: np.ndarray


def _gather_rows(store: FleetRepresentativeStore, queries: List[Query]) -> _Rows:
    """Each query's gathered ``(E, Q)`` block, stacked into (query, engine)
    rows and padded with unmatched columns to the longest query."""
    n_queries, n_engines = len(queries), len(store)
    widths = [len(q.terms) for q in queries]
    shape = (n_queries * n_engines, max(widths))
    p, w, sigma, u = np.zeros((4, *shape))
    mw = np.full(shape, np.nan)
    for i, (query, k) in enumerate(zip(queries, widths)):
        block = slice(i * n_engines, (i + 1) * n_engines)
        ids = store.vocab.ids_of(query.terms)
        p[block, :k], w[block, :k], sigma[block, :k], mw[block, :k] = store.gather(ids)
        u[block, :k] = query.normalized_weights()
    return _Rows(
        p=p, w=w, sigma=sigma, mw=mw, u=u, matched=p > 0.0,
        n=np.concatenate([store.n_documents] * n_queries),
        binary_mean_w=np.concatenate([store.binary_mean_w] * n_queries),
        n_terms=np.repeat(np.array(widths), n_engines),
    )


def require_kernel(estimator: UsefulnessEstimator) -> None:
    """``TypeError`` unless ``estimator``'s exact type has a batched kernel."""
    if type(estimator) not in _KERNELS:
        raise TypeError(f"{type(estimator).__name__} has no batched kernel")


def fleet_usefulness_rows(
    estimator: UsefulnessEstimator,
    store: FleetRepresentativeStore,
    queries: Sequence[Query],
    thresholds: Sequence[float],
) -> Estimates:
    """Usefulness of every engine in ``store`` for every query at every
    threshold, as one kernel call over (query, engine) rows.

    Returns:
        ``(nodoc, avgsim)``, each of shape ``(Q, T, E)``: cell ``[q, t,
        e]`` is the estimate for ``queries[q]``, ``thresholds[t]`` and
        engine ``store.engine_names[e]``, bit-identical to the scalar
        estimator (and to per-query :func:`fleet_usefulness_grid` calls);
        a row the whole-row bound rules out is exactly ``(0.0, 0.0)``.
        ``estimator`` must be one of the six kernel types
        (:func:`require_kernel`).
    """
    require_kernel(estimator)
    thresholds = [float(t) for t in thresholds]
    queries = list(queries)
    n_queries, n_engines = len(queries), len(store)
    if n_engines == 0 or not queries:
        empty = np.zeros((n_queries, len(thresholds), n_engines))
        return empty, empty.copy()
    flat = _KERNELS[type(estimator)](
        estimator, _gather_rows(store, queries), thresholds
    )
    shape = (len(thresholds), n_queries, n_engines)
    nodoc, avgsim = (a.reshape(shape).swapaxes(0, 1) for a in flat)
    return nodoc, avgsim


def fleet_usefulness_grid(
    estimator: UsefulnessEstimator,
    store: FleetRepresentativeStore,
    query: Query,
    thresholds: Sequence[float],
) -> Estimates:
    """:func:`fleet_usefulness_rows` for one query: ``(nodoc, avgsim)`` of
    shape ``(T, E)``."""
    nodoc, avgsim = fleet_usefulness_rows(estimator, store, [query], thresholds)
    return nodoc[0], avgsim[0]


def fleet_tails(
    estimator: UsefulnessEstimator,
    store: FleetRepresentativeStore,
    query: Query,
) -> Callable[[Sequence[float]], Tuple[np.ndarray, np.ndarray]]:
    """Every engine's full (uncut) expansion for ``query`` in one kernel
    call, as ``tails(thresholds) -> (mass, moment)`` of shape
    ``(len(thresholds), engines)``: the batch's
    :meth:`~repro.core.genfunc.BatchedGenFunc.tail_profile`, each column
    bit-identical to the scalar ``GenFunc.tail_profile``.  Expansion
    estimators only."""
    if type(estimator) not in _EXPANSIONS:
        raise TypeError(f"{type(estimator).__name__} has no full expansion")
    rows = _gather_rows(store, [query])
    floor = np.full(len(store), -np.inf)
    inputs = _EXPANSIONS[type(estimator)](estimator, rows)
    return _expand_live(estimator, *inputs, rows.n_terms, floor)[1]


# -- shared expansion machinery ----------------------------------------------


def _take(live: np.ndarray, n_rows: int, *arrays: np.ndarray) -> tuple:
    """``arrays`` restricted to the ``live`` rows (as is when all are)."""
    if live.size == n_rows:
        return arrays
    return tuple(a[live] for a in arrays)


def _unsafe_rows(exponent_bound: np.ndarray) -> np.ndarray:
    """Rows the batched kernel must not touch: worst-case accumulated
    exponent magnitude NaN, infinite, or at the rounding-overflow
    ceiling."""
    return ~(exponent_bound < _EXPONENT_CEILING)


def _report_expansions(registry, batch: BatchedGenFunc, seconds: float) -> None:
    """The ``estimator.*`` series of :meth:`ExpansionEstimator.expand`: one
    size observation per kernel row (a demoted row shows as the one-term
    identity its batch slot holds), the product's duration as one sample."""
    registry.counter("estimator.expansions").inc(batch.n_rows)
    registry.histogram(
        "estimator.expansion.seconds", buckets=LATENCY_BUCKETS
    ).observe(seconds)
    sizes = registry.histogram("estimator.genfunc.terms", buckets=SIZE_BUCKETS)
    for n_terms in batch.row_len.tolist():
        sizes.observe(n_terms)


def _demote_rows(est, rows, matched, factor_rows) -> Dict[int, GenFunc]:
    """Scalar ``GenFunc.product`` expansions of the demoted rows, over the
    very factors the batch would have multiplied, counted."""
    global _SCALAR_DEMOTIONS
    demoted = {}
    for r in rows.tolist():
        polys = []
        for j in np.nonzero(matched[r])[0].tolist():
            fexp, fcoef, flen = factor_rows(np.array([r]), j)
            width = fexp.shape[1] if flen is None else int(flen[0])
            polys.append((fexp[0, :width], fcoef[0, :width]))
        demoted[r] = GenFunc.product(polys)
    _SCALAR_DEMOTIONS += len(demoted)
    est.registry.counter("vectorized.scalar_demotions").inc(len(demoted))
    return demoted


def _no_tails(thresholds):
    """The ``(mass, moment)`` tails of no rows at all."""
    return (np.empty((len(thresholds), 0)),) * 2


def _readout(n, mass, moment, live, n_rows) -> Estimates:
    """``(nodoc, avgsim)`` over ``n_rows`` rows (last axis): the ``live``
    rows from their tails (scalar-identical ``nodoc = n * mass`` /
    ``avgsim = moment / mass`` arithmetic), every other row exactly zero."""
    nodoc = np.zeros(mass.shape[:-1] + (n_rows,))
    avgsim = np.zeros_like(nodoc)
    positive = mass > 0.0
    nodoc[..., live] = n.astype(np.float64) * mass
    avgsim[..., live] = np.where(
        positive, moment / np.where(positive, mass, 1.0), 0.0
    )
    return nodoc, avgsim


def _cut_floor(thresholds: List[float]) -> float:
    """The smallest threshold read: NaN reads an empty tail and is
    ignored; ``+inf`` when no threshold is a number."""
    return min((t for t in thresholds if t == t), default=float("inf"))


def _cut_margin(n_terms, bound: np.ndarray, floor) -> np.ndarray:
    """Per-row rounding-drift margin of the threshold cut (derived in
    :func:`_threshold_cuts`)."""
    unit = 10.0 ** -DECIMALS
    return (n_terms + 2) * (4.0 * unit + 1e-12 * (1.0 + bound + np.abs(floor)))


def rules_out(total, bound, n_terms, floor, slack: float = 1.0) -> np.ndarray:
    """The whole-row rule: a row whose headroom sums to ``total`` reads
    the empty tail ``(0.0, 0.0)`` at every threshold ``>= floor`` when
    ``total <= floor - slack * margin`` (:func:`_cut_margin` of the row's
    term count ``n_terms`` and magnitude sum ``bound``).  A NaN or
    infinite ``floor`` never rules out, and a NaN ``total`` compares
    false.  The kernel applies it with ``slack = 1``
    (:func:`_live_rows`); a coarser bound over many rows applies it
    through :func:`summary_rules_out`."""
    finite = np.isfinite(floor)
    at = np.where(finite, floor, 0.0)
    return finite & (total <= at - slack * _cut_margin(n_terms, bound, at))


def _live_rows(matched, headroom, bound, n_terms, floor) -> np.ndarray:
    """Indices of the rows that may read a non-empty tail.

    A row is dead when even its initial ``1 * X^0`` term falls at or
    below the cut before the first multiply: ``sum(headroom) <= floor -
    margin``, the cut of :func:`_threshold_cuts` with every term still to
    come.  Then no term of its expansion can exceed ``floor``, so every
    read at ``T >= floor`` (or NaN) is the empty tail ``(0.0, 0.0)`` —
    the argument of :class:`~repro.core.genfunc.BatchedGenFunc`'s cut,
    applied one step earlier.  A NaN sum compares false and stays live
    (the demotion path sees it); a row with a non-finite floor is kept.
    """
    if not np.isfinite(floor).any():
        return np.arange(matched.shape[0])
    total = np.where(matched, headroom, 0.0).sum(axis=1)
    return np.nonzero(~rules_out(total, bound, n_terms, floor))[0]


def _threshold_cuts(matched, headroom, bound, n_terms, floor):
    """Per ``(row, term)`` cut for the threshold-aware expansion (see
    :class:`BatchedGenFunc`), or ``None`` when nothing may be cut.

    After term ``j`` a row's cut is ``floor - H_j - margin``:

    * ``floor`` is the smallest threshold the row reads.  NaN and ``+inf``
      read an empty tail and constrain nothing; a ``-inf`` threshold (or
      none finite) reads everything, so the row is not cut (``-inf``).
    * ``H_j`` sums ``headroom`` — at least each matched factor's largest
      exponent — over the terms after ``j``.
    * ``margin = (Q + 2) * (4 * 10**-d + 1e-12 * (1 + bound + |floor|))``
      for the row's ``Q``-term query and ``d = DECIMALS``.  One multiply
      moves a value by its factor exponent plus at most ``10**-d / 2`` of
      rounding plus a few float ulps (``<= 5 * 2**-53`` relative to
      magnitudes ``<= bound + Q * 10**-d``); summing ``H_j`` and computing
      the cut itself err by a few more relative ulps.  Per remaining step
      ``4 * 10**-d`` covers the rounding and ``1e-12`` relative covers
      every ulp term with room to spare, so a term at or below its cut
      ends at or below ``floor``.
    """
    finite = np.isfinite(floor)
    if not finite.any():
        return None
    at = np.where(finite, floor, 0.0)
    margin = _cut_margin(n_terms, bound, at)
    head = np.where(matched, headroom, 0.0)
    after = np.zeros_like(head)
    after[:, :-1] = np.cumsum(head[:, :0:-1], axis=1)[:, ::-1]
    # Finite on every vectorizable row; demoted rows (non-finite bound or
    # headroom) never reach the kernel.
    cuts = at[:, None] - after - margin[:, None]
    cuts[~finite] = -np.inf
    return cuts


def _expand_live(est, matched, headroom, magnitude, factors, n_terms, floor):
    """``(live, tails)``: the rows the whole-row bound leaves live and
    ``tails(thresholds) -> (mass, moment)`` over their expansion.
    ``headroom`` / ``magnitude`` bound each factor's largest exponent /
    ``|exponent|``; ``floor`` is each row's smallest threshold read;
    ``factors(live)`` returns ``factor_rows(rows, j)``, term ``j``'s
    ``(exponents, coeffs, lengths)`` for the live-row indices ``rows``."""
    n_rows = matched.shape[0]
    bound = np.where(matched, magnitude, 0.0).sum(axis=1)
    live = _live_rows(matched, headroom, bound, n_terms, floor)
    if not est.registry.null:
        est.registry.counter("estimator.rows.skipped").inc(n_rows - live.size)
    if live.size == 0:
        return live, _no_tails
    matched, headroom, bound, n_terms, floor = _take(
        live, n_rows, matched, headroom, bound, n_terms, floor
    )
    factor_rows = factors(live)
    started = time.perf_counter()
    demoted = _unsafe_rows(bound)
    vectorizable = ~demoted
    cuts = _threshold_cuts(matched, headroom, bound, n_terms, floor)

    def term_factors():
        for j in range(matched.shape[1]):
            rows = np.nonzero(matched[:, j] & vectorizable)[0]
            if rows.size:
                yield (
                    rows, *factor_rows(rows, j),
                    None if cuts is None else cuts[rows, j],
                )

    batch = BatchedGenFunc.product(live.size, term_factors())
    scalar = {}
    if demoted.any():
        scalar = _demote_rows(
            est, np.nonzero(demoted)[0], matched, factor_rows
        )
    if not est.registry.null:
        _report_expansions(est.registry, batch, time.perf_counter() - started)

    def tails(thresholds):
        mass, moment = batch.tail_profile(thresholds)
        for r, expansion in scalar.items():
            mass[:, r], moment[:, r] = expansion.tail_profile(thresholds)
        return mass, moment

    return live, tails


def _expansion_grid(est, rows: _Rows, thresholds: List[float]):
    """An expansion estimator: every row reads every threshold."""
    n_rows = rows.p.shape[0]
    floor = np.full(n_rows, _cut_floor(thresholds))
    live, tails = _expand_live(
        est, *_EXPANSIONS[type(est)](est, rows), rows.n_terms, floor
    )
    mass, moment = tails(thresholds)
    return _readout(rows.n[live], mass, moment, live, n_rows)


# -- subrange: batched factor tensor -----------------------------------------


def _subrange_inputs(est, rows: _Rows):
    """All subrange factors from one :meth:`SubrangeEstimator.factor_grid`
    pass.  Query weights are positive, so a factor's largest exponent and
    largest ``|exponent|`` are both ``u * mw_eff`` (singleton, clipped
    medians and a miss slot at 0)."""
    top = rows.u * est.effective_max(rows.w, rows.sigma, rows.mw)

    def factors(live):
        p, w, sigma, mw, u, n = _take(
            live, rows.p.shape[0], rows.p, rows.w, rows.sigma, rows.mw,
            rows.u, rows.n,
        )
        tensors = est.factor_grid(p, w, sigma, mw, u, n)
        n_sub = est._offsets.size
        return lambda kernel_rows, j: _subrange_factor_rows(
            *tensors, kernel_rows, j, n_sub
        )

    return rows.matched, top, top, factors


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


# -- basic / binary / prev: two-point factors --------------------------------


def _two_point_inputs(x, p, matched):
    """The two-point factors ``p * X^x + (1-p)`` (basic, binary, prev)."""

    def factors(live):
        xs, ps = _take(live, x.shape[0], x, p)

        def factor_rows(rows, j):
            fexp = np.zeros((rows.size, 2))
            fexp[:, 0] = xs[rows, j]
            fcoef = np.empty((rows.size, 2))
            fcoef[:, 0] = ps[rows, j]
            fcoef[:, 1] = 1.0 - ps[rows, j]
            return fexp, fcoef, None  # every row uses the full width

        return factor_rows

    return matched, np.maximum(x, 0.0), np.abs(x), factors


def _prev_grid(est, rows: _Rows, thresholds: List[float]):
    """The previous method: kernel row ``t * R + r`` is row ``r`` at
    ``thresholds[t]``, expanded over the :func:`adjust_terms` pairs with
    ``adjusted_p > 0`` (as the scalar estimator), read at its own T."""
    n_rows, width = rows.p.shape
    n_thresholds = len(thresholds)
    adjusted_p = np.zeros((n_thresholds * n_rows, width))
    adjusted_w = np.zeros((n_thresholds * n_rows, width))
    u, p, w, sigma = (a.tolist() for a in (rows.u, rows.p, rows.w, rows.sigma))
    for r, matched in enumerate(rows.matched.tolist()):
        cols = [j for j, hit in enumerate(matched) if hit]
        if not cols:
            continue
        terms = [(u[r][j], p[r][j], w[r][j], sigma[r][j]) for j in cols]
        for t, pairs in enumerate(adjust_terms(terms, thresholds)):
            kernel_row = t * n_rows + r
            for j, (ap, aw) in zip(cols, pairs):
                adjusted_p[kernel_row, j] = ap
                adjusted_w[kernel_row, j] = aw
    x = np.tile(rows.u, (n_thresholds, 1)) * adjusted_w
    floor = np.repeat(thresholds, n_rows)  # NaN, like inf: nothing is cut
    live, tails = _expand_live(
        est, *_two_point_inputs(x, adjusted_p, ~(adjusted_p <= 0.0)),
        np.tile(rows.n_terms, n_thresholds), floor,
    )
    mass, moment = tails(thresholds)
    own, cols = live // n_rows, np.arange(live.size)
    nodoc, avgsim = _readout(
        np.tile(rows.n, n_thresholds)[live], mass[own, cols],
        moment[own, cols], live, n_thresholds * n_rows,
    )
    return (
        nodoc.reshape(n_thresholds, n_rows), avgsim.reshape(n_thresholds, n_rows)
    )


# -- gGlOSS ------------------------------------------------------------------


def _gloss_hc_grid(est, rows: _Rows, thresholds: List[float]):
    """High-correlation bands across the row axis.

    Matched terms sort per row by ``(df, u, w)`` ascending with original
    position as the final tiebreak — the exact order Python's stable tuple
    sort produces in the scalar estimator.  Unmatched terms (padding
    included) sort last (``df = inf``) with zero contributions, so the
    suffix-similarity chain accumulates in the scalar order with bit-inert
    +0.0 prefixes.
    """
    p, w, u, matched = rows.p, rows.w, rows.u, rows.matched
    n_rows, n_terms = p.shape
    dfs = p * rows.n.astype(np.float64)[:, None]
    df_key = np.where(matched, dfs, np.inf)
    u_key = np.where(matched, u, 0.0)
    w_key = np.where(matched, w, 0.0)
    row = np.repeat(np.arange(n_rows), n_terms)
    col = np.tile(np.arange(n_terms), n_rows)
    order = np.lexsort(
        (col, w_key.ravel(), u_key.ravel(), df_key.ravel(), row)
    )
    df_s = df_key.ravel()[order].reshape(n_rows, n_terms)
    c_s = np.where(matched, u * w, 0.0).ravel()[order].reshape(n_rows, n_terms)
    m_s = matched.ravel()[order].reshape(n_rows, n_terms)
    suffix = np.cumsum(c_s[:, ::-1], axis=1)[:, ::-1]
    prev = np.hstack([np.zeros((n_rows, 1)), df_s[:, :-1]])
    nodoc = np.zeros((len(thresholds), n_rows))
    sim_sum = np.zeros((len(thresholds), n_rows))
    with np.errstate(invalid="ignore"):
        pop = df_s - prev
        for k, t in enumerate(thresholds):
            for i in range(n_terms):
                cond = m_s[:, i] & (pop[:, i] > 0.0) & (suffix[:, i] > t)
                nodoc[k] += np.where(cond, pop[:, i], 0.0)
                sim_sum[k] += np.where(cond, pop[:, i] * suffix[:, i], 0.0)
    return _gloss_readout(nodoc, sim_sum)


def _gloss_disjoint_grid(est, rows: _Rows, thresholds: List[float]):
    """Disjoint-assumption groups, accumulated in query-term order."""
    n_rows, n_terms = rows.p.shape
    dfs = rows.p * rows.n.astype(np.float64)[:, None]
    contrib = rows.u * rows.w
    nodoc = np.zeros((len(thresholds), n_rows))
    sim_sum = np.zeros((len(thresholds), n_rows))
    for k, t in enumerate(thresholds):
        for j in range(n_terms):
            cond = rows.matched[:, j] & (contrib[:, j] > t) & (dfs[:, j] > 0.0)
            nodoc[k] += np.where(cond, dfs[:, j], 0.0)
            sim_sum[k] += np.where(cond, dfs[:, j] * contrib[:, j], 0.0)
    return _gloss_readout(nodoc, sim_sum)


def _gloss_readout(nodoc: np.ndarray, sim_sum: np.ndarray) -> Estimates:
    """The arithmetic of the scalar ``_usefulness_from_groups``: ``avgsim =
    sim_sum / nodoc`` where ``nodoc > 0``, both exactly zero elsewhere."""
    positive = nodoc > 0.0
    avgsim = np.where(positive, sim_sum / np.where(positive, nodoc, 1.0), 0.0)
    return np.where(positive, nodoc, 0.0), avgsim


#: The expansion estimators' per-row factor inputs, by exact type.
_EXPANSIONS = {
    SubrangeEstimator: _subrange_inputs,
    BasicEstimator: lambda est, rows: _two_point_inputs(
        rows.u * rows.w, rows.p, rows.matched
    ),
    BinaryIndependenceEstimator: lambda est, rows: _two_point_inputs(
        rows.u * rows.binary_mean_w[:, None], rows.p, rows.matched
    ),
}

#: Per packed entry, what bounds ``|exponent| / u`` of a matched factor
#: (its magnitude per unit query weight, which also bounds its headroom),
#: by exact type: ``bound(estimator, store, entries)``.  Only the
#: expansion kernels have a whole-row bound; the previous method (whose
#: factors depend on the threshold) and gGlOSS have no summary.
_HEADROOM = {
    SubrangeEstimator: lambda est, store, entries: est.effective_max(
        entries.w, entries.sigma, entries.mw
    ),
    BasicEstimator: lambda est, store, entries: np.abs(entries.w),
    BinaryIndependenceEstimator: lambda est, store, entries: np.abs(
        store.binary_mean_w[entries.engine_idx]
    ),
}


def fleet_headroom(
    estimator: UsefulnessEstimator,
    store: FleetRepresentativeStore,
    terms: Optional[Sequence[str]] = None,
) -> Optional[Dict[str, float]]:
    """The store's *headroom summary*: for each term, the largest
    per-unit-weight bound on a matched factor's ``|exponent|`` over the
    store's engines — ``mw_eff`` for subrange, ``|w|`` for basic, the
    engine's ``|mean w|`` for binary independence (a NaN bound stays
    NaN).  One ``np.maximum.reduceat`` over the store's term-major
    entries.

    For a query with normalized weights ``u``, ``sum_j u_j * H[term_j]``
    is at least every engine's kernel headroom sum *and* magnitude sum
    (:func:`_expand_live`'s ``total`` and ``bound``), so
    :func:`summary_rules_out` applied to it rules out only rows the
    kernel's own :func:`rules_out` rules out.

    Returns:
        ``None`` when ``estimator`` has no whole-row bound (the previous
        method, gGlOSS).  Otherwise every term holding an entry, or with
        ``terms``, exactly those terms (``0.0`` for one no engine holds).
    """
    bound = _HEADROOM.get(type(estimator))
    if bound is None:
        return None
    entries = store.term_entries(
        None if terms is None else store.vocab.ids_of(terms)
    )
    top = np.zeros(entries.terms.size)
    if entries.p.size:
        per_entry = np.where(
            entries.p > 0.0, bound(estimator, store, entries), 0.0
        )
        top = np.maximum.reduceat(per_entry, entries.starts)
    summary = dict(
        zip(map(store.vocab.term_of, entries.terms.tolist()), top.tolist())
    )
    if terms is None:
        return summary
    return {term: summary.get(term, 0.0) for term in terms}


def summary_rules_out(totals, n_terms, floors) -> np.ndarray:
    """:func:`rules_out` for a headroom summary's sums ``totals``
    (``sum_j u_j * H[term_j]`` per query, see :func:`fleet_headroom`),
    which stand in for both the headroom and the magnitude sum.

    Each engine's sums are at most ``totals`` — ``u * H``, sums of
    non-negative terms and :func:`_cut_margin` are all monotone — except
    that a different summation order moves a sum by ulps (at most ``Q *
    2**-53`` relative).  The margin is taken twice to cover that: one
    margin is at least ``1e-12`` relative to ``1 + bound``, four orders
    of magnitude above any ulp drift.  ``totals`` at or above half the
    demotion ceiling never rule out, so no ruled-out row needs the scalar
    path.  A row ruled out here is ``(0.0, 0.0)`` at every threshold
    ``>= floors``, whatever smaller threshold the kernel call also reads.
    """
    safe = totals < _EXPONENT_CEILING / 2.0
    return safe & rules_out(totals, totals, n_terms, floors, slack=2.0)


#: Every estimator type's kernel: ``kernel(estimator, rows, thresholds)``
#: returns ``(nodoc, avgsim)`` of shape ``(T, R)`` over the stacked
#: (query, engine) rows.
_KERNELS = {
    **dict.fromkeys(_EXPANSIONS, _expansion_grid),
    PreviousMethodEstimator: _prev_grid,
    GlossHighCorrelationEstimator: _gloss_hc_grid,
    GlossDisjointEstimator: _gloss_disjoint_grid,
}
