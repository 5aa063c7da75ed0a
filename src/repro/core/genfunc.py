"""Sparse probability generating functions with real exponents.

Expression (3) of the paper is a product of per-term polynomials in a dummy
variable ``X`` whose exponents are similarity contributions and whose
coefficients are probabilities.  After full expansion (Expression (5)),

* the coefficient of ``X^s`` is the probability that a random document of
  the database has similarity ``s`` with the query (Proposition 1);
* ``est_NoDoc(T) = n * sum of coefficients with exponent > T`` (Eq. 6);
* ``est_AvgSim(T)`` is the coefficient-weighted mean of those exponents.

Exponents are arbitrary reals (products of query and document weights), so a
:class:`GenFunc` stores parallel sorted numpy arrays.  Each multiplication
rounds exponents to :data:`DECIMALS` places before merging — otherwise
floating-point noise would keep equal similarities apart and the term count
would grow multiplicatively.  Nothing else is dropped: the coefficients of a
full product sum to 1.

Tail read-outs (``tail_mass``, ``tail_first_moment`` and the vectorized
:meth:`GenFunc.tail_profile`) all read from one lazily built pair of suffix
cumulative-sum arrays, so answering every threshold of a grid costs one
``searchsorted`` plus array indexing — and the single-threshold and
many-threshold paths return bit-identical values by construction.

:class:`BatchedGenFunc` can also expand *threshold-aware*: a per-row
``cut`` drops, after each multiply, every merged term that can no longer
exceed the smallest threshold the caller will read, because even the
largest exponent of every remaining factor would not lift it past.  Terms
at or below a threshold are never read (Eq. 6 sums the exponents ``> T``),
so the cut is exact, not an approximation: every tail read at or above
that threshold is bit-identical to the full expansion's.  The dropped
probability goes to :attr:`BatchedGenFunc.cut_mass`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BatchedGenFunc", "GenFunc"]

#: Decimal places every product exponent is rounded to before merging.
#: One precision for every expansion: similarities are Cosine scores in
#: [0, 1], so 8 places keep distinct similarities apart while merging the
#: float noise of equal ones.
DECIMALS = 8

#: Batched kernels partition rows into power-of-two width buckets (see
#: BatchedGenFunc); rows at or below 2**_BUCKET_MIN_EXP wide share one
#: bucket — at that size numpy per-call overhead outweighs padding waste.
_BUCKET_MIN_EXP = 4

#: Most spare terms an arena repack leaves for later products: more would
#: only raise a wide expansion's peak memory.
_ARENA_SLACK = 1 << 16

#: Width buckets holding at most this many rows run the scalar merge
#: pipeline row by row instead of the padded batch kernel: for a
#: near-empty bucket (typically one very wide outlier engine) the plain
#: round->unique->bincount sequence is fewer array passes.
_ROWWISE_BLOCK_ROWS = 4


class GenFunc:
    """An expanded generating function: sum of ``coeff * X^exponent`` terms.

    Invariants: ``exponents`` is strictly ascending, ``coeffs`` is
    non-negative, and ``coeffs.sum() ~= 1`` once built from a full product
    of per-term probability polynomials.
    """

    __slots__ = ("exponents", "coeffs", "_tails")

    def __init__(self, exponents, coeffs):
        exponents = np.asarray(exponents, dtype=float)
        coeffs = np.asarray(coeffs, dtype=float)
        if exponents.ndim != 1 or coeffs.ndim != 1:
            raise ValueError("exponents and coeffs must be 1-D")
        if exponents.shape != coeffs.shape:
            raise ValueError("exponents and coeffs must have equal length")
        if exponents.size > 1 and not np.all(np.diff(exponents) > 0):
            raise ValueError("exponents must be strictly ascending")
        if np.any(coeffs < 0):
            raise ValueError("coefficients must be non-negative")
        self.exponents = exponents
        self.coeffs = coeffs
        self._tails = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def one(cls) -> "GenFunc":
        """The multiplicative identity ``1 * X^0``."""
        return cls(np.zeros(1), np.ones(1))

    @classmethod
    def from_terms(
        cls, exponents: Sequence[float], coeffs: Sequence[float]
    ) -> "GenFunc":
        """Build from unsorted, possibly duplicated ``(exponent, coeff)``
        terms, merging duplicates by summing coefficients."""
        exponents = np.asarray(exponents, dtype=float)
        coeffs = np.asarray(coeffs, dtype=float)
        merged_exp, inverse = np.unique(exponents, return_inverse=True)
        merged_coef = np.bincount(inverse, weights=coeffs, minlength=merged_exp.size)
        return cls(merged_exp, merged_coef)

    # -- properties ----------------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return int(self.exponents.size)

    def total_mass(self) -> float:
        """Sum of all coefficients."""
        return float(self.coeffs.sum())

    def max_exponent(self) -> float:
        """Largest exponent with non-zero coefficient (-inf when empty)."""
        return float(self.exponents[-1]) if self.exponents.size else float("-inf")

    # -- the core operation ------------------------------------------------------------

    def multiplied(
        self,
        factor_exponents: Sequence[float],
        factor_coeffs: Sequence[float],
    ) -> "GenFunc":
        """Multiply by a per-term polynomial and re-merge (exponents of the
        product rounded to :data:`DECIMALS` places).

        Args:
            factor_exponents: Exponents of the factor polynomial (need not be
                sorted or distinct, but must be non-empty).
            factor_coeffs: Coefficients, parallel to ``factor_exponents``.

        Returns:
            A new :class:`GenFunc`; the receiver is unchanged.
        """
        fexp = np.asarray(factor_exponents, dtype=float)
        fcoef = np.asarray(factor_coeffs, dtype=float)
        if fexp.shape != fcoef.shape or fexp.ndim != 1:
            raise ValueError("factor arrays must be parallel 1-D arrays")
        if fexp.size == 0:
            # The zero polynomial would annihilate the product and break
            # the ``mass ~= 1`` invariant.  A per-term probability
            # polynomial is never empty: it always carries at least the
            # (0, 1-p) miss term.
            raise ValueError(
                "factor polynomial must be non-empty (a per-term polynomial "
                "always carries its (0, 1-p) term)"
            )
        # ``+ 0.0`` canonicalizes signed zeros (-0.0 -> +0.0) and is the
        # identity on every other finite value.  Without it, a merge group
        # holding both zero bit patterns would keep whichever one the
        # unstable sort left first — the lone case where "group by value"
        # admits more than one representative bit pattern.
        product_exp = (
            np.round((self.exponents[:, None] + fexp[None, :]).ravel(), DECIMALS)
            + 0.0
        )
        product_coef = (self.coeffs[:, None] * fcoef[None, :]).ravel()
        merged_exp, inverse = np.unique(product_exp, return_inverse=True)
        merged_coef = np.bincount(
            inverse, weights=product_coef, minlength=merged_exp.size
        )
        return GenFunc(merged_exp, merged_coef)

    @classmethod
    def product(
        cls, polynomials: Sequence[Tuple[Sequence[float], Sequence[float]]]
    ) -> "GenFunc":
        """Expand a full product of per-term ``(exponents, coeffs)``
        polynomials (Expression (3))."""
        result = cls.one()
        for exponents, coeffs in polynomials:
            result = result.multiplied(exponents, coeffs)
        return result

    # -- usefulness read-out -------------------------------------------------------------

    def _tail_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Suffix cumulative sums of coefficients and first moments.

        Built lazily on first read-out and cached (instances are immutable
        once constructed), so a whole threshold grid is answered from one
        cumulative-sum pass.  Index ``i`` holds the sum over terms ``i..n``;
        index ``n`` is 0 — the empty tail.
        """
        if self._tails is None:
            mass = np.zeros(self.coeffs.size + 1)
            moment = np.zeros(self.coeffs.size + 1)
            if self.coeffs.size:
                mass[:-1] = np.cumsum(self.coeffs[::-1])[::-1]
                moment[:-1] = np.cumsum(
                    (self.coeffs * self.exponents)[::-1]
                )[::-1]
            self._tails = (mass, moment)
        return self._tails

    def tail_mass(self, threshold: float) -> float:
        """Probability that a document's similarity exceeds ``threshold``."""
        start = int(np.searchsorted(self.exponents, threshold, side="right"))
        return float(self._tail_arrays()[0][start])

    def tail_first_moment(self, threshold: float) -> float:
        """Expected similarity restricted to similarities above ``threshold``
        (i.e. sum of ``coeff * exponent`` over the tail)."""
        start = int(np.searchsorted(self.exponents, threshold, side="right"))
        return float(self._tail_arrays()[1][start])

    def tail_profile(
        self, thresholds: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Tail mass and tail first moment for a whole threshold grid.

        Thresholds are sorted once, located with a single vectorized
        ``searchsorted``, and every tail is read off the shared suffix
        cumulative-sum arrays — so the values are bit-identical to calling
        :meth:`tail_mass` / :meth:`tail_first_moment` per threshold.

        Returns:
            ``(mass, moment)`` arrays parallel to ``thresholds``.
        """
        grid = np.asarray(thresholds, dtype=float)
        order = np.argsort(grid, kind="stable")
        starts = np.empty(grid.size, dtype=np.intp)
        starts[order] = np.searchsorted(
            self.exponents, grid[order], side="right"
        )
        mass, moment = self._tail_arrays()
        return mass[starts], moment[starts]

    def est_nodoc(self, threshold: float, n_documents: int) -> float:
        """Equation (6): expected number of documents above ``threshold``."""
        return n_documents * self.tail_mass(threshold)

    def est_avgsim(self, threshold: float) -> float:
        """Expected average similarity of the documents above ``threshold``;
        0 when the tail carries no probability mass."""
        mass = self.tail_mass(threshold)
        if mass <= 0.0:
            return 0.0
        return self.tail_first_moment(threshold) / mass

    def __repr__(self) -> str:
        return f"GenFunc(terms={self.n_terms}, mass={self.total_mass():.6f})"


class BatchedGenFunc:
    """A ragged batch of generating functions advanced in lock-step.

    Each row is one :class:`GenFunc` state, stored as padded 2-D arrays so
    a whole fleet of expansions moves through one numpy call per query
    term instead of one Python loop per engine.  There is one expansion
    mode: exact up to the :data:`DECIMALS` rounding, and optionally cut at
    the smallest threshold read.  The contract is *bit-identity per row*:
    every operation replicates the scalar methods' float arithmetic
    operation-for-operation —

    * :meth:`multiply_rows` reproduces :meth:`GenFunc.multiplied`'s
      ``round → unique → bincount`` merge.  Product entries are rounded
      with the same elementwise ``np.round``, grouped by exponent *value*
      (exactly ``np.unique``'s equivalence — no integer-key detour, so
      exponents past ``2**53 / 10**DECIMALS`` stay exact), and each
      group's coefficients are accumulated by ``np.bincount`` in the
      original (state-major) product order — the
      precise addition sequence the scalar merge runs.  The per-row sort
      that finds the groups is an unstable quicksort: group membership
      depends only on the rounded values, and bincount reads the
      coefficients in product order whatever the sort did with ties.
    * :meth:`tail_profile` reads every row's tails off one pair of suffix
      cumulative sums over padded rows whose pads are additive
      identities (``+0.0`` for the mass, ``-0.0`` for the moment) — the
      values :meth:`GenFunc.tail_profile` returns per row.

    **The threshold cut.**  :meth:`multiply_rows` optionally takes a
    per-row ``cut``: after the merge, entries with exponent ``<= cut``
    are dropped and their coefficients added to :attr:`cut_mass`, so
    ``mass + cut_mass ~= 1`` still holds.  The caller
    (:mod:`repro.core.vectorized`) sets ``cut`` to
    ``floor - headroom - margin``, where ``floor`` is the smallest
    threshold it will read, ``headroom`` the sum of every *later* factor's
    largest exponent for the row, and ``margin`` a bound on the rounding
    drift of the remaining multiplies.  Then every tail read at a
    threshold ``T >= floor`` is bit-identical to the uncut expansion's:

    * Each later multiply adds at most that factor's largest exponent
      (``>= 0``: every factor carries its miss term at exponent 0), and
      ``fl(+)`` and ``np.round`` are monotone.  So a term's final
      exponent is at most its value now, plus the headroom, plus the
      drift — a dropped term (value ``<= cut``) has only descendants
      ``<= floor``, which no read at ``T >= floor`` includes.
    * Hence a final term above ``T`` has only ancestors that were above
      their cut: all of them were kept, with the same bits (induction
      over the multiplies).  Its merge group has the same members in the
      same state-major order — dropping a state term removes all of its
      product entries and reorders none of the others — so
      ``np.bincount`` runs the same additions in the same order.
    * A kept term with a *dropped* ancestor (its coefficient lost that
      ancestor's share) is itself a descendant of a dropped term: it can
      never pass ``T``, so it is never read.
    * The tail above ``T`` is therefore the same set of entries, and the
      suffix sums run from the row's end, so they add the same terms in
      the same order; only how many entries sit below the tail changed.

    The cut only has to be *conservative*: keeping an extra term is exact,
    dropping a term whose descendants can pass ``floor`` is not.  It
    changes which terms are kept, not the tails above ``floor``:
    ``row_len`` counts the kept terms.

    Factor exponents must be finite: the padded sort uses ``inf`` as the
    out-of-row sentinel, so rows whose factors carry non-finite exponents
    (or whose rounding would overflow to ``inf``) must be routed through
    the scalar :class:`GenFunc` instead — see
    :func:`repro.core.vectorized.fallback_count`.
    """

    __slots__ = (
        "exponents", "coeffs", "starts", "row_len", "tail", "cut_mass",
    )

    def __init__(
        self,
        exponents: np.ndarray,
        coeffs: np.ndarray,
        starts: np.ndarray,
        row_len: np.ndarray,
        tail: Optional[int] = None,
    ):
        self.exponents = exponents
        self.coeffs = coeffs
        self.starts = starts
        self.row_len = row_len
        self.tail = int(exponents.size) if tail is None else tail
        self.cut_mass = np.zeros(row_len.size)

    @classmethod
    def ones(cls, n_rows: int) -> "BatchedGenFunc":
        """``n_rows`` copies of the multiplicative identity ``1 * X^0``."""
        if n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {n_rows!r}")
        # The arena starts with headroom so the first few products append
        # without a compaction pass (see _write_blocks).
        cap = max(64 * n_rows, 1024)
        exponents = np.zeros(cap)
        coeffs = np.zeros(cap)
        coeffs[:n_rows] = 1.0
        return cls(
            exponents=exponents,
            coeffs=coeffs,
            starts=np.arange(n_rows, dtype=np.int64),
            row_len=np.ones(n_rows, dtype=np.int64),
            tail=n_rows,
        )

    @property
    def n_rows(self) -> int:
        return int(self.row_len.size)

    def row(self, r: int) -> GenFunc:
        """Row ``r`` as a scalar :class:`GenFunc` (compressed copy)."""
        start = int(self.starts[r])
        length = int(self.row_len[r])
        return GenFunc(
            self.exponents[start : start + length].copy(),
            self.coeffs[start : start + length].copy(),
        )

    # -- ragged storage ------------------------------------------------------
    #
    # Rows live packed in flat 1-D arrays (CSR-style: `starts` + `row_len`).
    # Expansion widths are heavily skewed in practice — one engine's
    # polynomial can be orders of magnitude wider than the fleet median —
    # so a padded (rows, max_width) block would spend almost all its work
    # on padding.  Kernels instead gather power-of-two width buckets into
    # small padded blocks (padding waste bounded at 2x) and hand back
    # CSR-packed results that append at the arena tail as contiguous
    # slice copies.

    @staticmethod
    def _positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """Flat positions of the given ragged rows, row-major."""
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        first = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=first[1:])
        return np.repeat(starts - first[:-1], lens) + np.arange(total)

    def _gather(
        self, rows: np.ndarray, width: int, lens: np.ndarray,
        pad_exp: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The state of ``rows`` as padded ``(len(rows), width)`` blocks
        (``width`` must be ``>= lens.max()``).  Padding coefficients are
        always ``0.0`` (an additive identity); padding *exponents* default
        to ``0.0`` but callers that sort by exponent pass ``np.inf`` so the
        padding self-sorts behind every real entry with no extra mask."""
        span = np.arange(width)
        mask = span[None, :] < lens[:, None]
        idx = np.where(mask, self.starts[rows][:, None] + span[None, :], 0)
        return (
            np.where(mask, self.exponents[idx], pad_exp),
            np.where(mask, self.coeffs[idx], 0.0),
        )

    def _write_blocks(
        self,
        blocks: Sequence[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ],
    ) -> None:
        """Replace the state of each block's rows; other rows untouched.

        ``blocks`` holds ``(rows, exp_flat, coef_flat, len_sub)`` tuples
        with disjoint row sets; the flat arrays are the rows' new values
        CSR-packed row-major.  Each block's rows are *appended* at the
        arena tail and their ``starts`` repointed — the packed values land
        as two contiguous slice copies, untouched rows are never moved,
        and the abandoned segments stay as dead space until the arena runs
        out and :meth:`_compact_arena` repacks the live rows (amortized:
        one compaction per few products, instead of one full rebuild per
        multiply).
        """
        if not blocks:
            return
        total_new = sum(int(len_sub.sum()) for __, __, __, len_sub in blocks)
        if self.tail + total_new > self.exponents.size:
            self._compact_arena(total_new)
        base = self.tail
        for rows, exp_flat, coef_flat, len_sub in blocks:
            bounds = np.zeros(len_sub.size + 1, dtype=np.int64)
            np.cumsum(len_sub, out=bounds[1:])
            total = int(bounds[-1])
            self.exponents[base : base + total] = exp_flat
            self.coeffs[base : base + total] = coef_flat
            self.starts[rows] = base + bounds[:-1]
            self.row_len[rows] = len_sub
            base += total
        self.tail = base

    def _compact_arena(self, incoming: int) -> None:
        """Repack the live rows into a fresh arena with room for the
        ``incoming`` terms and a few more products (:data:`_ARENA_SLACK`)."""
        live = int(self.row_len.sum())
        need = live + incoming
        cap = max(need + min(3 * need, _ARENA_SLACK), 1024)
        new_exp = np.empty(cap)
        new_coef = np.empty(cap)
        bounds = np.zeros(self.row_len.size + 1, dtype=np.int64)
        np.cumsum(self.row_len, out=bounds[1:])
        new_starts = bounds[:-1].copy()
        src = self._positions(self.starts, self.row_len)
        new_exp[:live] = self.exponents[src]
        new_coef[:live] = self.coeffs[src]
        self.exponents = new_exp
        self.coeffs = new_coef
        self.starts = new_starts
        self.tail = live

    def multiply_rows(
        self,
        rows: np.ndarray,
        factor_exponents: np.ndarray,
        factor_coeffs: np.ndarray,
        factor_len: Optional[np.ndarray] = None,
        cut: Optional[np.ndarray] = None,
    ) -> None:
        """Multiply the state of ``rows`` by per-row factor polynomials.

        Args:
            rows: Distinct row indices whose state this factor multiplies
                (the scalar path's "matched" rows; other rows are
                untouched, exactly as :meth:`ExpansionEstimator.polynomials`
                skips unmatched terms).
            factor_exponents / factor_coeffs: ``(len(rows), F)`` arrays;
                row ``i`` holds the factor for ``rows[i]``.
            factor_len: Effective width of each row's factor, at most
                ``F`` (entries at or past it are padding and ignored);
                ``None`` means every row uses the full width ``F``.
            cut: Optional per-row threshold cut, parallel to ``rows``:
                after the merge, entries with exponent
                ``<= cut[i]`` are dropped into :attr:`cut_mass` (``-inf``
                drops nothing).  See the class docstring for when this
                is exact.
        """
        rows = np.asarray(rows, dtype=np.intp)
        fexp = np.asarray(factor_exponents, dtype=float)
        fcoef = np.asarray(factor_coeffs, dtype=float)
        if fexp.ndim != 2 or fexp.shape != fcoef.shape or fexp.shape[0] != rows.size:
            raise ValueError(
                "factor arrays must be parallel (len(rows), F) 2-D arrays"
            )
        n_sub, width_f = fexp.shape
        if n_sub == 0:
            return
        # Callers pass np.nonzero output, so the ascending check decides
        # almost every call without the sort inside np.unique.
        ascending = n_sub == 1 or bool((rows[1:] > rows[:-1]).all())
        if not ascending and np.unique(rows).size != n_sub:
            # Each row's new state is written once per call: a repeated
            # row would be multiplied once and one of its writes would win.
            raise ValueError("rows must be distinct")
        if factor_len is None:
            flen = np.full(n_sub, width_f, dtype=np.int64)
        else:
            flen = np.asarray(factor_len, dtype=np.int64)
        if (flen < 1).any():
            raise ValueError(
                "factor polynomial must be non-empty (a per-term polynomial "
                "always carries its (0, 1-p) term)"
            )
        if (flen > width_f).any():
            raise ValueError(
                f"factor_len must not exceed the factor width {width_f}"
            )
        if cut is not None:
            cut = np.asarray(cut, dtype=float)
            if np.isnan(cut).any():  # `exp > nan` would drop every entry
                raise ValueError("cut must not be NaN")
        f_valid = np.arange(width_f)[None, :] < flen[:, None]
        if not np.isfinite(np.where(f_valid, fexp, 0.0)).all():
            raise ValueError("batched product requires finite factor exponents")
        # Normalize the padding once, up front: +inf exponents make padded
        # product entries self-sort behind every real entry, and 0.0
        # coefficients make them bit-inert additive identities — so the
        # block kernel needs no validity mask at all.
        fexp = np.where(f_valid, fexp, np.inf)
        fcoef = np.where(f_valid, fcoef, 0.0)
        # Rows are independent, so processing them in power-of-two width
        # buckets changes nothing about the result — it just keeps a
        # handful of very wide rows from inflating every row's padded work.
        # Narrow rows (<= 2**_BUCKET_MIN_EXP wide) share one bucket: at
        # that size per-call overhead outweighs padding waste.
        sub_len = self.row_len[rows]
        bucket = np.maximum(
            np.frexp(np.maximum(sub_len, 1).astype(np.float64))[1],
            _BUCKET_MIN_EXP,
        )
        blocks = []
        if bucket.size and bucket.min() != bucket.max():
            for b in np.unique(bucket):
                sel = np.nonzero(bucket == b)[0]
                block = self._multiply_block(
                    rows[sel], fexp[sel], fcoef[sel], flen[sel],
                    None if cut is None else cut[sel],
                )
                if block is not None:
                    blocks.append(block)
        else:
            block = self._multiply_block(rows, fexp, fcoef, flen, cut)
            if block is not None:
                blocks.append(block)
        self._write_blocks(blocks)

    def _multiply_block(
        self,
        rows: np.ndarray,
        fexp: np.ndarray,
        fcoef: np.ndarray,
        flen: np.ndarray,
        cut: Optional[np.ndarray],
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The :meth:`multiply_rows` kernel for one similar-width block;
        returns the block's ``(rows, exp, coef, len)`` result for
        :meth:`_write_blocks` (``None`` when the block is a no-op)."""
        n_sub, width_f = fexp.shape
        sub_len = self.row_len[rows]
        width_s = int(sub_len.max())
        flat = width_s * width_f
        if flat == 0:
            return None  # every row was annihilated; the product stays empty
        if n_sub <= _ROWWISE_BLOCK_ROWS:
            # A near-empty bucket (typically the one very wide outlier
            # engine): the scalar merge pipeline per row is fewer array
            # passes than the padded batch machinery — and is trivially
            # bit-identical, being the very ops GenFunc.multiplied runs.
            return self._multiply_rowwise(rows, fexp, fcoef, flen, cut)
        # Padding is pre-normalized (exponent +inf, coefficient 0.0) by
        # multiply_rows and _gather, so the product entries need no
        # validity mask: padded exponents are +inf (inf + finite), padded
        # coefficients are exactly 0.0 (0 * finite or finite * 0).
        state_exp, state_coef = self._gather(
            rows, width_s, sub_len, pad_exp=np.inf
        )
        # Product entries in the scalar ravel order (state-major,
        # factor-minor) — the exact addition sequence np.unique+bincount
        # consumes in GenFunc.multiplied.
        # ``+ 0.0`` canonicalizes signed zeros exactly as GenFunc.multiplied
        # does, so a group holding -0.0 and +0.0 has one bit pattern and
        # the unstable sorts on either path pick the same representative.
        prod_exp = (
            np.round(
                (state_exp[:, :, None] + fexp[:, None, :]).reshape(n_sub, flat),
                DECIMALS,
            )
            + 0.0
        )
        prod_coef = (state_coef[:, :, None] * fcoef[:, None, :]).reshape(
            n_sub, flat
        )
        # Every padded entry is +inf by construction; any FURTHER
        # non-finite entry is a live exponent whose rounding overflowed.
        n_valid = sub_len * flen
        pad_count = n_sub * flat - int(n_valid.sum())
        if int((~np.isfinite(prod_exp)).sum()) != pad_count:
            raise ValueError(
                "rounded exponents overflowed float64; route these rows "
                "through the scalar GenFunc instead"
            )
        # Per-row sort by exponent; padding sorts last behind its +inf.
        # Group membership depends only on the rounded *values*, so the
        # cheaper unstable quicksort finds the same groups a stable sort
        # would.
        order = np.argsort(prod_exp, axis=1)
        perm = np.arange(n_sub, dtype=np.intp)[:, None] * flat + order
        exp_s = prod_exp.ravel()[perm]
        in_valid = np.arange(flat)[None, :] < n_valid[:, None]
        boundary = np.empty((n_sub, flat), dtype=bool)
        boundary[:, 0] = True
        boundary[:, 1:] = exp_s[:, 1:] != exp_s[:, :-1]
        # One flat cumsum assigns globally consecutive group ids: every
        # row's first entry is forced to be a boundary, so groups can never
        # straddle a row edge even when adjacent rows share an exponent.
        gid = np.cumsum(boundary.ravel()) - 1
        # bincount accumulates sequentially in array order, so feeding it
        # the coefficients in their ORIGINAL (state-major) product layout
        # with scattered group ids reproduces the scalar np.unique+bincount
        # addition sequence exactly — each group's partial sums run in
        # original product order regardless of how the sort permuted ties.
        # Padded entries weigh 0.0 — bit-inert additive identities in
        # whatever (padding) group they land.
        gid_orig = np.empty(n_sub * flat, dtype=np.int64)
        gid_orig[perm.ravel()] = gid
        group_coef = np.bincount(
            gid_orig,
            weights=prod_coef.ravel(),
            minlength=int(gid[-1]) + 1,
        )
        # Each row's padding (all +inf) forms at most one trailing group,
        # so the boundaries inside the valid prefix are exactly the real
        # merged entries — and reading them off in row-major order yields
        # the result already CSR-packed, no padded intermediate needed.
        start = boundary & in_valid
        merged_len = start.sum(axis=1).astype(np.int64)
        sel = start.ravel()
        merged_exp = exp_s.ravel()[sel]
        merged_coef = group_coef[gid[sel]]
        if cut is not None and merged_exp.size:
            row_of = np.repeat(np.arange(n_sub), merged_len)
            keep = merged_exp > cut[row_of]
            if not keep.all():
                # Rows are distinct (multiply_rows checks), so one fancy
                # += adds each row's dropped mass exactly once.
                self.cut_mass[rows] += np.bincount(
                    row_of, weights=np.where(keep, 0.0, merged_coef),
                    minlength=n_sub,
                )
                merged_exp = merged_exp[keep]
                merged_coef = merged_coef[keep]
                merged_len = np.bincount(
                    row_of[keep], minlength=n_sub
                ).astype(np.int64)
        return (rows, merged_exp, merged_coef, merged_len)

    def _multiply_rowwise(
        self,
        rows: np.ndarray,
        fexp: np.ndarray,
        fcoef: np.ndarray,
        flen: np.ndarray,
        cut: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`GenFunc.multiplied`'s own pipeline, one row at a time —
        bit-identical by construction (it runs the identical operations on
        the identical arrays) — then the same threshold cut as the padded
        kernel."""
        merged = []
        for i in range(rows.size):
            r = int(rows[i])
            length = int(self.row_len[r])
            if length == 0:
                merged.append((np.empty(0), np.empty(0)))
                continue
            start = int(self.starts[r])
            state_exp = self.exponents[start : start + length]
            state_coef = self.coeffs[start : start + length]
            fe = fexp[i, : flen[i]]
            fc = fcoef[i, : flen[i]]
            prod_exp = (
                np.round((state_exp[:, None] + fe[None, :]).ravel(), DECIMALS)
                + 0.0
            )
            prod_coef = (state_coef[:, None] * fc[None, :]).ravel()
            if not np.isfinite(prod_exp).all():
                raise ValueError(
                    "rounded exponents overflowed float64; route these rows "
                    "through the scalar GenFunc instead"
                )
            merged_exp, inverse = np.unique(prod_exp, return_inverse=True)
            merged_coef = np.bincount(
                inverse, weights=prod_coef, minlength=merged_exp.size
            )
            if cut is not None:
                keep = merged_exp > cut[i]
                self.cut_mass[r] += float(merged_coef[~keep].sum())
                merged_exp = merged_exp[keep]
                merged_coef = merged_coef[keep]
            merged.append((merged_exp, merged_coef))
        lens = np.array([e.size for e, __ in merged], dtype=np.int64)
        exp_flat = (
            np.concatenate([e for e, __ in merged]) if merged else np.empty(0)
        )
        coef_flat = (
            np.concatenate([c for __, c in merged]) if merged else np.empty(0)
        )
        return (rows, exp_flat, coef_flat, lens)

    @classmethod
    def product(
        cls,
        n_rows: int,
        term_factors: Iterable[Tuple[np.ndarray, ...]],
    ) -> "BatchedGenFunc":
        """Batched :meth:`GenFunc.product` across ``n_rows`` rows.

        Args:
            term_factors: One ``(rows, factor_exponents, factor_coeffs,
                factor_len[, cut])`` tuple per query term, in query-term
                order — the rows the term's factor multiplies, the per-row
                factors and, optionally, the per-row threshold cut (see
                :meth:`multiply_rows`).

        Returns:
            The batch after all factors.  Without cuts, row ``r`` is
            bit-identical to ``GenFunc.product`` over the factors whose
            ``rows`` contain ``r``, in order; with them, its tails above
            the cut's floor are (see the class docstring).
        """
        batch = cls.ones(n_rows)
        for rows, fexp, fcoef, flen, *rest in term_factors:
            batch.multiply_rows(
                rows, fexp, fcoef, flen, cut=rest[0] if rest else None
            )
        return batch

    # -- batched usefulness read-out -----------------------------------------

    def tail_profile(
        self, thresholds: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Tail mass and first moment of every row at every threshold.

        Returns:
            ``(mass, moment)`` arrays of shape ``(len(thresholds),
            n_rows)``, bit-identical to calling
            :meth:`GenFunc.tail_profile` on each row: the suffix
            cumulative sums run over the padded rows whose trailing pad
            entries are additive identities (``-0.0`` for the moment
            terms — ``x + -0.0 == x`` bit-for-bit even when ``x`` is a
            signed zero, whereas ``-0.0 + +0.0`` flips the sign the
            scalar cumsum preserves by *copying* its first element), and
            the threshold cut reproduces
            ``searchsorted(..., side="right")``.
        """
        grid = np.asarray(thresholds, dtype=float)
        n_rows = self.row_len.size
        mass = np.empty((grid.size, n_rows))
        moment = np.empty((grid.size, n_rows))
        if n_rows == 0:
            return mass, moment
        # Same power-of-two width bucketing as multiply_rows: the suffix
        # sums only pay for each row's own width (plus <2x padding), not
        # the widest row in the batch.
        bucket = np.maximum(
            np.frexp(np.maximum(self.row_len, 1).astype(np.float64))[1],
            _BUCKET_MIN_EXP,
        )
        for b in np.unique(bucket):
            rows = np.nonzero(bucket == b)[0]
            lens = self.row_len[rows]
            width = int(lens.max())
            # Padding exponents are +inf, so no threshold counts them.
            exp_cmp, coef = self._gather(rows, width, lens, pad_exp=np.inf)
            v_mask = np.arange(width)[None, :] < lens[:, None]
            # Pad slots must be the additive identity under IEEE addition:
            # -0.0, not +0.0.  A zero-coefficient term with a negative
            # exponent contributes -0.0 to the moment, and the scalar
            # cumsum *copies* that as its first reversed element, while
            # a +0.0 pad would turn it into +0.0 (-0.0 + 0.0 == +0.0).
            with np.errstate(invalid="ignore"):  # 0.0 * inf on the pads
                moment_terms = np.where(v_mask, coef * exp_cmp, -0.0)
            # Suffix sums land in (rows, width + 1) arrays whose last column
            # is the empty tail; each input is freed once summed.
            mass_sfx = np.zeros((rows.size, width + 1))
            np.cumsum(coef[:, ::-1], axis=1, out=mass_sfx[:, :width][:, ::-1])
            del coef
            mom_sfx = np.zeros((rows.size, width + 1))
            np.cumsum(
                moment_terms[:, ::-1], axis=1, out=mom_sfx[:, :width][:, ::-1]
            )
            del moment_terms
            r_idx = np.arange(rows.size)
            # The empty tail reads the scalar sentinel +0.0, but a suffix
            # of -0.0 pads sums to -0.0 — pin each row's sentinel column.
            mom_sfx[r_idx, lens] = 0.0
            for i, t in enumerate(grid.tolist()):
                if t != t:  # searchsorted places NaN after every exponent
                    cnt = lens
                else:
                    cnt = (exp_cmp <= t).sum(axis=1)
                mass[i, rows] = mass_sfx[r_idx, cnt]
                moment[i, rows] = mom_sfx[r_idx, cnt]
        return mass, moment

    def __repr__(self) -> str:
        return (
            f"BatchedGenFunc(rows={self.n_rows}, "
            f"widest={int(self.row_len.max()) if self.row_len.size else 0})"
        )
