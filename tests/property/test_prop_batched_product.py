"""Property-based bit-exactness wall for the batched polynomial product.

:class:`~repro.core.genfunc.BatchedGenFunc` promises *bit-identity per
row* with the scalar :class:`~repro.core.genfunc.GenFunc` pipeline — not
"close", the same IEEE-754 bits.  This suite drives the batched kernel
through randomly shaped products and checks every row against the scalar
``GenFunc.product`` run over exactly that row's factors:

* ragged factor counts — each term multiplies an arbitrary subset of
  rows, with per-row factor widths from singleton points up;
* exponents that collide after the one rounding every multiply applies
  (``0.25``, ``5.5``, ``-7.125``, both signed zeros, values below
  ``10**-DECIMALS``), so merge groups hold several product entries;
* degenerate shapes — zero rows, zero terms, rows a cut annihilated to
  the empty polynomial, factors of width 1;
* extreme coefficients near ``2**53``, where one misplaced addition in
  the merge order loses a unit in the last place;
* per-row cuts — the merge followed by dropping every entry at or below
  the row's cut, against the scalar merge filtered the same way;
* the tail read-out — ``tail_profile`` over thresholds including
  ``-inf``, ``+inf``, ``NaN``, and exact exponent hits;
* the threshold cut — a product that drops, after each factor, the
  terms that can no longer exceed the smallest threshold read has the
  same tails at every threshold read as the product that keeps them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.genfunc import BatchedGenFunc, GenFunc
from repro.core.vectorized import _cut_floor, _threshold_cuts

# Exponents stay modest so no (exponent * 10**DECIMALS) rounding overflow
# occurs — overflow demotion is covered by the explicit tests below.
_EXPONENTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 0.1, 0.25, 1.0 / 3.0, 1e-9, 5.5, 123.456789, -7.125]
    ),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)

# Coefficients include values at the 2**53 integer boundary: adding 1.0 to
# 2**53 is a no-op in float64, so any deviation from the scalar merge's
# addition sequence shows up as a last-place difference here.
_COEFFS = st.one_of(
    st.sampled_from(
        [
            0.0,
            1.0,
            0.5,
            1e-300,
            1e-12,
            12345.6789,
            float(2**53 - 1),
            float(2**53),
            float(2**53 + 2),
            1e16,
        ]
    ),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

_THRESHOLDS = [float("-inf"), 0.0, 0.1, 0.30000000000000004, 5.5, float("inf"), float("nan")]

# Per-row cuts: none, through the middle of the drawn exponents, and above
# every product (1e3 > 4 terms x 50), which leaves the empty polynomial.
_CUTS = [float("-inf"), -1.0, 0.0, 0.25, 5.5, 1e3]


@st.composite
def product_cases(draw, cuts=False):
    """``(n_rows, terms)``: each term is ``(rows, fexp, fcoef, flen)``,
    plus a per-row cut array when ``cuts`` and the draw says so."""
    n_rows = draw(st.integers(min_value=0, max_value=5))
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = []
    for __ in range(n_terms):
        rows = [r for r in range(n_rows) if draw(st.booleans())]
        if not rows:
            continue
        flen = [draw(st.integers(min_value=1, max_value=5)) for __ in rows]
        width = max(flen)
        fexp = np.zeros((len(rows), width))
        fcoef = np.zeros((len(rows), width))
        for i, k in enumerate(flen):
            for j in range(k):
                fexp[i, j] = draw(_EXPONENTS)
                fcoef[i, j] = draw(_COEFFS)
            # Poison the padding: the kernel must never read past flen.
            fexp[i, k:] = draw(st.sampled_from([0.0, 99.0, -3.5]))
            fcoef[i, k:] = draw(st.sampled_from([0.0, 7.0]))
        term = (
            np.asarray(rows, dtype=np.intp),
            fexp,
            fcoef,
            np.asarray(flen, dtype=np.int64),
        )
        if cuts and draw(st.booleans()):
            term += (np.array([draw(st.sampled_from(_CUTS)) for __ in rows]),)
        terms.append(term)
    return n_rows, terms


def scalar_reference(n_rows, terms):
    """Row-by-row scalar ``GenFunc.multiplied`` over the same factors (the
    steps of ``GenFunc.product``); a term's cut keeps only the merged
    entries above it."""
    out = []
    for r in range(n_rows):
        g = GenFunc.one()
        for rows, fexp, fcoef, flen, *cut in terms:
            for i in np.nonzero(rows == r)[0].tolist():
                k = int(flen[i])
                g = g.multiplied(fexp[i, :k].copy(), fcoef[i, :k].copy())
                if cut:
                    keep = g.exponents > cut[0][i]
                    g = GenFunc(g.exponents[keep], g.coeffs[keep])
        out.append(g)
    return out


#: Five rows, so the padded kernel runs; each row's eight entries fall in
#: four rounded-exponent groups (``0.0`` and ``-0.0`` are one) and
#: alternate ``2**53`` and ``1.0`` coefficients, so a group's sum depends
#: on its addition order and the per-row sort reorders its ties.  A kernel
#: that fed ``np.bincount`` in sorted rather than product order diverges
#: here.
_ORDER_SENSITIVE = (
    5,
    [(
        np.arange(5, dtype=np.intp),
        np.array([
            [[0.25, 5.5, -7.125, 0.0, -0.0][(3 * i + r) % 5] for i in range(8)]
            for r in range(5)
        ]),
        np.array([
            [[float(2**53), 1.0][(i + r) % 2] for i in range(8)]
            for r in range(5)
        ]),
        np.full(5, 8, dtype=np.int64),
    )],
)


def assert_rows_bit_identical(batch, scalars):
    for r, want in enumerate(scalars):
        got = batch.row(r)
        assert got.exponents.tobytes() == want.exponents.tobytes(), (
            f"row {r} exponents diverged: {got.exponents!r} vs "
            f"{want.exponents!r}"
        )
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), (
            f"row {r} coefficients diverged: {got.coeffs!r} vs "
            f"{want.coeffs!r}"
        )


class TestBatchedProductBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(product_cases(cuts=True))
    @example(_ORDER_SENSITIVE)
    def test_product_matches_scalar_bit_for_bit(self, case):
        n_rows, terms = case
        batch = BatchedGenFunc.product(n_rows, terms)
        assert_rows_bit_identical(batch, scalar_reference(n_rows, terms))

    @settings(max_examples=100, deadline=None)
    @given(product_cases(cuts=True))
    def test_tail_profile_matches_scalar_bit_for_bit(self, case):
        n_rows, terms = case
        batch = BatchedGenFunc.product(n_rows, terms)
        mass, moment = batch.tail_profile(_THRESHOLDS)
        assert mass.shape == moment.shape == (len(_THRESHOLDS), n_rows)
        scalars = scalar_reference(n_rows, terms)
        for r, want in enumerate(scalars):
            want_mass, want_moment = want.tail_profile(_THRESHOLDS)
            assert mass[:, r].tobytes() == want_mass.tobytes()
            assert moment[:, r].tobytes() == want_moment.tobytes()


class TestThresholdCut:
    """The cut :mod:`repro.core.vectorized` computes, on drawn products:
    factors of any sign and width — tails at the read thresholds stay
    bit-identical to the uncut batch."""

    @settings(max_examples=150, deadline=None)
    @given(
        product_cases(),
        st.lists(
            st.sampled_from(_THRESHOLDS + [-60.0, -1.0, 12.0, 30.0, 100.0]),
            max_size=3,
        ),
    )
    def test_cut_tails_match_the_uncut_product(self, case, thresholds):
        n_rows, terms = case
        matched = np.zeros((n_rows, len(terms)), dtype=bool)
        headroom = np.zeros((n_rows, len(terms)))
        bound = np.zeros(n_rows)
        for j, (rows, fexp, __, flen) in enumerate(terms):
            valid = np.arange(fexp.shape[1])[None, :] < flen[:, None]
            matched[rows, j] = True
            headroom[rows, j] = np.where(valid, fexp, -np.inf).max(axis=1)
            bound[rows] += np.where(valid, np.abs(fexp), 0.0).max(axis=1)
        cuts = _threshold_cuts(
            matched, headroom, bound, np.full(n_rows, len(terms)),
            np.full(n_rows, _cut_floor(thresholds)),
        )
        cut_terms = [
            (*term, None if cuts is None else cuts[term[0], j])
            for j, term in enumerate(terms)
        ]
        full = BatchedGenFunc.product(n_rows, terms)
        cut = BatchedGenFunc.product(n_rows, cut_terms)
        assert (cut.row_len <= full.row_len).all()
        assert (cut.cut_mass >= 0.0).all()
        want_mass, want_moment = full.tail_profile(thresholds)
        got_mass, got_moment = cut.tail_profile(thresholds)
        assert got_mass.tobytes() == want_mass.tobytes()
        assert got_moment.tobytes() == want_moment.tobytes()

    def test_cut_drops_into_cut_mass_in_both_kernels(self):
        # Two rows run the per-row merge, eight the padded kernel; the
        # same cut must drop the same entries into cut_mass in both.
        for n_rows in (2, 8):
            rows = np.arange(n_rows, dtype=np.intp)
            fexp = np.tile([0.5, 0.25, 0.0], (n_rows, 1))
            fcoef = np.tile([0.25, 0.25, 0.5], (n_rows, 1))
            batch = BatchedGenFunc.ones(n_rows)
            batch.multiply_rows(rows, fexp, fcoef, cut=np.full(n_rows, 0.25))
            for r in range(n_rows):
                assert batch.row(r).exponents.tolist() == [0.5]
                assert batch.cut_mass[r] == 0.75

    def test_nan_cut_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            BatchedGenFunc.ones(1).multiply_rows(
                np.array([0]), np.array([[1.0]]), np.array([[1.0]]),
                cut=np.array([np.nan]),
            )


class TestBatchedProductEdgeCases:
    def test_zero_rows_zero_terms(self):
        batch = BatchedGenFunc.product(0, [])
        assert batch.n_rows == 0
        mass, moment = batch.tail_profile([0.5])
        assert mass.shape == (1, 0) and moment.shape == (1, 0)

    def test_identity_rows_stay_one(self):
        batch = BatchedGenFunc.product(3, [])
        for r in range(3):
            row = batch.row(r)
            assert row.exponents.tolist() == [0.0]
            assert row.coeffs.tolist() == [1.0]

    def test_annihilated_row_survives_later_multiplies(self):
        # A cut above every term leaves the empty polynomial; the scalar
        # path keeps multiplying it (products of nothing stay nothing) and
        # so must the batch — alone in the per-row merge, and beside live
        # rows in the padded kernel.
        for n_rows in (1, 8):
            rows = np.arange(n_rows, dtype=np.intp)
            cut = np.full(n_rows, -np.inf)
            cut[0] = 10.0
            terms = [
                (
                    rows, np.ones((n_rows, 1)), np.full((n_rows, 1), 1e-6),
                    np.ones(n_rows, dtype=np.int64), cut,
                ),
                (
                    rows, np.tile([2.0, 0.0], (n_rows, 1)),
                    np.full((n_rows, 2), 0.5), np.full(n_rows, 2),
                ),
            ]
            batch = BatchedGenFunc.product(n_rows, terms)
            assert_rows_bit_identical(batch, scalar_reference(n_rows, terms))
            assert batch.row(0).n_terms == 0
            assert batch.cut_mass[0] == 1e-6

    def test_tail_moment_preserves_negative_zero(self):
        # A zero-coefficient term with a negative exponent contributes
        # -0.0 to the moment; the scalar suffix cumsum *copies* it as
        # its first reversed element.  The batched kernel pads rows, and
        # a +0.0 pad would flip the sign (-0.0 + 0.0 == +0.0) — while
        # the empty-tail sentinel must still read +0.0, not the sum of
        # -0.0 pads.  Both rows exercise one side of that trade.
        terms = [(
            np.array([0, 1]),
            np.array([[0.0, 0.1], [-1.0, 0.0]]),
            np.array([[0.0, 0.0], [0.0, 0.0]]),
            np.array([2, 1]),
        )]
        thresholds = [float("-inf"), 0.0, float("inf"), float("nan")]
        batch = BatchedGenFunc.product(2, terms)
        mass, moment = batch.tail_profile(thresholds)
        for r, want in enumerate(scalar_reference(2, terms)):
            want_mass, want_moment = want.tail_profile(thresholds)
            assert mass[:, r].tobytes() == want_mass.tobytes()
            assert moment[:, r].tobytes() == want_moment.tobytes()

    def test_near_2_53_coefficient_accumulation_order(self):
        # Three product entries share one rounded exponent; their
        # coefficients only sum to the scalar value when added in the
        # same sequence (2**53 + 1.0 truncates, order matters).
        rows = np.array([0, 1])
        fexp = np.tile(np.array([0.1, 0.1 + 1e-12, 0.1 - 1e-13]), (2, 1))
        fcoef = np.tile(np.array([float(2**53 - 1), 1.0, 1.0]), (2, 1))
        terms = [(rows, fexp, fcoef, np.array([3, 3]))]
        batch = BatchedGenFunc.product(2, terms)
        assert_rows_bit_identical(batch, scalar_reference(2, terms))

    def test_rounding_overflow_raises_in_both_pipelines(self):
        # DECIMALS = 8 scales by 1e8; 1e303 * 1e8 overflows to inf, which
        # the scalar np.round tolerates but the batched kernel must
        # reject (the caller demotes those rows to scalar GenFunc).
        wide = BatchedGenFunc.product(
            8,
            [
                (
                    np.arange(8, dtype=np.intp),
                    np.tile(np.linspace(0.0, 3.0, 24), (8, 1)),
                    np.full((8, 24), 1.0 / 24.0),
                    np.full(8, 24, dtype=np.int64),
                )
            ],
        )
        bad_exp = np.full((8, 2), 1e303)
        bad_coef = np.full((8, 2), 0.5)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="overflowed"):
                wide.multiply_rows(np.arange(8, dtype=np.intp), bad_exp, bad_coef)
            narrow = BatchedGenFunc.ones(1)
            with pytest.raises(ValueError, match="overflowed"):
                narrow.multiply_rows(np.array([0]), bad_exp[:1], bad_coef[:1])

    def test_nonfinite_factor_exponent_rejected(self):
        batch = BatchedGenFunc.ones(2)
        with pytest.raises(ValueError, match="finite"):
            batch.multiply_rows(
                np.array([0, 1]),
                np.array([[np.inf], [0.0]]),
                np.array([[1.0], [1.0]]),
            )

    def test_empty_factor_rejected(self):
        batch = BatchedGenFunc.ones(1)
        with pytest.raises(ValueError, match="non-empty"):
            batch.multiply_rows(
                np.array([0]),
                np.array([[1.0]]),
                np.array([[1.0]]),
                np.array([0]),
            )
