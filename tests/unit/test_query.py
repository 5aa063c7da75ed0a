"""Unit tests for repro.corpus.Query."""

import copy
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.corpus import Query
from repro.text import TextPipeline


class TestConstruction:
    def test_from_terms_accumulates_tf(self):
        query = Query.from_terms(["a", "b", "a"])
        assert query.terms == ("a", "b")
        assert query.weights == (2.0, 1.0)

    def test_from_terms_preserves_first_occurrence_order(self):
        query = Query.from_terms(["z", "a", "z", "m"])
        assert query.terms == ("z", "a", "m")

    def test_from_text_uses_pipeline(self):
        query = Query.from_text("the searching engines", TextPipeline())
        assert query.terms == ("search", "engin")

    def test_from_text_default_pipeline(self):
        assert Query.from_text("apple").terms == ("appl",)

    def test_empty_query(self):
        query = Query.from_terms([])
        assert query.n_terms == 0
        assert query.norm() == 0.0

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Query(terms=("a", "a"), weights=(1.0, 1.0))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Query(terms=("a",), weights=(0.0,))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Query(terms=("a", "b"), weights=(1.0,))


class TestWeights:
    def test_norm(self):
        query = Query(terms=("a", "b"), weights=(3.0, 4.0))
        assert query.norm() == pytest.approx(5.0)

    def test_normalized_weights_unit_norm(self):
        query = Query(terms=("a", "b", "c"), weights=(1.0, 2.0, 2.0))
        normalized = query.normalized_weights()
        assert math.sqrt(sum(w * w for w in normalized)) == pytest.approx(1.0)

    def test_single_term_normalized_weight_is_one(self):
        # The Section 3.1 argument: a single-term query has weight 1.
        query = Query(terms=("only",), weights=(5.0,))
        assert query.normalized_weights().tolist() == [1.0]

    def test_equal_weights_give_inverse_sqrt_r(self):
        query = Query.from_terms(["a", "b", "c", "d"])
        assert query.normalized_weights().tolist() == pytest.approx([0.5] * 4)

    def test_items(self):
        query = Query(terms=("a", "b"), weights=(2.0, 1.0))
        assert list(query.items()) == [("a", 2.0), ("b", 1.0)]

    def test_normalized_items_align(self):
        query = Query(terms=("a", "b"), weights=(3.0, 4.0))
        pairs = dict(query.normalized_items())
        assert pairs["a"] == pytest.approx(0.6)
        assert pairs["b"] == pytest.approx(0.8)


@st.composite
def scaled_weight_pairs(draw):
    """Weights and a power-of-two exponent ``k`` that keeps every
    ``weight * 2**k`` a normal float — up to the edges of the range."""
    weights = draw(st.lists(
        st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=6
    ))
    exponents = [math.frexp(w)[1] for w in weights]
    low = sys.float_info.min_exp - min(exponents)
    high = sys.float_info.max_exp - max(exponents)
    return weights, draw(st.integers(low, high))


class TestScaleInvariance:
    @given(scaled_weight_pairs())
    @example(  # normal sum of squares, one subnormal square
        ([193677.61616074492, 472256.9085455569, 0.00012256669934306017], -529)
    )
    def test_power_of_two_scaling_keeps_normalized_weights(self, case):
        weights, k = case
        terms = tuple(f"t{i}" for i in range(len(weights)))
        base = Query(terms, tuple(weights)).normalized_weights()
        scaled = Query(
            terms, tuple(math.ldexp(w, k) for w in weights)
        ).normalized_weights()
        assert scaled.tobytes() == base.tobytes()

    @pytest.mark.parametrize(
        "weights, factor",
        [((0.5, 0.5), 6.0), ((1.0, 1.0), 3.0), ((1.0, 3.0), 5.0), ((2.0, 5.0, 7.0), 1.5)],
    )
    def test_proportional_weights_normalize_to_the_same_floats(
        self, weights, factor
    ):
        """The estimate cache keys proportional queries together, so their
        normalized weights must agree bit for bit, not only power-of-two
        multiples: ``1/sqrt(2)`` and ``3/sqrt(18)`` differ in the last bit."""
        terms = tuple(f"t{i}" for i in range(len(weights)))
        base = Query(terms, weights).normalized_weights()
        scaled = Query(
            terms, tuple(w * factor for w in weights)
        ).normalized_weights()
        assert scaled.tobytes() == base.tobytes()

    @pytest.mark.parametrize("weight", [1e200, 1e-170, sys.float_info.max])
    def test_extreme_single_weight_normalizes_to_one(self, weight):
        assert Query(("a",), (weight,)).normalized_weights().tolist() == [1.0]


def unit_weights(weights):
    """The normalized weights as :meth:`Query.normalized_weights` derives
    them, computed here without its memo."""
    ratios = [w / max(weights) for w in weights]
    norm = math.sqrt(sum(r * r for r in ratios))
    return [r / norm for r in ratios]


class TestNormalizedWeightsMemo:
    """The normalized weights are computed once per query; a caller gets
    its own copy each time, and the memo is invisible to equality,
    hashing and pickling."""

    @given(st.lists(
        st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=6
    ))
    def test_the_memo_answers_the_computation_bit_for_bit(self, weights):
        terms = tuple(f"t{i}" for i in range(len(weights)))
        query = Query(terms, tuple(weights))
        want = np.array(unit_weights(weights)).tobytes().hex()
        for __ in range(3):
            assert query.normalized_weights().tobytes().hex() == want
        assert [w for __, w in query.normalized_items()] == unit_weights(weights)

    def test_a_caller_mutating_its_array_changes_no_later_answer(self):
        query = Query(("a", "b", "c"), (1.0, 2.0, 2.0))
        first = query.normalized_weights()
        want = first.tobytes()
        first[:] = 0.0
        assert query.normalized_weights().tobytes() == want
        assert query.normalized_weights() is not query.normalized_weights()
        assert [w for __, w in query.normalized_items()] == unit_weights([1, 2, 2])

    def test_equality_hashing_and_pickling_ignore_the_memo(self):
        asked = Query(("a", "b"), (1.0, 3.0))
        asked.normalized_weights()
        fresh = Query(("a", "b"), (1.0, 3.0))
        assert asked == fresh and hash(asked) == hash(fresh)
        assert pickle.dumps(asked) == pickle.dumps(fresh)
        assert copy.deepcopy(asked) == fresh
        assert pickle.loads(pickle.dumps(asked)).normalized_weights().tobytes() == (
            fresh.normalized_weights().tobytes()
        )

    def test_the_empty_query_normalizes_to_an_empty_array(self):
        query = Query((), ())
        assert query.normalized_weights().size == 0
        assert query.normalized_weights().size == 0


class TestPredicates:
    def test_is_single_term(self):
        assert Query.from_terms(["x"]).is_single_term
        assert not Query.from_terms(["x", "y"]).is_single_term

    def test_n_terms(self):
        assert Query.from_terms(["x", "y", "x"]).n_terms == 2

    def test_frozen(self):
        query = Query.from_terms(["x"])
        with pytest.raises(AttributeError):
            query.terms = ("y",)

    def test_repr_shows_terms(self):
        assert "alpha" in repr(Query.from_terms(["alpha"]))
