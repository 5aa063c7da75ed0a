"""Options the estimators and the expansion kernels no longer take.

The expansion has one mode — exact up to ``decimals`` rounding and the
``prune_floor`` — so there is no term budget, and the three estimator
knobs no entry point set are constants.  Passing any of them is a
``TypeError``, not a silently ignored keyword.
"""

import numpy as np
import pytest

from repro.core import (
    BasicEstimator,
    BinaryIndependenceEstimator,
    PreviousMethodEstimator,
    SubrangeEstimator,
)
from repro.core.base import ExpansionEstimator
from repro.core.genfunc import BatchedGenFunc, GenFunc


class _Expansion(ExpansionEstimator):
    def term_polynomial(self, u, stats, context):
        return np.array([u, 0.0]), np.array([0.5, 0.5])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: _Expansion(max_terms=4), id="expansion-max_terms"),
        pytest.param(lambda: SubrangeEstimator(max_terms=4), id="subrange-max_terms"),
        pytest.param(lambda: BasicEstimator(max_terms=4), id="basic-max_terms"),
        pytest.param(
            lambda: BinaryIndependenceEstimator(max_terms=4),
            id="binary-max_terms",
        ),
        pytest.param(
            lambda: PreviousMethodEstimator(max_terms=4), id="prev-max_terms"
        ),
        pytest.param(
            lambda: GenFunc.product([], max_terms=4), id="genfunc-max_terms"
        ),
        pytest.param(
            lambda: BatchedGenFunc.product(1, [], max_terms=4),
            id="batched-max_terms",
        ),
        pytest.param(
            lambda: SubrangeEstimator(max_percentile=99.0),
            id="subrange-max_percentile",
        ),
        pytest.param(
            lambda: BinaryIndependenceEstimator(global_weight=0.5),
            id="binary-global_weight",
        ),
        pytest.param(
            lambda: PreviousMethodEstimator(adjustment_strength=0.5),
            id="prev-adjustment_strength",
        ),
    ],
)
def test_removed_option_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_budget_methods_are_gone():
    assert not hasattr(GenFunc, "budgeted")
    assert not hasattr(BatchedGenFunc, "budget_rows")
