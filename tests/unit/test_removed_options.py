"""Options the estimators and the expansion kernels no longer take.

The expansion has one mode and one precision — exact up to the rounding
of ``repro.core.genfunc.DECIMALS`` — so there is no term budget, no
per-estimator ``decimals`` and no ``prune_floor``, and the three estimator
knobs no entry point set are constants.  Every production estimate comes
off the batched kernel, which builds every factor in one numpy pass, so
nothing takes a term-polynomial cache (``polycache=``) or its namespace
(``engine=``) either.  Passing any of them is a ``TypeError``, not a
silently ignored keyword.
"""

import numpy as np
import pytest

from repro.core import (
    BasicEstimator,
    BinaryIndependenceEstimator,
    PreviousMethodEstimator,
    SubrangeEstimator,
)
from repro.core.base import EstimateExplanation, ExpansionEstimator
from repro.core.genfunc import BatchedGenFunc, GenFunc
from repro.core.vectorized import fleet_usefulness_grid
from repro.corpus import Query
from repro.metasearch import TermPolynomialCache
from repro.representatives import (
    DatabaseRepresentative,
    FleetRepresentativeStore,
    TermStats,
)

#: Every signature that took ``decimals`` and ``prune_floor``, as a call
#: forwarding the keyword.
_TOOK_PRECISION = {
    "expansion": lambda **kw: _Expansion(**kw),
    "subrange": lambda **kw: SubrangeEstimator(**kw),
    "basic": lambda **kw: BasicEstimator(**kw),
    "binary": lambda **kw: BinaryIndependenceEstimator(**kw),
    "prev": lambda **kw: PreviousMethodEstimator(**kw),
    "genfunc-multiplied": lambda **kw: GenFunc.one().multiplied(
        [0.5, 0.0], [0.5, 0.5], **kw
    ),
    "genfunc-product": lambda **kw: GenFunc.product([], **kw),
    "batched-multiply_rows": lambda **kw: BatchedGenFunc.ones(1).multiply_rows(
        np.array([0]), np.array([[0.5, 0.0]]), np.array([[0.5, 0.5]]), **kw
    ),
    "batched-product": lambda **kw: BatchedGenFunc.product(1, [], **kw),
}


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


@pytest.mark.parametrize("option", ["decimals", "prune_floor"])
@pytest.mark.parametrize("signature", sorted(_TOOK_PRECISION))
def test_precision_options_are_type_errors(signature, option):
    with pytest.raises(TypeError):
        _TOOK_PRECISION[signature](**{option: 1})


def test_budget_methods_are_gone():
    assert not hasattr(GenFunc, "budgeted")
    assert not hasattr(BatchedGenFunc, "budget_rows")


def test_pruned_mass_is_gone():
    # Nothing is pruned, so no class carries the mass a prune dropped.
    assert not hasattr(GenFunc.one(), "pruned_mass")
    assert not hasattr(BatchedGenFunc.ones(1), "pruned_mass")
    assert "pruned_mass" not in EstimateExplanation.__dataclass_fields__


def _polycache_call(signature, **kw):
    query = Query.from_terms(["apple"])
    rep = DatabaseRepresentative(
        "d1", n_documents=5, term_stats={"apple": TermStats(0.4, 0.3, 0.1, 0.7)}
    )
    estimator = SubrangeEstimator()
    if signature == "fleet_usefulness_grid":
        store = FleetRepresentativeStore()
        store.add(rep)
        return fleet_usefulness_grid(estimator, store, query, [0.1], **kw)
    if signature == "estimate_many":
        return estimator.estimate_many(query, rep, [0.1], **kw)
    return getattr(estimator, signature)(query, rep, **kw)


@pytest.mark.parametrize("option", ["polycache", "engine"])
@pytest.mark.parametrize(
    "signature",
    ["fleet_usefulness_grid", "polynomials", "expand", "estimate_many"],
)
def test_polycache_options_are_type_errors(signature, option):
    value = TermPolynomialCache() if option == "polycache" else "d1"
    with pytest.raises(TypeError):
        _polycache_call(signature, **{option: value})
    _polycache_call(signature)  # the call itself still works


def test_polynomial_config_is_gone():
    assert not hasattr(ExpansionEstimator, "polynomial_config")
    assert not hasattr(SubrangeEstimator(), "polynomial_config")
