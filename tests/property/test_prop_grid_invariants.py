"""The paper's generating-function invariants, on the fleet grid.

``test_prop_genfunc.py`` checks them on one scalar ``GenFunc``; the broker
estimates through ``fleet_usefulness_grid``, whose expansion estimators
advance every engine's polynomial together in one ``BatchedGenFunc``.  Over
drawn fleets (quadruplet and triplet engines, pruning floors and term
budgets on and off), every row of that batch and every grid cell keep them:

* a row's coefficient mass plus its ``pruned_mass`` is within 1e-9 of 1 —
  pruning and budgets move probability, never lose it;
* NoDoc / n lies in [0, 1] — up to the same 1e-9: the full tail is a
  float sum of probabilities and may round past 1 by a few ulps (pinned);
* NoDoc is non-increasing in the threshold, *exactly*: the tail is a
  suffix sum of non-negative coefficients, and float addition of
  non-negative terms is monotone.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import BasicEstimator, BinaryIndependenceEstimator, SubrangeEstimator
from repro.core.genfunc import BatchedGenFunc
from repro.core.vectorized import fleet_usefulness_grid
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.representatives import FleetRepresentativeStore, build_representative

VOCAB = [f"w{i}" for i in range(8)]
THRESHOLDS = [-0.5, 0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0, 1.5]

estimators = st.builds(
    lambda kind, prune_floor, max_terms: kind(
        prune_floor=prune_floor, max_terms=max_terms
    ),
    st.sampled_from([SubrangeEstimator, BasicEstimator, BinaryIndependenceEstimator]),
    st.sampled_from([0.0, 1e-4, 0.02]),
    st.sampled_from([None, 2, 6]),
)


def store_of(corpora, include_max_weight=True):
    """A fleet with one engine per corpus (a list of term lists)."""
    store = FleetRepresentativeStore()
    for e, corpus in enumerate(corpora):
        documents = [Document(f"e{e}d{d}", terms) for d, terms in enumerate(corpus)]
        engine = SearchEngine(Collection.from_documents(f"e{e}", documents))
        store.add(build_representative(engine, include_max_weight))
    return store


corpora = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12),
    min_size=1, max_size=8,
)
#: Up to 12 engines: a kernel block of more than four rows runs the padded
#: batch path, a smaller one the per-row merge — both must keep the laws.
fleets = st.builds(
    store_of, st.lists(corpora, min_size=1, max_size=12), st.booleans()
)


queries = st.builds(
    lambda terms, weights: Query(tuple(terms), tuple(weights[: len(terms)])),
    st.lists(st.sampled_from(VOCAB + ["absent"]), min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=4, max_size=4),
)


@contextmanager
def recorded_batches():
    """Every ``BatchedGenFunc`` the grid builds, as it returns it."""
    batches = []
    product = BatchedGenFunc.product.__func__

    def recording(cls, *args, **kwargs):
        batches.append(product(cls, *args, **kwargs))
        return batches[-1]

    with mock.patch.object(BatchedGenFunc, "product", classmethod(recording)):
        yield batches


@given(estimator=estimators, store=fleets, query=queries)
@example(  # the full tail sums to 1 + 2 ulps
    estimator=SubrangeEstimator(),
    store=store_of([[
        ["w6", "w0", "w0", "w6", "w6", "w0"],
        ["w6", "w0", "w6", "w6"],
        ["w0", "w6", "w6", "w6"],
    ]]),
    query=Query(("w0", "w6"), (1.0, 1.0)),
)
@settings(max_examples=80, deadline=None)
def test_grid_rows_conserve_mass_and_nodoc_is_a_fraction_monotone_in_t(
    estimator, store, query
):
    with recorded_batches() as batches:
        grid = fleet_usefulness_grid(estimator, store, query, THRESHOLDS)
    [batch] = batches
    assert batch.n_rows == len(store)
    for r in range(batch.n_rows):
        row = batch.row(r)
        assert abs(row.total_mass() + row.pruned_mass - 1.0) < 1e-9

    for e, n in enumerate(store.n_documents.tolist()):
        nodoc = [grid[t][e].nodoc for t in range(len(THRESHOLDS))]
        assert all(0.0 <= value / n <= 1.0 + 1e-9 for value in nodoc)
        assert all(a >= b for a, b in zip(nodoc, nodoc[1:]))
