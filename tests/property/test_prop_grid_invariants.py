"""The paper's generating-function invariants, on the fleet grid.

``test_prop_genfunc.py`` checks them on one scalar ``GenFunc``; the broker
estimates through ``fleet_usefulness_grid``, whose expansion estimators
advance every engine's polynomial together in one ``BatchedGenFunc``.  Over
drawn fleets (quadruplet and triplet engines), every row of that batch and
every grid cell keep them:

* a row's coefficient mass is within 1e-9 of 1;
* NoDoc / n lies in [0, 1] — up to the same 1e-9: the full tail is a
  float sum of probabilities and may round past 1 by a few ulps (pinned);
* NoDoc is non-increasing in the threshold, *exactly*: the tail is a
  suffix sum of non-negative coefficients, and float addition of
  non-negative terms is monotone.

The grid expands *threshold-aware*: each multiply drops the terms that can
no longer exceed the smallest threshold read.  Over drawn threshold sets
(NaN, +-inf, empty, duplicates, and exponents of the expansion itself, so
that cuts happen right at the boundary) every row keeps
``mass + cut_mass`` within 1e-9 of 1 and every grid cell is
bit-identical to the scalar ``estimate_many`` on the same representative.

Before any of that, the grid skips every engine whose whole-row bound —
the sum of its matched factors' largest exponents — sits at or below the
smallest threshold read minus the cut margin: no term of its expansion
can pass, so its estimate is ``(0.0, 0.0)`` and it never enters the
kernel.  The kernel's rows are exactly the engines that bound leaves live,
which is checked here against a prediction built from the scalar term
polynomials, with thresholds drawn on both sides of the bound.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import BasicEstimator, BinaryIndependenceEstimator, SubrangeEstimator
from repro.core.genfunc import BatchedGenFunc
from repro.core.vectorized import _cut_floor, _cut_margin, fleet_usefulness_grid
from repro.corpus import Collection, Document, Query
from repro.engine import SearchEngine
from repro.representatives import (
    DatabaseRepresentative,
    FleetRepresentativeStore,
    TermStats,
    build_representative,
)

VOCAB = [f"w{i}" for i in range(8)]
THRESHOLDS = [-0.5, 0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0, 1.5]

estimators = st.sampled_from(
    [SubrangeEstimator, BasicEstimator, BinaryIndependenceEstimator]
).map(lambda kind: kind())


def representatives_of(corpora, include_max_weight=True):
    """One representative per corpus (a list of term lists)."""
    representatives = []
    for e, corpus in enumerate(corpora):
        documents = [Document(f"e{e}d{d}", terms) for d, terms in enumerate(corpus)]
        engine = SearchEngine(Collection.from_documents(f"e{e}", documents))
        representatives.append(build_representative(engine, include_max_weight))
    return representatives


def store_of(corpora, include_max_weight=True):
    """A fleet with one engine per corpus (a list of term lists)."""
    store = FleetRepresentativeStore()
    for representative in representatives_of(corpora, include_max_weight):
        store.add(representative)
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


def row_bounds(estimator, representatives, query):
    """Per engine, the sum of its matched factors' largest exponents and of
    their largest magnitudes, from the scalar ``term_polynomial`` — summed
    over an ``(engines, terms)`` block like the grid's, so the two sums
    add in the same order."""
    head = np.zeros((len(representatives), len(query.terms)))
    magnitude = np.zeros_like(head)
    for e, representative in enumerate(representatives):
        context = estimator._polynomial_context(representative)
        for j, (term, u) in enumerate(query.normalized_items()):
            stats = representative.get(term)
            if stats is None or stats.probability <= 0.0:
                continue
            exponents = estimator.term_polynomial(u, stats, context)[0]
            head[e, j] = exponents.max()
            magnitude[e, j] = np.abs(exponents).max()
    return head.sum(axis=1), magnitude.sum(axis=1)


def predicted_live(estimator, representatives, query, thresholds):
    """The engines the whole-row bound cannot rule out: every one when no
    finite threshold is read, else those whose bound lies above
    ``floor - margin`` (a NaN bound compares false and stays live)."""
    floor = _cut_floor(thresholds)
    if not math.isfinite(floor):
        return list(range(len(representatives)))
    total, bound = row_bounds(estimator, representatives, query)
    margin = _cut_margin(len(query.terms), bound, floor)
    return [
        e for e in range(len(representatives))
        if not total[e] <= floor - margin[e]
    ]


def assert_kernel_rows_are_live(
    batches, estimator, representatives, query, thresholds
):
    """At most one product, and its rows are exactly the predicted live
    engines, in fleet order: each row reads the tails of that engine's
    scalar expansion at every threshold (the cut keeps those bits)."""
    live = predicted_live(estimator, representatives, query, thresholds)
    assert len(batches) == (1 if live else 0)
    if not live:
        return
    [batch] = batches
    assert batch.n_rows == len(live)
    for r, e in enumerate(live):
        got = batch.row(r).tail_profile(thresholds)
        want = estimator.expand(query, representatives[e]).tail_profile(
            thresholds
        )
        for got_side, want_side in zip(got, want):
            assert [v.hex() for v in got_side.tolist()] == [
                v.hex() for v in want_side.tolist()
            ], (e, thresholds)


def assert_grid_is_scalar(grid, estimator, representatives, query, thresholds):
    """Every cell bit-identical to the scalar ``estimate_many``."""
    for e, representative in enumerate(representatives):
        want = estimator.estimate_many(query, representative, thresholds)
        for t, threshold in enumerate(thresholds):
            got = grid[t][e]
            assert float(got.nodoc).hex() == float(want[t].nodoc).hex(), (
                e, threshold
            )
            assert float(got.avgsim).hex() == float(want[t].avgsim).hex(), (
                e, threshold
            )


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
    # One row per engine: THRESHOLDS reads -0.5, below every whole-row
    # bound (>= 0), so the bound rules no engine out.
    [batch] = batches
    assert batch.n_rows == len(store)
    for r in range(batch.n_rows):
        row = batch.row(r)
        assert abs(row.total_mass() - 1.0) < 1e-9

    for e, n in enumerate(store.n_documents.tolist()):
        nodoc = [grid[t][e].nodoc for t in range(len(THRESHOLDS))]
        assert all(0.0 <= value / n <= 1.0 + 1e-9 for value in nodoc)
        assert all(a >= b for a, b in zip(nodoc, nodoc[1:]))


cut_estimators = st.sampled_from([
    SubrangeEstimator,
    lambda: SubrangeEstimator(use_stored_max=False),
    BasicEstimator,
    BinaryIndependenceEstimator,
]).map(lambda make: make())

#: Fixed thresholds a cut set draws from: the grid's usual range plus the
#: values that read an empty tail (NaN, +inf) or everything (-inf).
CUT_THRESHOLDS = THRESHOLDS + [0.25, 0.7, math.nan, math.inf, -math.inf]


@st.composite
def drawn_representative(draw, name):
    """Statistics drawn directly rather than built from a corpus: small
    corpora put the top subrange median on the maximum weight, while
    here the max-weight singleton often sits well above every median —
    the slot a headroom must not skip."""
    n = draw(st.sampled_from([1, 2, 5, 20, 100]))
    with_max = draw(st.booleans())
    term_stats = {}
    for term in VOCAB:
        if draw(st.integers(0, 3)) == 0:
            continue  # most terms present, so queries match several
        mean = draw(st.sampled_from([0.05, 0.2, 0.35, 0.5]))
        term_stats[term] = TermStats(
            draw(st.integers(1, n)) / n,
            mean,
            draw(st.sampled_from([0.0, 0.01, 0.1, 0.3])),
            mean + draw(st.sampled_from([0.0, 0.05, 0.3, 0.45]))
            if with_max else None,
        )
    return DatabaseRepresentative(name, n_documents=n, term_stats=term_stats)


fleet_representatives = st.one_of(
    st.builds(
        representatives_of, st.lists(corpora, min_size=1, max_size=12),
        st.booleans(),
    ),
    st.integers(1, 12).flatmap(
        lambda k: st.tuples(*(drawn_representative(f"r{e}") for e in range(k)))
    ).map(list),
)


#: Thresholds taken from an engine's own expansion: ``(engine, k, below,
#: position)`` reads the ``k``-th largest exponent of engine ``engine``'s
#: scalar expansion (or the float just below it) and inserts it at
#: ``position`` — the top of the expansion is where a cut that drops a
#: reachable term shows.
expansion_picks = st.lists(
    st.tuples(
        st.integers(0, 11), st.integers(1, 4), st.booleans(), st.integers(0, 7)
    ),
    max_size=3,
)

#: The kind of fleet the mutation example below runs on: one engine
#: whose max-weight singleton sits far above every subrange median.
SINGLETON_ABOVE_MEDIANS = [
    DatabaseRepresentative("r0", n_documents=20, term_stats={
        "w0": TermStats(0.5, 0.2, 0.01, 0.65),
        "w1": TermStats(0.5, 0.2, 0.01, 0.65),
    })
]


@given(
    estimator=cut_estimators,
    representatives=fleet_representatives,
    query=queries,
    # The cut follows the *smallest* threshold, so half the sets hold
    # only the expansion's own exponents.
    fixed=st.one_of(
        st.just([]), st.lists(st.sampled_from(CUT_THRESHOLDS), max_size=4)
    ),
    picks=expansion_picks,
)
@example(  # a headroom that skips the singleton slot cuts the top term
    estimator=SubrangeEstimator(),
    representatives=SINGLETON_ABOVE_MEDIANS,
    query=Query(("w0", "w1"), (1.0, 1.0)),
    fixed=[],
    picks=[(0, 1, True, 0)],
)
@settings(max_examples=150, deadline=None)
def test_threshold_cut_keeps_mass_and_matches_the_scalar_estimator(
    estimator, representatives, query, fixed, picks
):
    thresholds = list(fixed)
    for engine, k, below, position in picks:
        exponents = estimator.expand(
            query, representatives[engine % len(representatives)]
        ).exponents
        if exponents.size:
            value = float(exponents[-min(k, exponents.size)])
            if below:
                value = math.nextafter(value, -math.inf)
            thresholds.insert(position % (len(thresholds) + 1), value)
    store = FleetRepresentativeStore()
    for representative in representatives:
        store.add(representative)
    with recorded_batches() as batches:
        grid = fleet_usefulness_grid(estimator, store, query, thresholds)
    assert_kernel_rows_are_live(
        batches, estimator, representatives, query, thresholds
    )
    for batch in batches:
        for r in range(batch.n_rows):
            assert abs(
                batch.row(r).total_mass() + batch.cut_mass[r] - 1.0
            ) < 1e-9
    assert_grid_is_scalar(grid, estimator, representatives, query, thresholds)


def dead_edge(total, bound, n_terms):
    """The smallest floor at which a row with whole-row bound ``total``
    is dead: ``total <= floor - margin(floor)`` there and not one float
    below."""
    def dead_at(floor):
        return total <= floor - _cut_margin(n_terms, bound, floor)

    floor = total + _cut_margin(n_terms, bound, total)
    while not dead_at(floor):
        floor = math.nextafter(floor, math.inf)
    while dead_at(math.nextafter(floor, -math.inf)):
        floor = math.nextafter(floor, -math.inf)
    return floor


#: ``(engine, where)``: a threshold at engine ``engine``'s whole-row bound
#: (``at``), one float either side of it, exactly at the floor where the
#: row turns dead (``edge``), or one float below that.
boundary_picks = st.lists(
    st.tuples(
        st.integers(0, 11),
        st.sampled_from(["at", "above", "below", "edge", "below-edge"]),
    ),
    max_size=3,
)


def boundary_thresholds(estimator, representatives, query, picks, specials):
    total, bound = row_bounds(estimator, representatives, query)
    thresholds = []
    for engine, where in picks:
        e = engine % len(representatives)
        at = float(total[e])
        if where in ("edge", "below-edge"):
            at = dead_edge(float(total[e]), float(bound[e]), len(query.terms))
        if where in ("below", "below-edge"):
            at = math.nextafter(at, -math.inf)
        elif where == "above":
            at = math.nextafter(at, math.inf)
        thresholds.append(at)
    return thresholds + list(specials)


@given(
    estimator=cut_estimators,
    representatives=fleet_representatives,
    query=queries,
    picks=boundary_picks,
    specials=st.lists(
        st.sampled_from([math.nan, math.inf, -math.inf]), max_size=2
    ),
)
@example(  # every engine dead: the query's only term is one none holds
    estimator=SubrangeEstimator(),
    representatives=[
        DatabaseRepresentative("r0", n_documents=5, term_stats={
            "w0": TermStats(0.4, 0.3, 0.1, 0.6),
        })
    ],
    query=Query(("w1",), (1.0,)),
    picks=[(0, "edge")],
    specials=[],
)
@example(  # the floor where the row just turns dead, and one float below
    estimator=SubrangeEstimator(),
    representatives=SINGLETON_ABOVE_MEDIANS,
    query=Query(("w0", "w1"), (1.0, 1.0)),
    picks=[(0, "edge")],
    specials=[],
)
@example(
    estimator=SubrangeEstimator(),
    representatives=SINGLETON_ABOVE_MEDIANS,
    query=Query(("w0", "w1"), (1.0, 1.0)),
    picks=[(0, "below-edge")],
    specials=[],
)
@settings(max_examples=150, deadline=None)
def test_whole_row_bound_skips_exactly_the_engines_that_cannot_pass(
    estimator, representatives, query, picks, specials
):
    thresholds = boundary_thresholds(
        estimator, representatives, query, picks, specials
    )
    store = FleetRepresentativeStore()
    for representative in representatives:
        store.add(representative)
    with recorded_batches() as batches:
        grid = fleet_usefulness_grid(estimator, store, query, thresholds)
    assert_kernel_rows_are_live(
        batches, estimator, representatives, query, thresholds
    )
    live = set(predicted_live(estimator, representatives, query, thresholds))
    zero = (0.0).hex()
    for e, representative in enumerate(representatives):
        if e in live:
            continue
        for value in estimator.estimate_many(query, representative, thresholds):
            assert (value.nodoc.hex(), value.avgsim.hex()) == (zero, zero)
    assert_grid_is_scalar(grid, estimator, representatives, query, thresholds)
