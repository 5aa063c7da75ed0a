"""Differential wall: the vectorized grid vs the scalar estimators on
every configuration that used to demote to the scalar path.

Before the batched :class:`~repro.core.genfunc.BatchedGenFunc` product,
:func:`repro.core.fleet_usefulness_grid` routed several expansion
configurations through per-engine scalar ``GenFunc`` work: triplet mode,
for one, skipped the parallel merge.  Those guards are gone — the batched kernel implements the exact scalar
semantics — so this suite sweeps each formerly-guarded configuration
across all five vectorized estimator families and asserts:

* the grid equals the scalar estimator **bit-for-bit** (``float.hex``
  equality, never ``approx``) on every engine x threshold cell,
* the sweep completes with **zero** scalar-fallback demotions
  (:func:`repro.core.fallback_count`) — the equality is earned by the
  batched kernel, not by quietly re-running the scalar code, and
* the *only* remaining demotion trigger — exponents whose rounding
  scaling overflows float64 — still demotes, is still counted, and still
  returns scalar-identical bits.

Fleet shapes covered: a correlated synthetic fleet, mutually disjoint
vocabularies, query terms unknown to every engine, and
overflow-adjacent weights on both sides of the demotion boundary.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BasicEstimator,
    BinaryIndependenceEstimator,
    GlossDisjointEstimator,
    GlossHighCorrelationEstimator,
    SubrangeEstimator,
    fallback_count,
    fleet_usefulness_grid,
    reset_fallback_count,
)
from repro.corpus import Query
from repro.corpus.synth import NewsgroupModel, QueryLogModel
from repro.engine import SearchEngine
from repro.representatives import (
    DatabaseRepresentative,
    FleetRepresentativeStore,
    SubrangeScheme,
    TermStats,
    build_representative,
)

THRESHOLDS = (0.0, 0.1, 0.3, 0.6, 1.5)
N_QUERIES = 12

# Every estimator configuration that used to trip a scalar fallback, plus
# the non-expansion families for completeness.  IDs name the
# formerly-guarded configuration.
CONFIGS = [
    pytest.param(lambda: SubrangeEstimator(), id="subrange-default"),
    pytest.param(
        lambda: SubrangeEstimator(use_stored_max=False), id="subrange-triplet"
    ),
    pytest.param(
        lambda: SubrangeEstimator(
            scheme=SubrangeScheme.equal(4, include_max=False)
        ),
        id="subrange-no-max-singleton",
    ),
    pytest.param(lambda: BasicEstimator(), id="basic"),
    pytest.param(lambda: BinaryIndependenceEstimator(), id="binary"),
    pytest.param(lambda: GlossHighCorrelationEstimator(), id="gloss-hc"),
    pytest.param(lambda: GlossDisjointEstimator(), id="gloss-dj"),
]


def _exact(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def _store_of(reps):
    store = FleetRepresentativeStore()
    for rep in reps:
        store.add(rep)
    return store


def assert_grid_matches_scalar(estimator, reps, queries, thresholds=THRESHOLDS):
    store = _store_of(reps)
    for query in queries:
        nodoc, avgsim = fleet_usefulness_grid(estimator, store, query, thresholds)
        assert nodoc.shape == avgsim.shape == (len(thresholds), len(reps))
        for t, threshold in enumerate(thresholds):
            for e, rep in enumerate(reps):
                want = estimator.estimate(query, rep, threshold)
                assert _exact(nodoc[t, e], want.nodoc), (
                    f"nodoc diverged: {rep.name} q={query.terms} "
                    f"t={threshold}: {nodoc[t, e]!r} != {want.nodoc!r}"
                )
                assert _exact(avgsim[t, e], want.avgsim), (
                    f"avgsim diverged: {rep.name} q={query.terms} "
                    f"t={threshold}: {avgsim[t, e]!r} != {want.avgsim!r}"
                )


@pytest.fixture(scope="module")
def synth_fleet():
    model = NewsgroupModel(
        vocab_size=2000,
        topic_size=90,
        topic_band=(40, 900),
        mean_length=60,
        seed=1999,
        group_sizes=[30, 25, 20, 15],
    )
    engines = [SearchEngine(model.generate_group(g)) for g in range(4)]
    reps = [build_representative(e) for e in engines]
    queries = QueryLogModel(model, seed=7).generate(N_QUERIES)
    return reps, queries


@pytest.fixture(scope="module")
def disjoint_fleet():
    """Engines with mutually disjoint vocabularies — every query matches
    at most one engine, the rest expand the empty product."""
    reps = []
    for e in range(3):
        stats = {
            f"only{e}-{t}": TermStats(
                probability=0.2 + 0.1 * t,
                mean=0.15 + 0.05 * e,
                std=0.04 * (t + 1),
                max_weight=0.6 + 0.1 * e,
            )
            for t in range(4)
        }
        reps.append(DatabaseRepresentative(f"dj{e}", 40 + 10 * e, stats))
    queries = [
        Query(terms=("only0-0", "only1-1"), weights=(0.7, 0.3)),
        Query(terms=("only2-0", "only2-3"), weights=(0.5, 0.5)),
        Query(terms=("only0-2",), weights=(1.0,)),
    ]
    return reps, queries


class TestFormerFallbackConfigs:
    """Every formerly-guarded configuration runs fully batched and equals
    the scalar estimator bit-for-bit."""

    @pytest.mark.parametrize("factory", CONFIGS)
    def test_synthetic_fleet(self, synth_fleet, factory):
        reps, queries = synth_fleet
        reset_fallback_count()
        assert_grid_matches_scalar(factory(), reps, queries)
        assert fallback_count() == 0, (
            "a formerly-guarded configuration demoted engines to the "
            "scalar path — the batched kernel must cover it"
        )

    @pytest.mark.parametrize("factory", CONFIGS)
    def test_disjoint_vocabularies(self, disjoint_fleet, factory):
        reps, queries = disjoint_fleet
        reset_fallback_count()
        assert_grid_matches_scalar(factory(), reps, queries)
        assert fallback_count() == 0


class TestUnknownTerms:
    @pytest.mark.parametrize("factory", CONFIGS)
    def test_ghost_terms_mixed_and_all_unknown(self, synth_fleet, factory):
        reps, queries = synth_fleet
        known = list(queries[0].terms)
        ghost_queries = [
            Query(
                terms=(known[0], "ghost-term-a"),
                weights=(0.6, 0.4),
            ),
            Query(terms=("ghost-term-a", "ghost-term-b"), weights=(0.5, 0.5)),
        ]
        reset_fallback_count()
        assert_grid_matches_scalar(factory(), reps, ghost_queries)
        assert fallback_count() == 0


class TestOverflowBoundary:
    """The one remaining demotion trigger: exponents whose ``np.round``
    scaling overflows float64."""

    @staticmethod
    def _rep(name, magnitude):
        stats = {
            "huge": TermStats(
                probability=0.5, mean=magnitude, std=0.0, max_weight=magnitude
            ),
            "plain": TermStats(
                probability=0.4, mean=0.2, std=0.05, max_weight=0.7
            ),
        }
        return DatabaseRepresentative(name, 50, stats)

    def test_near_boundary_stays_vectorized(self):
        # 1e280 * 10**8 = 1e288 — far below the 1e306 overflow guard, so
        # these rows must stay in the batched kernel.
        reps = [self._rep("near", 1e280), self._rep("small", 0.9)]
        queries = [Query(terms=("huge", "plain"), weights=(0.5, 0.5))]
        reset_fallback_count()
        assert_grid_matches_scalar(SubrangeEstimator(), reps, queries)
        assert fallback_count() == 0

    def test_overflowing_rows_demote_counted_and_exact(self):
        # 1e305 * 10**8 overflows; the affected engine must demote to the
        # scalar GenFunc (counted), while the healthy engine stays batched
        # — and both still match the scalar estimator exactly.
        import numpy as np

        reps = [self._rep("boom", 1e305), self._rep("small", 0.9)]
        queries = [Query(terms=("huge", "plain"), weights=(0.5, 0.5))]
        reset_fallback_count()
        with np.errstate(over="ignore"):
            assert_grid_matches_scalar(SubrangeEstimator(), reps, queries)
        assert fallback_count() == len(queries), (
            "exactly the overflowing engine should demote, once per query"
        )
