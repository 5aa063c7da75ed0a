"""The reference the differential suites compare the broker against.

The broker computes every estimate through the columnar fleet grid; the
paper's scalar estimators looped over dict representatives are what that
grid must equal, bit for bit.  ``ScalarOracle`` is exactly that loop — no
fleet store, no caches, no grid — behind the broker's estimate surface, so
a suite (or ``GatewayApp``'s ``/estimate``) can take it wherever it took a
broker.
"""

from repro.core import SubrangeEstimator
from repro.metasearch import EstimatedUsefulness
from repro.metasearch.broker import broadcast_thresholds
from repro.representatives import build_representative


class HalvedSubrange(SubrangeEstimator):
    """A subclass whose override changes the numbers.  Not an exact batched
    type, so the grid evaluates it per engine row with its own code — the
    path that builds factors one ``term_polynomial`` call at a time and
    hence the one that uses the term-polynomial cache."""

    def term_polynomial(self, u, stats, context):
        exponents, coeffs = super().term_polynomial(u, stats, context)
        return exponents * 0.5, coeffs


class ScalarOracle:
    def __init__(self, estimator=None):
        self.estimator = estimator or SubrangeEstimator()
        self.representatives = {}

    def register(self, engine, representative=None, **_):
        if representative is None:
            representative = build_representative(engine)
        self.representatives[engine.name] = representative

    @property
    def engine_names(self):
        return sorted(self.representatives)

    def estimate_all(self, query, threshold):
        row = [
            EstimatedUsefulness(
                engine=name,
                usefulness=self.estimator.estimate(query, rep, threshold),
            )
            for name, rep in self.representatives.items()
        ]
        return sorted(row, key=lambda e: e.sort_key)

    def estimate_batch(self, queries, thresholds):
        queries = list(queries)
        per_query = broadcast_thresholds(queries, thresholds)
        return [self.estimate_all(q, t) for q, t in zip(queries, per_query)]
