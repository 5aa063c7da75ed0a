"""Integration tests for the paper's single-term-query guarantee.

Section 3.1: when the highest subrange contains only the maximum normalized
weight (probability 1/n), the subrange method identifies exactly the
databases that truly contain a document above the threshold, for every
single-term query and every threshold that separates the databases' maximum
weights.
"""

import math

import numpy as np
import pytest

from repro.core import SubrangeEstimator
from repro.corpus import Collection, Document, Query
from repro.corpus.synth import word_for_term_id
from repro.engine import SearchEngine
from repro.fleet import LiveEngineServer
from repro.metasearch import MetasearchBroker
from repro.representatives import build_representative, quantize_representative

#: Engines whose normalized weights of term ``t`` are exact decimals:
#: tf (3, 4) -> 0.6 / 0.8, tf (7, 24) -> 0.28 / 0.96, tf 2 beside twelve
#: singletons -> 0.5, tf 1 beside a tf 3 and six singletons -> 0.25, a
#: lone ``t`` -> 1.0.  One engine never holds ``t``.
_TWELVE = [f"x{i}" for i in range(12)]
EXACT_WEIGHT_FLEET = {
    "e96": [["t"] * 24 + ["a"] * 7, ["t"] * 3 + ["a"] * 4, ["a", "b"]],
    "e80": [["t"] * 4 + ["b"] * 3, ["t"] * 7 + ["b"] * 24],
    "e60": [["t"] * 3 + ["c"] * 4, ["t"] * 3 + ["c"] * 4, ["c"]],
    "e50": [["t"] * 2 + _TWELVE, ["t"] + ["d"] * 3 + _TWELVE[:6]],
    "e28": [["t"] * 7 + ["g"] * 24],
    "e25": [["t"] + ["h"] * 3 + _TWELVE[6:]],
    "e100": [["t"], ["t"] * 3 + ["a"] * 4, ["a"]],
    "none": [["a", "b", "c"]],
}


@pytest.fixture(scope="module")
def fleet(small_model):
    engines = [SearchEngine(small_model.generate_group(g)) for g in range(6)]
    reps = {e.name: build_representative(e) for e in engines}
    return engines, reps


def single_term_queries(engines, limit=40):
    """Terms that occur in at least two engines, as single-term queries."""
    return shared_term_queries(
        [engine.collection.vocabulary for engine in engines], limit
    )


def shared_term_queries(vocabularies, limit):
    counts = {}
    for vocabulary in vocabularies:
        for term in vocabulary:
            counts[term] = counts.get(term, 0) + 1
    shared = sorted(t for t, c in counts.items() if c >= 2)
    rng = np.random.default_rng(0)
    rng.shuffle(shared)
    return [Query.from_terms([t]) for t in shared[:limit]]


class TestGuarantee:
    def test_selection_matches_oracle_between_max_weights(self, fleet):
        """For thresholds strictly between consecutive per-engine maximum
        normalized weights, estimated selection == true selection."""
        engines, reps = fleet
        estimator = SubrangeEstimator()
        checked = 0
        for query in single_term_queries(engines):
            term = query.terms[0]
            max_weights = sorted(
                {
                    reps[e.name].get(term).max_weight
                    for e in engines
                    if reps[e.name].get(term) is not None
                },
                reverse=True,
            )
            if len(max_weights) < 2:
                continue
            # Midpoints between consecutive distinct maxima.
            for hi, lo in zip(max_weights, max_weights[1:]):
                threshold = (hi + lo) / 2
                selected = {
                    e.name
                    for e in engines
                    if estimator.estimate(
                        query, reps[e.name], threshold
                    ).identifies_useful
                }
                truth = {
                    e.name
                    for e in engines
                    if e.max_similarity(query) > threshold
                }
                assert selected == truth, (term, threshold)
                checked += 1
        assert checked > 20  # the test actually exercised the property

    def test_estimated_max_sim_equals_true_max_sim(self, fleet):
        """For single-term queries the top expansion exponent is exactly the
        engine's true maximum similarity."""
        engines, reps = fleet
        estimator = SubrangeEstimator()
        for query in single_term_queries(engines, limit=15):
            for engine in engines:
                stats = reps[engine.name].get(query.terms[0])
                if stats is None:
                    continue
                expansion = estimator.expand(query, reps[engine.name])
                assert expansion.max_exponent() == pytest.approx(
                    engine.max_similarity(query), abs=1e-6
                )

    @staticmethod
    def assert_broker_guarantee(broker, engines, reps, limit=10):
        """``select == true_selection`` at the midpoint between the two
        largest per-engine maximum weights ``reps`` publishes for a term,
        wherever every engine's published maximum sits on the same side
        of that threshold as its true maximum similarity (always, for an
        exact representative)."""
        exercised = 0
        vocabularies = [
            [term for term, __ in reps[e.name].items()] for e in engines
        ]
        for query in shared_term_queries(vocabularies, limit):
            term = query.terms[0]
            published = {
                e.name: reps[e.name].get(term).max_weight
                for e in engines
                if reps[e.name].get(term) is not None
            }
            maxima = sorted(published.values(), reverse=True)
            if len(maxima) < 2 or maxima[0] - maxima[1] < 1e-9:
                continue
            threshold = (maxima[0] + maxima[1]) / 2
            if any(
                (published.get(e.name, 0.0) > threshold)
                != (e.max_similarity(query) > threshold)
                for e in engines
            ):
                continue  # quantization moved a maximum across the midpoint
            assert set(broker.select(query, threshold)) == set(
                broker.true_selection(query, threshold)
            ), (term, threshold)
            exercised += 1
        return exercised

    def test_broker_level_guarantee(self, fleet):
        """Same property via the metasearch broker's public API, from exact
        representatives and from one-byte quantized ones."""
        engines, reps = fleet
        broker = MetasearchBroker(estimator=SubrangeEstimator())
        for engine in engines:
            broker.register(engine, representative=reps[engine.name])
        assert self.assert_broker_guarantee(broker, engines, reps) > 0

        quantized = {
            name: quantize_representative(rep) for name, rep in reps.items()
        }
        for engine in engines:
            broker.register(engine, representative=quantized[engine.name])
        assert self.assert_broker_guarantee(
            broker, engines, quantized, limit=40
        ) > 5

    def test_broker_level_guarantee_after_delta(self, fleet):
        """The guarantee survives live mutation: a broker that registered a
        partial corpus and caught up through a representative delta selects
        exactly like the truth over the final corpus."""
        engines, __ = fleet
        broker = MetasearchBroker(estimator=SubrangeEstimator())
        lives = []
        for engine in engines:
            collection = engine.collection
            documents = [
                Document(collection.doc_id(i), terms=collection.terms_of(i))
                for i in range(len(collection))
            ]
            live = LiveEngineServer(engine.name, documents[:-3])
            broker.sync_representative(live)
            since = live.version
            live.remove_documents([documents[0].doc_id])
            live.add_documents(documents[-3:])
            report = broker.apply_representative_delta(live.delta_since(since))
            assert report.mode == "precise"
            lives.append(live)
        final = {
            live.name: live.delta_since(0).as_representative() for live in lives
        }
        assert self.assert_broker_guarantee(broker, lives, final, limit=40) > 5

    def test_broker_guarantee_at_the_exact_boundary(self):
        """The guarantee through the columnar broker with T *at* an
        engine's true maximum similarity (a similarity equal to T does not
        count, so the engine is out) and at the float just below it (the
        engine is in), for every engine holding the term.

        A single-term query has no later factor, so the expansion's
        threshold cut sits one rounding margin below T — the tightest it
        gets.  Raw-tf cosine weights from 3-4-5 and 7-24-25 triangles and
        over a norm of 4 are exact at the estimator's 8 decimals, so the
        estimator sees each true maximum with the same bits.  (Thresholds
        stay >= 0: below 0 every document of every engine exceeds T.)"""
        engines = [
            SearchEngine(Collection.from_documents(name, [
                Document(f"{name}-d{i}", terms) for i, terms in enumerate(docs)
            ]))
            for name, docs in EXACT_WEIGHT_FLEET.items()
        ]
        broker = MetasearchBroker(estimator=SubrangeEstimator())
        for engine in engines:
            broker.register(engine)
        query = Query.from_terms(["t"])
        maxima = {engine.name: engine.max_similarity(query) for engine in engines}
        assert sorted(maxima.values()) == [
            0.0, 0.25, 0.28, 0.5, 0.6, 0.8, 0.96, 1.0
        ]
        for name, top in maxima.items():
            if top == 0.0:
                continue  # the engine without the term
            for threshold, selected in (
                (top, False), (math.nextafter(top, -math.inf), True)
            ):
                truth = {e.name for e in engines if e.search(query, threshold)}
                chosen = set(broker.select(query, threshold))
                assert chosen == truth, (name, threshold)
                assert (name in chosen) is selected, (name, threshold)

    def test_guarantee_fails_without_stored_max(self, fleet):
        """Sanity: the triplet mode does NOT enjoy the guarantee — this is
        the entire point of Tables 10-12.  We only require that it errs at
        least once on the same threshold family."""
        engines, reps = fleet
        estimator = SubrangeEstimator(use_stored_max=False)
        disagreements = 0
        for query in single_term_queries(engines):
            term = query.terms[0]
            maxima = sorted(
                (
                    reps[e.name].get(term).max_weight
                    for e in engines
                    if reps[e.name].get(term) is not None
                ),
                reverse=True,
            )
            if len(maxima) < 2:
                continue
            threshold = (maxima[0] + maxima[1]) / 2
            for engine in engines:
                rep = reps[engine.name].as_triplets()
                estimate = estimator.estimate(query, rep, threshold)
                truly = engine.max_similarity(query) > threshold
                if estimate.identifies_useful != truly:
                    disagreements += 1
        assert disagreements > 0
