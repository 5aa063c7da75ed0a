"""Shared fixtures for the test suite.

Expensive artifacts (synthetic corpora, engines, representatives) are
session-scoped; tests must treat them as immutable.
"""

from __future__ import annotations

import os
import time
import types

import pytest
from hypothesis import settings as hypothesis_settings

from repro.corpus import Collection, Query
from repro.corpus.synth import NewsgroupModel, QueryLogModel
from repro.engine import SearchEngine
from repro.metasearch.deadlines import ambient_deadline
from repro.representatives import DatabaseRepresentative, TermStats, build_representative

# -- Hypothesis profiles -------------------------------------------------------
#
# "ci" is fully deterministic (derandomized, fixed example budget) so the
# GitHub Actions matrix cannot flake on pull requests; "ci-main" spends a
# larger randomized example budget on pushes to main, where a rare failure
# is a find rather than a blocked merge.  Select with HYPOTHESIS_PROFILE.

hypothesis_settings.register_profile(
    "ci", derandomize=True, max_examples=50, deadline=None
)
hypothesis_settings.register_profile(
    "ci-main", max_examples=400, deadline=None, print_blob=True
)
hypothesis_settings.register_profile("dev", deadline=None)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


# -- fault-injection engine doubles -------------------------------------------
#
# Wrappers around a real SearchEngine that misbehave only in ``search``;
# everything else (name, index, collection, max_similarity, ...) delegates,
# so representatives build normally and the oracle still works.


class EngineDouble:
    """Delegating wrapper base; subclasses override ``search``."""

    def __init__(self, inner: SearchEngine):
        self.inner = inner

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


class SlowEngine(EngineDouble):
    """Answers correctly after ``delay`` seconds — a slow/hung backend."""

    def __init__(self, inner: SearchEngine, delay: float):
        super().__init__(inner)
        self.delay = delay
        self.calls = 0

    def search(self, query, threshold=0.0):
        self.calls += 1
        time.sleep(self.delay)
        return self.inner.search(query, threshold)


class FlakyEngine(EngineDouble):
    """Raises on the first ``failures`` calls, then answers correctly."""

    def __init__(self, inner: SearchEngine, failures: int, exc=RuntimeError):
        super().__init__(inner)
        self.remaining_failures = failures
        self.exc = exc
        self.calls = 0

    def search(self, query, threshold=0.0):
        self.calls += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise self.exc(f"injected failure from {self.inner.name}")
        return self.inner.search(query, threshold)


class BrokenEngine(EngineDouble):
    """Raises on every call — a backend that is simply down."""

    def __init__(self, inner: SearchEngine, exc=ConnectionError):
        super().__init__(inner)
        self.exc = exc
        self.calls = 0

    def search(self, query, threshold=0.0):
        self.calls += 1
        raise self.exc(f"{self.inner.name} is down")


class DeadlineProbe(EngineDouble):
    """Answers correctly and records what each call observed of the
    request context: the ambient :class:`Deadline` (``None`` without one)."""

    def __init__(self, inner: SearchEngine):
        super().__init__(inner)
        self.observed = []

    def search(self, query, threshold=0.0):
        self.observed.append(ambient_deadline())
        return self.inner.search(query, threshold)


@pytest.fixture(scope="session")
def engine_doubles():
    """The fault-injection wrappers, importable from any test directory."""
    return types.SimpleNamespace(
        EngineDouble=EngineDouble,
        SlowEngine=SlowEngine,
        FlakyEngine=FlakyEngine,
        BrokenEngine=BrokenEngine,
        DeadlineProbe=DeadlineProbe,
    )

# -- the paper's worked example (Examples 3.1 / 3.2) ---------------------------

#: Document vectors of Example 3.1 (components on the three query terms).
EXAMPLE31_DOCS = [(3, 0, 0), (1, 1, 0), (0, 0, 2), (2, 0, 2), (0, 0, 0)]


@pytest.fixture(scope="session")
def example31_representative() -> DatabaseRepresentative:
    """The representative of the paper's Example 3.1 database: five
    documents, (p1,w1)=(0.6,2), (p2,w2)=(0.2,1), (p3,w3)=(0.4,2)."""
    return DatabaseRepresentative(
        "example31",
        n_documents=5,
        term_stats={
            "t1": TermStats(probability=0.6, mean=2.0, std=0.0, max_weight=3.0),
            "t2": TermStats(probability=0.2, mean=1.0, std=0.0, max_weight=1.0),
            "t3": TermStats(probability=0.4, mean=2.0, std=0.0, max_weight=2.0),
        },
    )


@pytest.fixture(scope="session")
def example31_query() -> Query:
    """q = (1, 1, 1) over the three terms, unnormalized as in the example."""
    return Query(terms=("t1", "t2", "t3"), weights=(1.0, 1.0, 1.0))


# -- tiny hand-made text corpus ---------------------------------------------------

TINY_TEXTS = [
    ("a1", "apple banana apple cherry"),
    ("a2", "banana cherry cherry"),
    ("a3", "apple apple apple"),
    ("a4", "durian elderberry fig"),
    ("a5", "fig grape banana"),
]


@pytest.fixture(scope="session")
def tiny_collection() -> Collection:
    """Five short fruit documents, stemming disabled for predictability."""
    from repro.text import TextPipeline

    return Collection.from_texts(
        "tiny", TINY_TEXTS, pipeline=TextPipeline(stem=False)
    )


@pytest.fixture(scope="session")
def tiny_engine(tiny_collection) -> SearchEngine:
    return SearchEngine(tiny_collection)


@pytest.fixture(scope="session")
def tiny_representative(tiny_engine) -> DatabaseRepresentative:
    return build_representative(tiny_engine)


# -- small synthetic corpus -------------------------------------------------------

SMALL_GROUP_SIZES = [60, 50, 40, 30, 25, 20, 15, 12, 10, 8]


@pytest.fixture(scope="session")
def small_model() -> NewsgroupModel:
    """A scaled-down newsgroup model: 10 groups, small vocabulary."""
    return NewsgroupModel(
        vocab_size=4000,
        topic_size=120,
        topic_band=(50, 1500),
        mean_length=80,
        seed=12345,
        group_sizes=SMALL_GROUP_SIZES,
    )


@pytest.fixture(scope="session")
def small_group0(small_model) -> Collection:
    return small_model.generate_group(0)


@pytest.fixture(scope="session")
def small_engine(small_group0) -> SearchEngine:
    return SearchEngine(small_group0)


@pytest.fixture(scope="session")
def small_representative(small_engine) -> DatabaseRepresentative:
    return build_representative(small_engine)


@pytest.fixture(scope="session")
def small_queries(small_model):
    return QueryLogModel(small_model, seed=99).generate(150)
