"""Metasearch engine — the top level of the paper's architecture.

A :class:`MetasearchBroker` keeps one database representative per registered
local search engine, ranks the engines for each incoming query with a
usefulness estimator, forwards the query only to the selected engines, and
merges their results under the global similarity function.
"""

from repro.metasearch.allocation import (
    allocate_documents,
    expected_nodoc_at,
    threshold_for_k,
)
from repro.metasearch.broker import (
    MetasearchBroker,
    MetasearchResponse,
)
from repro.metasearch.cache import EstimateCache, TermPolynomialCache
from repro.metasearch.dispatch import (
    ConcurrentDispatcher,
    DispatchReport,
    EngineFailure,
)
from repro.metasearch.merge import merge_hits
from repro.metasearch.selection import (
    EstimatedUsefulness,
    SelectionPolicy,
    ThresholdPolicy,
    TopKPolicy,
)

__all__ = [
    "ConcurrentDispatcher",
    "DispatchReport",
    "EngineFailure",
    "EstimateCache",
    "EstimatedUsefulness",
    "MetasearchBroker",
    "MetasearchResponse",
    "SelectionPolicy",
    "TermPolynomialCache",
    "ThresholdPolicy",
    "TopKPolicy",
    "allocate_documents",
    "expected_nodoc_at",
    "merge_hits",
    "threshold_for_k",
]
