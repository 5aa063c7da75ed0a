"""Shared fixtures for the benchmark harness.

The expensive artifacts — the full-size synthetic D1/D2/D3 and the
6,234-query log — are built once per session and shared.  The paper's
Tables 1-12 are not benches: ``repro evaluate --database D1 D2 D3``
reproduces them (``results/paper_tables.txt``).  Environment knobs:

* ``REPRO_BENCH_QUERIES`` — query-log size (default 6234, the paper's).
* ``REPRO_BENCH_SEED`` — corpus seed (default 1999).

Run with ``pytest benchmarks/ --benchmark-only``.  Each bench prints its
table to stdout (pass ``-s`` to stream it) and writes it under
``benchmarks/results/``.
"""

from __future__ import annotations

import pytest

from repro.corpus.synth import NewsgroupModel, QueryLogModel, build_paper_databases
from repro.engine import SearchEngine
from repro.representatives import build_representative

from _bench_utils import BENCH_QUERIES, BENCH_SEED


@pytest.fixture(scope="session")
def corpus_model():
    return NewsgroupModel(seed=BENCH_SEED)


@pytest.fixture(scope="session")
def databases(corpus_model):
    """{'D1'|'D2'|'D3': (engine, exact_representative)}."""
    d1, d2, d3 = build_paper_databases(corpus_model)
    out = {}
    for collection in (d1, d2, d3):
        engine = SearchEngine(collection)
        out[collection.name] = (engine, build_representative(engine))
    return out


@pytest.fixture(scope="session")
def query_log(corpus_model):
    return QueryLogModel(corpus_model).generate(BENCH_QUERIES)
