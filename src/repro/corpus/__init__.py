"""Corpus layer: documents, collections, persistence, synthetic generators.

A :class:`Collection` is the "database" of one local search engine in the
paper's two-level architecture.  Collections can be built from raw text (via
a :class:`repro.text.TextPipeline`), from pre-tokenized term lists (the
synthetic generator's output), merged (how the paper constructs D2 and D3),
and saved/loaded as JSON-lines.
"""

from repro.corpus.analysis import CorpusStatistics, analyze_collection, heaps_curve
from repro.corpus.collection import Collection
from repro.corpus.document import Document
from repro.corpus.io import load_collection, load_queries, save_collection, save_queries
from repro.corpus.query import MAX_QUERY_TERMS, Query, check_query_length
from repro.corpus.trec import iter_trec_documents, load_trec_collection

__all__ = [
    "MAX_QUERY_TERMS",
    "Collection",
    "CorpusStatistics",
    "Document",
    "Query",
    "analyze_collection",
    "check_query_length",
    "heaps_curve",
    "iter_trec_documents",
    "load_collection",
    "load_queries",
    "load_trec_collection",
    "save_collection",
    "save_queries",
]
