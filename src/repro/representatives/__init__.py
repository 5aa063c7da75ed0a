"""Database representatives: the compact per-term statistics a metasearch
engine keeps about each local search engine.

The paper's full representative stores a quadruplet per distinct term —
``(p, w, sigma, mw)``: occurrence probability, mean and standard deviation of
the term's normalized weights over the documents containing it, and the
maximum normalized weight.  Builders derive these from an engine's inverted
index; :mod:`repro.representatives.quantized` applies the one-byte
approximation of Section 3.2; :mod:`repro.representatives.sizing` reproduces
the scalability accounting.
"""

from repro.representatives.builder import build_representative
from repro.representatives.columnar import (
    BrokerVocabulary,
    ColumnarRepresentative,
    FleetRepresentativeRef,
    FleetRepresentativeStore,
    partition_round_robin,
)
from repro.representatives.quantized import quantize_representative
from repro.representatives.representative import DatabaseRepresentative
from repro.representatives.sizing import (
    PAPER_COLLECTION_STATS,
    CollectionSizing,
    representative_size_bytes,
    sizing_for_collection,
)
from repro.representatives.subrange import SubrangeScheme
from repro.representatives.term_stats import TermStats

__all__ = [
    "BrokerVocabulary",
    "CollectionSizing",
    "ColumnarRepresentative",
    "DatabaseRepresentative",
    "FleetRepresentativeRef",
    "FleetRepresentativeStore",
    "PAPER_COLLECTION_STATS",
    "SubrangeScheme",
    "TermStats",
    "build_representative",
    "partition_round_robin",
    "quantize_representative",
    "representative_size_bytes",
    "sizing_for_collection",
]
