"""One-byte approximation of a representative (Section 3.2, Tables 7-9).

Each numeric field of the representative — probability, mean weight,
standard deviation, maximum normalized weight — is independently passed
through a 256-level :class:`~repro.stats.quantization.OneByteQuantizer`
fitted on that field's values across all terms of the database.
Probabilities use the fixed interval [0, 1] as the paper prescribes; the
other fields use their observed range.

This is the one quantizer: :func:`encode_representative` fits the grids
and codes every term (the form ``GET /representative?quantize=N`` ships),
:func:`decode_representative` turns decoded columns back into a plain
:class:`DatabaseRepresentative` — so every estimator runs on it unchanged —
and :func:`quantize_representative` is the two in sequence.  A
representative decoded off the wire therefore equals one quantized in
process.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.representatives.representative import DatabaseRepresentative
from repro.representatives.term_stats import TermStats
from repro.stats.quantization import OneByteQuantizer, QuantizationGrid

__all__ = [
    "FIELDS",
    "REQUIRED_FIELDS",
    "decode_representative",
    "encode_representative",
    "quantize_representative",
]

REQUIRED_FIELDS = ("probability", "mean", "std")
FIELDS = REQUIRED_FIELDS + ("max_weight",)


def encode_representative(
    representative: DatabaseRepresentative, levels: int = 256
) -> Tuple[List[str], Dict[str, Tuple[QuantizationGrid, np.ndarray]]]:
    """Fit one grid per field and code every term.

    Returns the terms in iteration order and ``{field: (grid, codes)}``.
    ``max_weight`` is coded only when every term stores one; an empty
    representative has no fields.
    """
    # Built first, so a bad ``levels`` is rejected even with nothing to fit.
    unit_interval = OneByteQuantizer(levels=levels, low=0.0, high=1.0)
    observed_range = OneByteQuantizer(levels=levels)
    items = list(representative.items())
    terms = [term for term, __ in items]
    stats = [s for __, s in items]
    columns = {}
    if stats:
        columns = {
            "probability": np.array([s.probability for s in stats]),
            "mean": np.array([s.mean for s in stats]),
            "std": np.array([s.std for s in stats]),
        }
        if all(s.max_weight is not None for s in stats):
            columns["max_weight"] = np.array([s.max_weight for s in stats])
    encoded = {}
    for field, values in columns.items():
        quantizer = unit_interval if field == "probability" else observed_range
        grid = quantizer.fit(values)
        encoded[field] = (grid, grid.encode(values))
    return terms, encoded


def decode_representative(
    name: str,
    n_documents: int,
    terms: Sequence[str],
    columns: Mapping[str, np.ndarray],
) -> DatabaseRepresentative:
    """The representative whose per-term statistics are the decoded
    ``columns`` (one value per term), each clamped to its domain:
    probabilities to [0, 1], the other fields to >= 0."""
    has_max = "max_weight" in columns
    term_stats = {}
    for i, term in enumerate(terms):
        term_stats[term] = TermStats(
            probability=float(np.clip(columns["probability"][i], 0.0, 1.0)),
            mean=float(max(columns["mean"][i], 0.0)),
            std=float(max(columns["std"][i], 0.0)),
            max_weight=(
                float(max(columns["max_weight"][i], 0.0)) if has_max else None
            ),
        )
    return DatabaseRepresentative(
        name=name, n_documents=n_documents, term_stats=term_stats
    )


def quantize_representative(
    representative: DatabaseRepresentative, levels: int = 256
) -> DatabaseRepresentative:
    """Return a copy of ``representative`` with every number one-byte coded.

    Args:
        representative: The exact representative to approximate.
        levels: Quantization levels; 256 is the paper's one-byte scheme, and
            ablation benchmarks sweep smaller values.
    """
    terms, encoded = encode_representative(representative, levels)
    return decode_representative(
        representative.name,
        representative.n_documents,
        terms,
        {field: grid.decode(codes) for field, (grid, codes) in encoded.items()},
    )
