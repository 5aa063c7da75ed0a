"""One-byte approximation of a representative (Section 3.2, Tables 7-9).

Each numeric field of the representative — probability, mean weight,
standard deviation, maximum normalized weight — is independently passed
through a 256-level :class:`~repro.stats.quantization.OneByteQuantizer`
fitted on that field's values across all terms of the database.
Probabilities use the fixed interval [0, 1] as the paper prescribes; the
other fields use their observed range.

:func:`quantize_representative` fits the grids, codes every term and
decodes the codes back into a plain :class:`DatabaseRepresentative`, so
every estimator runs on it unchanged.  ``repro serve gateway --quantize N``
applies it to each representative it receives, so a gateway estimates
exactly like a broker holding the quantized representatives in process.
"""

from __future__ import annotations

import numpy as np

from repro.representatives.representative import DatabaseRepresentative
from repro.representatives.term_stats import TermStats
from repro.stats.quantization import OneByteQuantizer

__all__ = ["quantize_representative"]


def quantize_representative(
    representative: DatabaseRepresentative, levels: int = 256
) -> DatabaseRepresentative:
    """Return a copy of ``representative`` with every number one-byte coded.

    ``max_weight`` is coded only when every term stores one.  Each decoded
    value is clamped to its domain: probabilities to [0, 1], the other
    fields to >= 0.

    Args:
        representative: The exact representative to approximate.
        levels: Quantization levels; 256 is the paper's one-byte scheme, and
            ablation benchmarks sweep smaller values.
    """
    # Built first, so a bad ``levels`` is rejected even with nothing to fit.
    unit_interval = OneByteQuantizer(levels=levels, low=0.0, high=1.0)
    observed_range = OneByteQuantizer(levels=levels)
    items = list(representative.items())
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
    decoded = {}
    for field, values in columns.items():
        quantizer = unit_interval if field == "probability" else observed_range
        grid = quantizer.fit(values)
        decoded[field] = grid.decode(grid.encode(values))
    has_max = "max_weight" in decoded
    term_stats = {}
    for i, (term, __) in enumerate(items):
        term_stats[term] = TermStats(
            probability=float(np.clip(decoded["probability"][i], 0.0, 1.0)),
            mean=float(max(decoded["mean"][i], 0.0)),
            std=float(max(decoded["std"][i], 0.0)),
            max_weight=(
                float(max(decoded["max_weight"][i], 0.0)) if has_max else None
            ),
        )
    return DatabaseRepresentative(
        name=representative.name,
        n_documents=representative.n_documents,
        term_stats=term_stats,
    )
