"""One-byte value quantization (Section 3.2 of the paper).

To shrink a database representative from 20 to 8 bytes per term, the paper
replaces each stored number with a one-byte code: the value range is split
into 256 equal-length intervals, the *average* of the values falling in each
interval is recorded once per database, and every value is mapped to the
average of its interval.  :class:`OneByteQuantizer` implements exactly that
scheme (generalized to any number of levels so ablations can sweep it), and
:class:`QuantizationGrid` is the frozen result that can encode/decode values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["OneByteQuantizer", "QuantizationGrid"]


@dataclass(frozen=True)
class QuantizationGrid:
    """A fitted quantizer: interval layout plus per-interval decode values.

    Attributes:
        low: Lower bound of the covered value range.
        high: Upper bound of the covered value range.
        decode_values: ``levels`` floats; code ``i`` decodes to
            ``decode_values[i]``.  Intervals that received no training value
            decode to their own midpoint, so decoding any legal code is safe.
    """

    low: float
    high: float
    decode_values: np.ndarray

    @property
    def levels(self) -> int:
        """Number of quantization intervals (256 for the paper's scheme)."""
        return int(self.decode_values.size)

    def encode(self, values: Sequence[float]) -> np.ndarray:
        """Map ``values`` to integer codes in ``[0, levels)``.

        Values outside ``[low, high]`` are clamped to the boundary interval,
        mirroring how a deployed representative would treat a value drifting
        slightly out of the fitted range after incremental updates.
        """
        arr = np.asarray(values, dtype=float)
        span = self.high - self.low
        if span <= 0.0:
            return np.zeros(arr.shape, dtype=np.int64)
        codes = np.floor((arr - self.low) / span * self.levels).astype(np.int64)
        return np.clip(codes, 0, self.levels - 1)

    def decode(self, codes: Sequence[int]) -> np.ndarray:
        """Map integer codes back to their interval-average values."""
        idx = np.asarray(codes, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.levels):
            raise ValueError("quantization code out of range")
        return self.decode_values[idx]

    def roundtrip(self, values: Sequence[float]) -> np.ndarray:
        """Encode then decode ``values`` — the approximation the paper applies."""
        return self.decode(self.encode(values))


class OneByteQuantizer:
    """Fits :class:`QuantizationGrid` objects from observed values.

    Args:
        levels: Number of intervals; 256 reproduces the paper's one-byte
            scheme.
        low: Optional fixed lower bound (the paper fixes probabilities to the
            interval [0, 1]); inferred from the data when omitted.
        high: Optional fixed upper bound; inferred when omitted.
    """

    def __init__(self, levels: int = 256, low: float = None, high: float = None):
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels!r}")
        self._levels = levels
        self._low = low
        self._high = high

    @property
    def levels(self) -> int:
        return self._levels

    def fit(self, values: Sequence[float]) -> QuantizationGrid:
        """Fit a grid: per-interval averages of the training ``values``.

        Empty intervals decode to their midpoint.  An empty training set with
        no explicit bounds is an error — there is nothing to cover.
        """
        arr = np.asarray(values, dtype=float)
        low = self._low if self._low is not None else (
            float(arr.min()) if arr.size else None
        )
        high = self._high if self._high is not None else (
            float(arr.max()) if arr.size else None
        )
        if low is None or high is None:
            raise ValueError("cannot fit a quantizer with no values and no bounds")
        if high < low:
            raise ValueError(f"invalid bounds: high {high!r} < low {low!r}")

        levels = self._levels
        span = high - low
        edges = low + span * np.arange(levels + 1) / levels
        midpoints = (edges[:-1] + edges[1:]) / 2.0
        decode = midpoints.copy()
        if arr.size and span > 0.0:
            codes = np.clip(
                np.floor((arr - low) / span * levels).astype(np.int64),
                0,
                levels - 1,
            )
            sums = np.bincount(codes, weights=arr, minlength=levels)
            counts = np.bincount(codes, minlength=levels)
            filled = counts > 0
            decode[filled] = sums[filled] / counts[filled]
        elif arr.size:
            # Degenerate range: every value is identical.
            decode[:] = low
        return QuantizationGrid(low=low, high=high, decode_values=decode)
