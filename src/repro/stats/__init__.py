"""Statistical substrate used throughout the reproduction.

This subpackage is deliberately self-contained: the estimators in
:mod:`repro.core` only ever need the standard normal distribution and the
one-byte quantizer of Section 3.2 of the paper.  Everything here is implemented from scratch (and validated against
scipy in the test suite) so the library has no heavyweight runtime
dependencies beyond numpy.
"""

from repro.stats.normal import (
    normal_cdf,
    normal_pdf,
    normal_quantile,
    truncated_normal_mean_above,
    truncated_normal_tail_mass,
)
from repro.stats.quantization import OneByteQuantizer, QuantizationGrid

__all__ = [
    "OneByteQuantizer",
    "QuantizationGrid",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "truncated_normal_mean_above",
    "truncated_normal_tail_mass",
]
