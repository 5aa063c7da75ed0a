"""Live-fleet subsystem: incremental representative deltas.

The paper assumes representative propagation "can be done infrequently"
because the statistics tolerate staleness; this package makes being *right*
cheap instead.  Engines publish version-stamped
:class:`~repro.fleet.delta.RepresentativeDelta` objects describing exactly
which terms changed; brokers apply them bit-exactly to their columnar
representatives and evict only the affected cache entries.  The delta is
the only transfer: a whole representative is the delta from version 0,
the empty representative.
"""

from repro.fleet.delta import (
    DELTA_FORMAT,
    DELTA_KIND,
    RepresentativeDelta,
    TermDeltaRecord,
    canonicalize,
    diff_representatives,
    rescale_probability,
)
from repro.fleet.live import LiveEngineServer

__all__ = [
    "DELTA_FORMAT",
    "DELTA_KIND",
    "LiveEngineServer",
    "RepresentativeDelta",
    "TermDeltaRecord",
    "canonicalize",
    "diff_representatives",
    "rescale_probability",
]
