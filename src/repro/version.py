"""Single source of the package version string.

The CLI's ``--version`` flag and the serving layer's ``Server`` /
``X-Repro-Version`` response headers must agree, so both read from here.
The installed distribution metadata wins (that is what an operator
deployed); a source checkout run straight off ``PYTHONPATH=src`` has no
metadata and falls back to the in-tree ``repro.__version__``.

The answer is resolved once per process: a lookup that misses scans every
``sys.path`` entry, and the serving layer stamps it on every response.
"""

from __future__ import annotations

import functools
from importlib import metadata

__all__ = ["package_version"]


@functools.cache
def package_version() -> str:
    """The version of the running repro distribution."""
    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        from repro import __version__

        return __version__
