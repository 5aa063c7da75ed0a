"""``python -m repro.cli`` — the repro-usefulness CLI."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
