"""Command-line interface (``repro-usefulness``, ``python -m repro``).

Subcommands, one module per group::

    # paper.py: the paper's corpora, estimates and tables
    repro-usefulness synth --out-dir data/          # corpora + query log
    repro-usefulness represent --collection data/D1.jsonl.gz --out D1.rep.json
    repro-usefulness estimate --collection ... --query "terms ..." --threshold 0.2
    repro-usefulness evaluate --database D1 D2 D3    # Tables 1-12
    repro-usefulness analyze --collection data/D1.jsonl.gz
    repro-usefulness allocate --representatives *.rep.json --query "..." -k 10
    repro-usefulness import-trec wsj/*.sgml --name WSJ --out WSJ.jsonl.gz
    repro-usefulness scalability --synthetic        # Section 3.2 sizing
    # representatives.py: representative files
    repro-usefulness convert-rep D1.rep.json D1.rep.npz
    repro-usefulness rep-diff old.rep.json new.rep.json
    # demos.py: the broker over a synthetic fleet
    repro-usefulness fleet --groups 16 --workers 8 --timeout 2.0
    repro-usefulness stats --format prometheus
    repro-usefulness batch --mode search --compare-serial
    # harness.py: selection scored over the golden strata
    repro-usefulness eval --config columnar --out-dir results
    # serve.py: the serving roles
    repro-usefulness serve engine --collection data/D1.jsonl.gz --port 8751
    repro-usefulness serve gateway --engines http://127.0.0.1:8751
    repro-usefulness serve shard --collections data/D1.jsonl.gz --shard-index 0
    repro-usefulness serve coordinator --shards 4 --collections data/*.jsonl.gz

Every command prints plain text to stdout; all randomness is seeded.  A
command that refuses its options raises
:class:`~repro.cli.common.UsageError`: :func:`main` prints ``error:
<message>`` to stderr and returns 2.
"""

from repro.cli.entry import build_parser, main

__all__ = ["main", "build_parser"]
