"""The root parser, its subcommands in ``--help`` order, and
:func:`main`, the one place a :class:`~repro.cli.common.UsageError`
becomes ``error: <message>`` on stderr and exit status 2."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import demos, harness, paper, representatives, serve
from repro.cli.common import UsageError
from repro.version import package_version


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-usefulness",
        description="Usefulness estimation for metasearch engine selection "
        "(Meng et al., ICDE 1999 reproduction).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (
        paper.add_synth,
        paper.add_represent,
        paper.add_estimate,
        paper.add_evaluate,
        representatives.add_convert_rep,
        representatives.add_rep_diff,
        paper.add_analyze,
        paper.add_allocate,
        paper.add_import_trec,
        demos.add_fleet,
        demos.add_stats,
        demos.add_batch,
        serve.add_serve,
        harness.add_eval,
        paper.add_scalability,
    ):
        add(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
