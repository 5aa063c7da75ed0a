"""Representative files: ``convert-rep`` (JSON <-> columnar ``.npz``) and
``rep-diff`` (two snapshots -> the equivalent delta)."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.common import UsageError
from repro.representatives import DatabaseRepresentative


def add_convert_rep(sub) -> None:
    p = sub.add_parser(
        "convert-rep",
        help="convert a representative between JSON and columnar .npz",
    )
    p.add_argument("input", help="source representative (.json or .npz)")
    p.add_argument(
        "output",
        help="destination; direction follows the .npz extension",
    )
    p.set_defaults(func=_cmd_convert_rep)


def _cmd_convert_rep(args: argparse.Namespace) -> int:
    """Convert a representative between JSON and the columnar ``.npz`` form."""
    from repro.representatives.columnar import ColumnarRepresentative

    src = Path(args.input)
    dst = Path(args.output)
    to_npz = dst.suffix == ".npz"
    if to_npz == (src.suffix == ".npz"):
        raise UsageError(
            "exactly one of input/output must end in .npz "
            f"(got {src.name!r} -> {dst.name!r})"
        )
    representative = _load_any_representative(src)
    if to_npz:
        ColumnarRepresentative.from_representative(representative).save_npz(dst)
    else:
        representative.save(dst)
    print(
        f"{src} ({src.stat().st_size} bytes) -> {dst} ({dst.stat().st_size} "
        f"bytes): {representative.name!r}, {len(representative)} terms, "
        f"{representative.n_documents} documents"
    )
    return 0


def add_rep_diff(sub) -> None:
    p = sub.add_parser(
        "rep-diff",
        help="diff two representative snapshots into the equivalent delta",
    )
    p.add_argument("old", help="older representative (.json or .npz)")
    p.add_argument("new", help="newer representative (.json or .npz)")
    p.add_argument("--from-version", type=int, default=0,
                   help="version stamp of the older snapshot")
    p.add_argument("--to-version", type=int, default=1,
                   help="version stamp of the newer snapshot")
    p.add_argument("--limit", type=int, default=20,
                   help="per-term records to print before truncating")
    p.add_argument("--out", default=None,
                   help="write the canonical wire-form delta JSON here")
    p.set_defaults(func=_cmd_rep_diff)


def _load_any_representative(path: Path):
    """A representative from JSON or the columnar ``.npz`` form, by suffix."""
    from repro.representatives.columnar import ColumnarRepresentative

    if path.suffix == ".npz":
        return ColumnarRepresentative.load_npz(path).to_representative()
    return DatabaseRepresentative.load(path)


def _cmd_rep_diff(args: argparse.Namespace) -> int:
    """Diff two representative snapshots into the equivalent delta."""
    from repro.fleet.delta import canonicalize, diff_representatives

    old = canonicalize(_load_any_representative(Path(args.old)))
    new = canonicalize(_load_any_representative(Path(args.new)))
    if old.name != new.name:
        raise UsageError(
            f"representatives name different databases "
            f"({old.name!r} vs {new.name!r})"
        )
    delta = diff_representatives(
        old, new, from_version=args.from_version, to_version=args.to_version
    )
    print(
        f"{args.old} -> {args.new}: {delta.n_sets} set, {delta.n_dels} del, "
        f"n_documents {delta.from_n_documents} -> {delta.n_documents}, "
        f"{delta.nbytes} wire bytes"
    )
    for shown, record in enumerate(delta.records):
        if shown >= args.limit:
            print(f"  ... {len(delta.records) - shown} more records "
                  "(raise --limit)")
            break
        before = old.get(record.term)
        if record.op == "del":
            print(f"  del {record.term!r} (was p={before.probability:.6g})")
        else:
            stats = record.stats
            was = (
                f"was p={before.probability:.6g} w={before.mean:.6g}"
                if before is not None
                else "new term"
            )
            print(
                f"  set {record.term!r} p={stats.probability:.6g} "
                f"w={stats.mean:.6g} ({was})"
            )
    if delta.is_empty:
        print("  (no per-term changes)")
    if args.out:
        Path(args.out).write_bytes(delta.encode())
        print(f"wrote canonical delta to {args.out} ({delta.nbytes} bytes)")
    return 0
