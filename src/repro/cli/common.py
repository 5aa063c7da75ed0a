"""What the command groups share: the one usage-error path, the option
groups several commands declare, and the broker build."""

from __future__ import annotations

import argparse
import contextlib

from repro.corpus import Collection, Document
from repro.metasearch import MetasearchBroker


class UsageError(Exception):
    """Options a command refuses: :func:`repro.cli.main` prints ``error:
    <message>`` to stderr and exits 2."""


@contextlib.contextmanager
def usage_errors(*kinds: type, prefix: str = ""):
    """Raise any of ``kinds`` (default ``ValueError``: a value the library
    refused) out of the block as a :class:`UsageError`, its message
    after ``prefix``."""
    try:
        yield
    except kinds or (ValueError,) as exc:
        raise UsageError(f"{prefix}{exc}") from exc


def at_least_one(args: argparse.Namespace, *flags: str) -> None:
    """A usage error unless every option of ``flags`` (``"--queries"``, ...)
    is >= 1."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")


def seed_options(parser: argparse.ArgumentParser) -> None:
    """``--seed`` (the synthetic corpus) and ``--query-seed`` (its query log)."""
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--query-seed", type=int, default=42)


def deadline_options(parser: argparse.ArgumentParser) -> None:
    """A fan-out's ``--timeout`` and ``--retries``."""
    parser.add_argument("--timeout", type=float, default=None,
                        help="fan-out deadline in seconds; a call that "
                             "misses it fails for that request (default: "
                             "none)")
    parser.add_argument("--retries", type=int, default=0,
                        help="extra attempts after a failed call")


def dispatch_options(parser: argparse.ArgumentParser, workers: int) -> None:
    """A broker's dispatch options: ``--workers`` (default ``workers``),
    ``--timeout``, ``--retries`` and ``--cache-size``."""
    parser.add_argument("--workers", type=int, default=workers,
                        help="engine-call threads of a fan-out with a "
                             "--timeout over in-process engines (a "
                             "--timeout needs 2 or more); every other "
                             "fan-out runs on the caller's thread")
    deadline_options(parser)
    parser.add_argument("--cache-size", type=int, default=1024,
                        help="estimate cache capacity (0 disables)")


def dispatch_settings(args: argparse.Namespace) -> dict:
    """The broker keywords of the :func:`dispatch_options` ``args`` holds."""
    return {"workers": args.workers, "timeout": args.timeout,
            "retries": args.retries, "cache_size": args.cache_size}


def make_broker(**options) -> MetasearchBroker:
    """The broker of ``options``; a value it refuses is a usage error."""
    with usage_errors():
        return MetasearchBroker(**options)


def collection_documents(collection: Collection) -> list:
    """``collection``'s documents, in order, as a live engine takes them."""
    return [
        Document(doc_id=collection.doc_id(i), terms=collection.terms_of(i))
        for i in range(len(collection))
    ]
