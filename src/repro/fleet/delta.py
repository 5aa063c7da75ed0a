"""Representative deltas: versioned, bit-exact updates — the only way a
representative crosses from an engine to a broker.

A :class:`RepresentativeDelta` carries a corpus mutation from an engine to
the broker without re-shipping the whole representative.  Records are
*state-based*: a ``set`` record carries the term's **final** quadruplet, a
``del`` record retracts the term.  Application is therefore idempotent and
trivially bit-exact — the broker ends up holding exactly the statistics a
fresh build would have produced, byte for byte.

Version 0 and the full delta
----------------------------
Version 0 is every engine's empty representative.  A delta from version 0
(``from_version == 0``, so ``from_n_documents == 0``) is a *full* delta:
one ``set`` record per term of the engine's current representative.  It is
what first contact, a compacted log, an engine restart and a shard's 409
re-ship all send, and a receiver applies it by replacing whatever it holds
(:meth:`RepresentativeDelta.as_representative`).  A ``del`` record in a
full delta is a no-op: its base is empty.

Untouched terms and the probability rescale
-------------------------------------------
When only the document count changes, every present term's probability
``p = df / n`` changes even though the term's weight distribution did not.
Shipping a record per term would defeat the delta.  Instead the delta
carries both document counts and the receiver rescales in place::

    df = rint(p_old * n_old)      # exact: df is an integer < 2**51
    p_new = df / n_new            # identical to what a fresh build computes

``p_old`` was originally produced as ``df / n_old`` in float64, so
``rint(p_old * n_old)`` recovers the integer ``df`` exactly, and ``df /
n_new`` is the very same division a full rebuild performs — the rescaled
probability is bit-identical, not merely close.  Mean, std and max weight
reduce the term's own posting weights, and each weight is document-local
(a raw-tf Cosine weight depends on its own document only — see
:mod:`repro.fleet.live`), so they are untouched by membership changes
elsewhere.  A term thus needs a record only when its *own* posting list
changed.

Canonical ordering
------------------
Delta-applied representatives list their terms in sorted term-string
order.  Estimators that reduce over the whole representative (the binary
independence baseline averages the per-term means) are sensitive to
iteration order in the last ulp, so the live pipeline fixes one canonical
order at both ends: a full delta's records are sorted by term (and
:func:`canonicalize` sorts a representative the same way), and delta
application
(:meth:`~repro.representatives.columnar.FleetRepresentativeStore.apply_delta`)
re-emits sorted terms.

Wire format
-----------
``encode()`` produces canonical ASCII JSON (sorted keys, no whitespace).
Floats round-trip exactly: ``json`` serializes the shortest decimal string
that parses back to the same float64.  Records are ordered deletions-first,
each group sorted by term, so equal deltas encode to equal bytes.
"""

from __future__ import annotations

import json
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.representatives.representative import DatabaseRepresentative
from repro.representatives.term_stats import TermStats

__all__ = [
    "DELTA_FORMAT",
    "DELTA_KIND",
    "RepresentativeDelta",
    "TermDeltaRecord",
    "canonicalize",
    "diff_representatives",
    "rescale_probability",
]

DELTA_KIND = "representative.delta"
DELTA_FORMAT = 1


def rescale_probability(probability: float, n_old: int, n_new: int) -> float:
    """Re-express ``df / n_old`` as ``df / n_new``, bit-exactly.

    ``rint`` recovers the integer document frequency exactly because
    ``df <= n_old`` is far below 2**51 and ``probability`` was itself
    computed as ``df / n_old`` in float64.
    """
    if n_old == n_new:
        return probability
    df = float(round(probability * n_old))
    return df / n_new if n_new else 0.0


class TermDeltaRecord(NamedTuple):
    """One term's change: ``set`` carries final stats, ``del`` retracts.

    ``stats`` is ``None`` exactly when ``op == "del"``.  A triplet-mode
    term is a ``set`` whose stats carry ``max_weight=None``.  A plain
    tuple, so a full delta's one record per term costs one object;
    :meth:`from_wire` checks outside input, and
    :class:`RepresentativeDelta` refuses any other op.
    """

    op: str
    term: str
    stats: Optional[TermStats] = None

    def to_wire(self) -> list:
        if self.op == "del":
            return ["del", self.term]
        s = self.stats
        return ["set", self.term, s.probability, s.mean, s.std, s.max_weight]

    @classmethod
    def from_wire(cls, record: list) -> "TermDeltaRecord":
        """Decode one record; anything but the two :meth:`to_wire` shapes
        raises :class:`ValueError` (the statistics' ranges are checked by
        :class:`TermStats`)."""
        if not isinstance(record, list) or len(record) not in (2, 6):
            raise ValueError(f"a delta record has 2 or 6 fields, got {record!r}")
        op, term, *stats = record
        if op != ("set" if stats else "del"):
            raise ValueError(f"op {op!r} does not fit a {len(record)}-field record")
        if not isinstance(term, str):
            raise ValueError(f"a delta record's term is a string, got {term!r}")
        if not stats:
            return cls(op, term)
        for value in stats[:3] if stats[3] is None else stats:  # mw may be null
            # JSON ``true`` is not a number; NaN fails the comparison; an
            # int past the float range would overflow the float64 columns.
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not abs(value) <= sys.float_info.max
            ):
                raise ValueError(f"a term statistic is a finite number, got {value!r}")
        return cls(op, term, TermStats(*stats))


_TERM = operator.itemgetter(1)
_STATS = operator.itemgetter(2)


def _canonical_records(
    records: Iterable[TermDeltaRecord],
) -> Tuple[TermDeltaRecord, ...]:
    """Deletions first, each group sorted by term; any other op, a ``set``
    without stats or a ``del`` with them, and duplicate terms raise."""
    records = tuple(records)
    dels = [r for r in records if r.op == "del"]
    sets = [r for r in records if r.op == "set"]
    if (
        len(dels) + len(sets) != len(records)
        or any(map(_STATS, dels))
        or None in map(_STATS, sets)
    ):
        raise ValueError("a record is a 'set' with stats or a 'del' without")
    dels.sort(key=_TERM)
    sets.sort(key=_TERM)
    ordered = tuple(dels + sets)
    if len(set(map(_TERM, ordered))) != len(ordered):
        raise ValueError("a delta holds two records for one term")
    return ordered


@dataclass(frozen=True)
class RepresentativeDelta:
    """A version-stamped change set for one engine's representative.

    Applies on top of version ``from_version`` (holding
    ``from_n_documents`` documents) and yields version ``to_version``
    (holding ``n_documents``).  Terms without a record rescale their
    probability via :func:`rescale_probability` and keep every other
    statistic untouched.  A delta from version 0 is :attr:`is_full`.
    """

    name: str
    from_version: int
    to_version: int
    from_n_documents: int
    n_documents: int
    records: Tuple[TermDeltaRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", _canonical_records(self.records))

    @property
    def terms(self) -> Tuple[str, ...]:
        """Every term this delta touches (sets and deletions)."""
        return tuple(record.term for record in self.records)

    @property
    def n_sets(self) -> int:
        return sum(1 for r in self.records if r.op == "set")

    @property
    def n_dels(self) -> int:
        return sum(1 for r in self.records if r.op == "del")

    @property
    def is_empty(self) -> bool:
        return not self.records and self.from_n_documents == self.n_documents

    @property
    def is_full(self) -> bool:
        """A delta from version 0, the empty representative: it carries
        the whole representative, and its receiver replaces what it holds."""
        return self.from_version == 0

    def as_representative(self) -> DatabaseRepresentative:
        """The representative a full delta carries: its ``set`` records in
        record (sorted-term) order.  A ``del`` record retracts a term from
        the empty base, so it is a no-op."""
        if not self.is_full or self.from_n_documents:
            raise ValueError(
                f"delta {self.from_version} -> {self.to_version} for "
                f"{self.name!r} is not a full delta"
            )
        return DatabaseRepresentative(self.name, self.n_documents, {
            record.term: record.stats
            for record in self.records
            if record.op == "set"
        })

    def to_json_dict(self) -> dict:
        return {
            "kind": DELTA_KIND,
            "format": DELTA_FORMAT,
            "name": self.name,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "from_n_documents": self.from_n_documents,
            "n_documents": self.n_documents,
            "records": [record.to_wire() for record in self.records],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RepresentativeDelta":
        """Decode the :meth:`to_json_dict` form.  The payload is outside
        input (an engine host's ``/representative`` answer):
        anything but a well-formed delta document raises ValueError."""
        if not isinstance(payload, dict) or payload.get("kind") != DELTA_KIND:
            raise ValueError("payload is not a representative delta")
        if payload.get("format") != DELTA_FORMAT:
            raise ValueError(f"unsupported delta format {payload.get('format')!r}")
        name, records = payload.get("name"), payload.get("records")
        if not isinstance(name, str) or not isinstance(records, list):
            raise ValueError("delta name must be a string and records a list")
        fields = ("from_version", "to_version", "from_n_documents", "n_documents")
        counts = {field: payload.get(field) for field in fields}
        for field, value in counts.items():
            # JSON ``true`` is not a count; the upper bound keeps the value
            # inside the store's int64 arithmetic.
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or not 0 <= value < 2**63
            ):
                raise ValueError(
                    f"delta {field} must be a non-negative integer, got {value!r}"
                )
        if counts["from_version"] == 0 and counts["from_n_documents"] != 0:
            raise ValueError(
                "a delta from version 0 starts from the empty representative: "
                f"from_n_documents must be 0, got {counts['from_n_documents']}"
            )
        return cls(
            name=name,
            records=tuple(TermDeltaRecord.from_wire(record) for record in records),
            **counts,
        )

    def encode(self) -> bytes:
        """Canonical wire bytes: sorted-key, whitespace-free ASCII JSON."""
        return json.dumps(
            self.to_json_dict(),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
        ).encode("ascii")

    @classmethod
    def decode(cls, data: bytes) -> "RepresentativeDelta":
        return cls.from_json_dict(json.loads(data.decode("ascii")))

    @property
    def nbytes(self) -> int:
        """Size of the canonical wire encoding."""
        return len(self.encode())

    def compose(self, later: "RepresentativeDelta") -> "RepresentativeDelta":
        """The single delta equivalent to applying ``self`` then ``later``.

        Earlier ``set`` records not re-touched by ``later`` are rescaled to
        the newer document count (the same rescale an untouched term would
        have received had the deltas been applied one by one), then
        ``later``'s records win term-by-term.
        """
        if later.name != self.name:
            raise ValueError(f"cannot compose {self.name!r} with {later.name!r}")
        if later.from_version != self.to_version:
            raise ValueError(
                f"version gap: {self.to_version} -> {later.from_version}"
            )
        if later.from_n_documents != self.n_documents:
            raise ValueError(
                f"document-count gap: {self.n_documents} -> "
                f"{later.from_n_documents}"
            )
        superseded = {record.term for record in later.records}
        merged: Dict[str, TermDeltaRecord] = {}
        for record in self.records:
            if record.term in superseded:
                # ``later`` carries this term's final state; rescaling the
                # earlier record would be dead work — and can even produce
                # an out-of-range probability when the term's document
                # frequency shrank along with the corpus.
                continue
            if record.op == "set":
                stats = record.stats
                record = TermDeltaRecord(
                    op="set",
                    term=record.term,
                    stats=TermStats(
                        probability=rescale_probability(
                            stats.probability,
                            self.n_documents,
                            later.n_documents,
                        ),
                        mean=stats.mean,
                        std=stats.std,
                        max_weight=stats.max_weight,
                    ),
                )
            merged[record.term] = record
        for record in later.records:
            merged[record.term] = record
        return RepresentativeDelta(
            name=self.name,
            from_version=self.from_version,
            to_version=later.to_version,
            from_n_documents=self.from_n_documents,
            n_documents=later.n_documents,
            records=tuple(merged.values()),
        )


def canonicalize(representative: DatabaseRepresentative) -> DatabaseRepresentative:
    """The same representative with terms in sorted-string order.

    The live pipeline's canonical iteration order — a full delta's records
    and every delta-applied representative use it, so
    order-sensitive whole-representative reductions (the binary baseline's
    database weight) agree to the last bit on both sides.
    """
    return DatabaseRepresentative(
        name=representative.name,
        n_documents=representative.n_documents,
        term_stats={
            term: stats
            for term, stats in sorted(
                representative.items(), key=lambda item: item[0]
            )
        },
    )


def diff_representatives(
    old: DatabaseRepresentative,
    new: DatabaseRepresentative,
    *,
    from_version: int,
    to_version: int,
) -> RepresentativeDelta:
    """The delta turning ``old`` into ``new`` (both for the same engine).

    A term present in both representatives is skipped when its recovered integer
    document frequency and its mean/std/max-weight are identical — the
    receiver's probability rescale reproduces its new stats exactly.
    """
    if old.name != new.name:
        raise ValueError(f"cannot diff {old.name!r} against {new.name!r}")
    records: List[TermDeltaRecord] = []
    for term, old_stats in old.items():
        if new.get(term) is None:
            records.append(TermDeltaRecord(op="del", term=term))
    for term, new_stats in new.items():
        old_stats = old.get(term)
        if old_stats is not None:
            old_df = round(old_stats.probability * old.n_documents)
            new_df = round(new_stats.probability * new.n_documents)
            if (
                old_df == new_df
                and old_stats.mean == new_stats.mean
                and old_stats.std == new_stats.std
                and old_stats.max_weight == new_stats.max_weight
            ):
                continue
        records.append(TermDeltaRecord(op="set", term=term, stats=new_stats))
    return RepresentativeDelta(
        name=old.name,
        from_version=from_version,
        to_version=to_version,
        from_n_documents=old.n_documents,
        n_documents=new.n_documents,
        records=tuple(records),
    )
