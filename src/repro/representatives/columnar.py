"""Columnar representatives and the fleet-level store.

The dict-of-dataclasses :class:`~repro.representatives.DatabaseRepresentative`
is convenient for one engine but ruinous at fleet scale: every term costs a
dict slot, a frozen dataclass, and four boxed floats (~330 bytes measured),
and every estimate walks it term-by-term in Python.  This module holds the
same statistics in parallel numpy arrays keyed by a *shared broker
vocabulary*, in three layers:

* :class:`BrokerVocabulary` — interns term strings into dense integer ids
  shared by every engine the broker knows.  Ids are append-only, so an id
  handed out once stays valid for the life of the broker.
* :class:`ColumnarRepresentative` — one engine's representative as parallel
  sorted arrays (``term_ids``, ``p``, ``w``, ``sigma``, ``mw``), convertible
  losslessly to and from :class:`DatabaseRepresentative` and persistable as
  a binary ``.npz`` (memory-mappable member arrays, vs. today's JSON).  It
  is also the one per-engine form the fleet store holds between packs and
  hands back from ``columnar_of``.
* :class:`FleetRepresentativeStore` — the broker-side fleet matrix: all
  engines' statistics packed into one term-major compressed sparse layout,
  so a query gathers an ``(engines, terms)`` block of statistics with a few
  array reads instead of ``engines x terms`` dict lookups.

The packed layout exploits the Zipf reality of representatives: in measured
builds ~60% of (engine, term) entries are singleton terms whose ``sigma``
is exactly ``+0.0`` and whose ``mw`` equals ``w`` bit-for-bit.  The store
therefore keeps only ``p`` and ``w`` densely and spills ``sigma``/``mw``
to a sparse side channel for the minority of entries that deviate from the
per-engine default — cutting resident bytes per entry well below the dict
representation while reconstructing every :class:`TermStats` bit-exactly.
"""

from __future__ import annotations

import io
import threading
from pathlib import Path
from typing import (
    Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.representatives.representative import DatabaseRepresentative
from repro.representatives.term_stats import TermStats

__all__ = [
    "BrokerVocabulary",
    "ColumnarRepresentative",
    "FleetRepresentativeRef",
    "FleetRepresentativeStore",
    "partition_round_robin",
]


def partition_round_robin(items: Sequence, n_shards: int) -> List[list]:
    """Deal ``items`` into ``n_shards`` slices round-robin, preserving
    relative order inside each slice (slice ``i`` gets ``items[i::n]``).

    The dealing order is deterministic, so shard workers and the
    coordinator agree on slice membership from the item list alone; empty
    slices are legal (more shards than items).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
    items = list(items)
    return [items[i::n_shards] for i in range(n_shards)]

#: .npz member schema version for :meth:`ColumnarRepresentative.save_npz`.
_FORMAT_VERSION = 1

#: Sentinel id for terms a vocabulary has never seen.
UNKNOWN_TERM = -1


def _encode_terms(terms: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Terms as one UTF-8 blob plus int64 offsets (no object arrays, so
    ``allow_pickle=False`` round-trips)."""
    encoded = [t.encode("utf-8") for t in terms]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    for i, raw in enumerate(encoded):
        offsets[i + 1] = offsets[i] + len(raw)
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    return blob, offsets


def _decode_terms(blob: np.ndarray, offsets: np.ndarray) -> List[str]:
    raw = blob.tobytes()
    bounds = offsets.tolist()
    return [
        raw[bounds[i] : bounds[i + 1]].decode("utf-8")
        for i in range(len(bounds) - 1)
    ]


def _stat_columns(
    stats: Sequence[TermStats],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parallel float64 ``(p, w, sigma, mw)`` columns of ``stats``; a
    withheld max weight becomes ``NaN``."""
    p, w, sigma, mw = (np.empty(len(stats)) for __ in range(4))
    for i, s in enumerate(stats):
        p[i] = s.probability
        w[i] = s.mean
        sigma[i] = s.std
        mw[i] = s.max_weight if s.max_weight is not None else np.nan
    return p, w, sigma, mw


class BrokerVocabulary:
    """Append-only intern table mapping term strings to dense ids.

    One instance is shared by every engine of a fleet (and by the broker's
    term-polynomial cache), so equal terms across engines collapse to the
    same integer and fleet matrices can be indexed by term id.
    """

    def __init__(self):
        self._ids: Dict[str, int] = {}
        self._terms: List[str] = []

    def intern(self, term: str) -> int:
        """The term's id, allocating the next dense id on first sight."""
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._ids[term] = tid
            self._terms.append(term)
        return tid

    def intern_many(self, terms: Sequence[str]) -> np.ndarray:
        return np.array([self.intern(t) for t in terms], dtype=np.int64)

    def id_of(self, term: str) -> int:
        """The term's id, or :data:`UNKNOWN_TERM` when never interned."""
        return self._ids.get(term, UNKNOWN_TERM)

    def ids_of(self, terms: Sequence[str]) -> np.ndarray:
        """Ids for ``terms`` without interning; unknown terms map to
        :data:`UNKNOWN_TERM` (so stray query vocabulary cannot grow the
        table)."""
        get = self._ids.get
        return np.array(
            [get(t, UNKNOWN_TERM) for t in terms], dtype=np.int64
        )

    def term_of(self, term_id: int) -> str:
        return self._terms[term_id]

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self._ids

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of the intern table (strings, dict
        slots, list slots) — reported separately from the packed statistics
        because the vocabulary is shared fleet-wide."""
        import sys

        total = sys.getsizeof(self._ids) + sys.getsizeof(self._terms)
        for term in self._terms:
            total += sys.getsizeof(term) + 28  # str + boxed id
        return total

    def __repr__(self) -> str:
        return f"BrokerVocabulary(terms={len(self._terms)})"


class ColumnarRepresentative:
    """One engine's representative as parallel sorted numpy arrays.

    The arrays are parallel over the engine's distinct terms, sorted by
    ascending ``term_ids`` (ids from the attached vocabulary):

    * ``term_ids`` — int64 vocabulary ids, strictly ascending;
    * ``p`` / ``w`` / ``sigma`` — float64 probability, mean weight, std;
    * ``mw`` — float64 maximum weight, ``NaN`` where the representative
      withholds it (the triplet form).

    ``binary_mean_w`` is a carried statistic like ``n_documents``: the mean
    of the per-term mean weights (the binary-independence estimator's
    database weight) taken over the *source's* iteration order.  ``np.mean``
    over another order can differ in the last ulp, so the value travels with
    the representative through re-interning, slicing and ``.npz`` instead of
    being recomputed from whatever order the columns are in.

    Conversion to and from :class:`DatabaseRepresentative` is lossless and
    bit-exact; the duck API (``get``/``items``/``n_documents``/...) matches
    the dict representative's, so estimators accept either.
    """

    __slots__ = ("name", "n_documents", "vocab", "term_ids", "p", "w", "sigma",
                 "mw", "binary_mean_w")

    def __init__(
        self,
        name: str,
        n_documents: int,
        vocab: BrokerVocabulary,
        term_ids: np.ndarray,
        p: np.ndarray,
        w: np.ndarray,
        sigma: np.ndarray,
        mw: np.ndarray,
        binary_mean_w: Optional[float] = None,
    ):
        if n_documents < 0:
            raise ValueError(f"n_documents must be >= 0, got {n_documents!r}")
        term_ids = np.asarray(term_ids, dtype=np.int64)
        arrays = [np.asarray(a, dtype=np.float64) for a in (p, w, sigma, mw)]
        for arr in arrays:
            if arr.shape != term_ids.shape or arr.ndim != 1:
                raise ValueError("statistic arrays must parallel term_ids")
        if term_ids.size > 1 and not np.all(np.diff(term_ids) > 0):
            raise ValueError("term_ids must be strictly ascending")
        p, w, sigma, mw = arrays
        # TermStats' domain in one pass (every comparison is False on NaN):
        # p in [0, 1]; w, sigma and mw finite and >= 0, NaN in mw meaning
        # "no stored max".
        in_domain = (
            (p >= 0.0) & (p <= 1.0)
            & (w >= 0.0) & (w < np.inf)
            & (sigma >= 0.0) & (sigma < np.inf)
            & (((mw >= 0.0) & (mw < np.inf)) | np.isnan(mw))
        )
        if not in_domain.all():
            raise ValueError(
                "term statistics out of domain: p must lie in [0, 1]; w, "
                "sigma and mw must be finite and >= 0 (mw may be NaN)"
            )
        if binary_mean_w is None:
            binary_mean_w = float(np.mean(arrays[1])) if term_ids.size else 0.0
        for arr in (term_ids, *arrays):
            arr.setflags(write=False)
        self._fill(name, int(n_documents), vocab, term_ids, *arrays,
                   float(binary_mean_w))

    def _fill(self, name, n_documents, vocab, term_ids, p, w, sigma, mw,
              binary_mean_w) -> None:
        self.name = name
        self.n_documents = n_documents
        self.vocab = vocab
        self.term_ids = term_ids
        self.p, self.w, self.sigma, self.mw = p, w, sigma, mw
        self.binary_mean_w = binary_mean_w

    # -- construction --------------------------------------------------------

    @classmethod
    def _trusted(cls, *fields) -> "ColumnarRepresentative":
        """The constructor minus validation and write-protection — for the
        fleet store, whose columns are fresh float64 arrays, parallel and
        id-sorted by construction (reconstructed on every single-engine
        read and every delta apply)."""
        self = cls.__new__(cls)
        self._fill(*fields)
        return self

    @classmethod
    def _interned(
        cls, name, n_documents, vocab, terms, p, w, sigma, mw, binary_mean_w
    ) -> "ColumnarRepresentative":
        """Columns parallel to ``terms`` (any order), interned into
        ``vocab`` and sorted by the resulting ids."""
        ids = vocab.intern_many(terms)
        order = np.argsort(ids, kind="stable")
        return cls(name, n_documents, vocab, ids[order], p[order], w[order],
                   sigma[order], mw[order], binary_mean_w)

    @classmethod
    def from_representative(
        cls,
        representative: DatabaseRepresentative,
        vocab: Optional[BrokerVocabulary] = None,
    ) -> "ColumnarRepresentative":
        """Intern the dict representative's terms and columnarize it."""
        items = list(representative.items())
        p, w, sigma, mw = _stat_columns([stats for __, stats in items])
        return cls._interned(
            representative.name,
            representative.n_documents,
            vocab if vocab is not None else BrokerVocabulary(),
            [term for term, __ in items], p, w, sigma, mw,
            # Taken here, in the dict's iteration order, before sorting
            # loses it: bit-identical to the scalar binary estimator.
            float(np.mean(w)) if items else 0.0,
        )

    def with_vocab(self, vocab: BrokerVocabulary) -> "ColumnarRepresentative":
        """This representative re-interned into ``vocab`` (itself when it
        already is)."""
        if vocab is self.vocab:
            return self
        return self._interned(
            self.name, self.n_documents, vocab,
            [self.vocab.term_of(t) for t in self.term_ids.tolist()],
            self.p, self.w, self.sigma, self.mw, self.binary_mean_w,
        )

    def to_representative(self) -> DatabaseRepresentative:
        """The equivalent dict representative (canonical term-id order)."""
        return DatabaseRepresentative(
            name=self.name,
            n_documents=self.n_documents,
            term_stats=dict(self.items()),
        )

    # -- duck API (DatabaseRepresentative-compatible) ------------------------

    def _index_of(self, term: str) -> int:
        tid = self.vocab.id_of(term)
        if tid == UNKNOWN_TERM:
            return -1
        i = int(np.searchsorted(self.term_ids, tid))
        if i < self.term_ids.size and self.term_ids[i] == tid:
            return i
        return -1

    def _stats_at(self, i: int) -> TermStats:
        raw_mw = float(self.mw[i])
        return TermStats(
            probability=float(self.p[i]),
            mean=float(self.w[i]),
            std=float(self.sigma[i]),
            max_weight=None if raw_mw != raw_mw else raw_mw,
        )

    def get(self, term: str) -> Optional[TermStats]:
        i = self._index_of(term)
        return self._stats_at(i) if i >= 0 else None

    def __contains__(self, term: str) -> bool:
        return self._index_of(term) >= 0

    def __len__(self) -> int:
        return int(self.term_ids.size)

    @property
    def n_terms(self) -> int:
        return int(self.term_ids.size)

    def items(self) -> Iterator[Tuple[str, TermStats]]:
        for i, tid in enumerate(self.term_ids.tolist()):
            yield self.vocab.term_of(tid), self._stats_at(i)

    @property
    def has_max_weights(self) -> bool:
        return not bool(np.isnan(self.mw).any())

    def document_frequency(self, term: str) -> float:
        i = self._index_of(term)
        return float(self.p[i]) * self.n_documents if i >= 0 else 0.0

    def as_triplets(self) -> "ColumnarRepresentative":
        """The triplet view: ``mw`` withheld for every term."""
        return ColumnarRepresentative(
            name=self.name,
            n_documents=self.n_documents,
            vocab=self.vocab,
            term_ids=self.term_ids,
            p=self.p,
            w=self.w,
            sigma=self.sigma,
            mw=np.full(self.mw.shape, np.nan),
            binary_mean_w=self.binary_mean_w,
        )

    @property
    def nbytes(self) -> int:
        """Resident bytes of the statistic arrays (the vocabulary is shared
        and accounted separately)."""
        return sum(
            a.nbytes for a in (self.term_ids, self.p, self.w, self.sigma, self.mw)
        )

    # -- persistence ---------------------------------------------------------

    def save_npz(self, path: Union[str, Path, io.IOBase]) -> None:
        """Write the representative as an *uncompressed* ``.npz``.

        Uncompressed members keep ``np.load(..., mmap_mode)``-style lazy
        reads cheap and make the statistics arrays page-mappable; terms go
        as a UTF-8 blob plus offsets so ``allow_pickle=False`` suffices.
        """
        terms = [self.vocab.term_of(t) for t in self.term_ids.tolist()]
        blob, offsets = _encode_terms(terms)
        np.savez(
            path,
            format_version=np.int64(_FORMAT_VERSION),
            kind=np.frombuffer(b"columnar-representative", dtype=np.uint8),
            name=np.frombuffer(self.name.encode("utf-8"), dtype=np.uint8),
            n_documents=np.int64(self.n_documents),
            term_blob=blob,
            term_offsets=offsets,
            p=self.p,
            w=self.w,
            sigma=self.sigma,
            mw=self.mw,
            binary_mean_w=np.float64(self.binary_mean_w),
        )

    @classmethod
    def load_npz(
        cls,
        path: Union[str, Path, io.IOBase],
        vocab: Optional[BrokerVocabulary] = None,
    ) -> "ColumnarRepresentative":
        """Read a representative written by :meth:`save_npz`, interning its
        terms into ``vocab`` (a fresh private vocabulary when omitted)."""
        with np.load(path, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version != _FORMAT_VERSION:
                raise ValueError(
                    f"unsupported representative format version {version}"
                )
            kind = data["kind"].tobytes().decode("utf-8")
            if kind != "columnar-representative":
                raise ValueError(f"not a columnar representative: {kind!r}")
            name = data["name"].tobytes().decode("utf-8")
            n_documents = int(data["n_documents"])
            terms = _decode_terms(data["term_blob"], data["term_offsets"])
            p = data["p"].copy()
            w = data["w"].copy()
            sigma = data["sigma"].copy()
            mw = data["mw"].copy()
            # Absent from files written before the member existed: those
            # fall back to the constructor's column-order mean.
            binary_mean_w = (
                float(data["binary_mean_w"])
                if "binary_mean_w" in data.files
                else None
            )
        return cls._interned(
            name, n_documents,
            vocab if vocab is not None else BrokerVocabulary(),
            terms, p, w, sigma, mw, binary_mean_w,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarRepresentative):
            return NotImplemented
        return (
            self.name == other.name
            and self.n_documents == other.n_documents
            and self.to_representative() == other.to_representative()
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarRepresentative({self.name!r}, docs={self.n_documents}, "
            f"terms={self.n_terms}, max_weights={self.has_max_weights})"
        )


def _smallest_uint(max_value: int) -> np.dtype:
    for dtype in (np.uint8, np.uint16, np.uint32):
        if max_value <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


class _PackedFleet:
    """The immutable packed form of a fleet: term-major compressed rows.

    For vocabulary ids ``0..V-1`` (``V`` frozen at pack time), the entries
    of term ``t`` live at ``starts[t]:starts[t+1]`` of the parallel entry
    arrays, with ``engine_idx`` ascending inside each slice:

    * ``engine_idx`` — smallest unsigned dtype that fits the fleet width;
    * ``p`` / ``w`` — dense float64 per entry;
    * ``extra_pos`` (sorted) + ``sigma_extra`` / ``mw_extra`` — the sparse
      side channel for entries whose ``sigma`` is not ``+0.0`` or whose
      ``mw`` differs from the engine's default (``w`` itself for engines
      publishing max weights, absent otherwise).  Everything not in the
      side channel reconstructs as ``sigma = +0.0`` and the default ``mw``
      — bit-identical to the source statistics by construction.
    """

    __slots__ = (
        "vocab_size",
        "starts",
        "engine_idx",
        "p",
        "w",
        "extra_pos",
        "sigma_extra",
        "mw_extra",
    )

    def __init__(self, vocab_size, starts, engine_idx, p, w,
                 extra_pos, sigma_extra, mw_extra):
        self.vocab_size = vocab_size
        self.starts = starts
        self.engine_idx = engine_idx
        self.p = p
        self.w = w
        self.extra_pos = extra_pos
        self.sigma_extra = sigma_extra
        self.mw_extra = mw_extra

    @classmethod
    def empty(cls) -> "_PackedFleet":
        """The layout of a fleet with no entries (what the first pack
        merges into)."""
        return cls(
            0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.uint8),
            np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int32),
            np.zeros(0), np.zeros(0),
        )

    @property
    def nbytes(self) -> int:
        return (
            self.starts.nbytes
            + self.engine_idx.nbytes
            + self.p.nbytes
            + self.w.nbytes
            + self.extra_pos.nbytes
            + self.sigma_extra.nbytes
            + self.mw_extra.nbytes
        )


class TermEntries(NamedTuple):
    """Some terms' packed entries, term after term: the entries of
    ``terms[k]`` sit at ``starts[k]:starts[k + 1]`` (the last to the end)
    of the parallel entry columns, the layout ``np.ufunc.reduceat(column,
    starts)`` reduces per term."""

    terms: np.ndarray
    starts: np.ndarray
    engine_idx: np.ndarray
    p: np.ndarray
    w: np.ndarray
    sigma: np.ndarray
    mw: np.ndarray


class FleetRepresentativeStore:
    """Every engine's representative, packed into fleet-wide term-major
    arrays keyed by a shared :class:`BrokerVocabulary`.

    ``add`` accepts dict or columnar representatives and parks the changed
    engine's dense columns as *pending*; the first fleet-wide read after a
    change merges the pending engines into the packed layout (the other
    engines' entries keep their place, so a write costs the engine it
    changes plus one linear pass) and drops their columns, so resident
    memory is the compressed layout plus small per-engine metadata.
    :meth:`gather` returns the ``(engines, query terms)`` statistics block
    the vectorized estimators consume; :meth:`materialize` reconstructs a
    single engine's representative bit-exactly on demand.
    """

    def __init__(self, vocab: Optional[BrokerVocabulary] = None):
        self.vocab = vocab if vocab is not None else BrokerVocabulary()
        self._names: List[str] = []
        self._by_name: Dict[str, int] = {}
        self._n_documents: List[int] = []
        self._has_mw_default: List[bool] = []
        self._binary_mean_w: List[float] = []
        self._n_terms: List[int] = []
        # Every engine is either pending or fully in the packed layout.
        self._pending: Dict[int, ColumnarRepresentative] = {}
        # Writes and the lazy pack hold it, so a pack never runs on two
        # threads at once nor drops an engine parked while it ran.
        self._lock = threading.RLock()
        self._packed = _PackedFleet.empty()
        # Derived per-engine arrays served on every grid call; rebuilt
        # lazily after a registration change instead of per read.
        self._docs_array: Optional[np.ndarray] = None
        self._mean_w_array: Optional[np.ndarray] = None

    # -- registration --------------------------------------------------------

    def add(
        self,
        representative: Union[DatabaseRepresentative, ColumnarRepresentative],
    ) -> "FleetRepresentativeRef":
        """Add or replace an engine's representative (keyed by its name).

        Returns:
            A lightweight :class:`FleetRepresentativeRef` reading through
            this store — hand it to anything expecting a representative.
        """
        if isinstance(representative, ColumnarRepresentative):
            columns = representative.with_vocab(self.vocab)
        else:
            columns = ColumnarRepresentative.from_representative(
                representative, self.vocab
            )
        name = columns.name
        with self._lock:
            index = self._by_name.get(name)
            if index is None:
                index = len(self._names)
                self._names.append(name)
                self._by_name[name] = index
                self._n_documents.append(columns.n_documents)
                self._has_mw_default.append(columns.has_max_weights)
                self._binary_mean_w.append(columns.binary_mean_w)
                self._n_terms.append(columns.n_terms)
            else:
                self._n_documents[index] = columns.n_documents
                self._has_mw_default[index] = columns.has_max_weights
                self._binary_mean_w[index] = columns.binary_mean_w
                self._n_terms[index] = columns.n_terms
            self._pending[index] = columns
            self._docs_array = None
            self._mean_w_array = None
        return FleetRepresentativeRef(name, self)

    def apply_delta(self, delta) -> None:
        """Apply a :class:`~repro.fleet.delta.RepresentativeDelta` in place.

        The engine's dense columns are reconstructed (bit-exactly, from the
        pending or packed layout), edited term-by-term — deletions drop
        rows, ``set`` records overwrite or insert rows in sorted term-id
        order, untouched rows rescale their probability exactly via the
        integer-df recovery — and parked as the engine's pending columns,
        which the next fleet-wide read merges into the packed layout in
        place of the engine's old entries; no other engine is unpacked.
        The engine's binary mean weight is recomputed over canonical
        sorted-term-string order, matching what applying the engine's full
        delta would have produced.
        """
        with self._lock:
            self._apply_delta(delta)

    def _apply_delta(self, delta) -> None:
        index = self._by_name.get(delta.name)
        if index is None:
            raise KeyError(delta.name)
        if self._n_documents[index] != delta.from_n_documents:
            raise ValueError(
                f"delta expects a base of {delta.from_n_documents} "
                f"documents, engine {delta.name!r} holds "
                f"{self._n_documents[index]}"
            )
        cols = self._columns_at(index)
        n_old = delta.from_n_documents
        n_new = delta.n_documents

        set_records = [r for r in delta.records if r.op == "set"]
        set_ids = self.vocab.intern_many([r.term for r in set_records])
        touched = set(set_ids.tolist())
        for record in delta.records:
            if record.op == "del":
                tid = self.vocab.id_of(record.term)
                if tid != UNKNOWN_TERM:
                    touched.add(tid)

        if touched:
            touched_arr = np.array(sorted(touched), dtype=np.int64)
            keep = ~np.isin(cols.term_ids, touched_arr)
        else:
            keep = np.ones(cols.term_ids.shape, dtype=bool)
        kept_ids = cols.term_ids[keep]
        kept_p = cols.p[keep]
        if n_old != n_new:
            # df = rint(p * n_old) is exact (df is an integer < 2**51 and p
            # was computed as df / n_old in float64), so df / n_new is the
            # very division a fresh build performs — bit-identical.
            kept_p = (
                np.rint(kept_p * n_old) / n_new
                if n_new
                else np.zeros_like(kept_p)
            )
        kept_w = cols.w[keep]
        kept_sigma = cols.sigma[keep]
        kept_mw = cols.mw[keep]

        new_p, new_w, new_sigma, new_mw = _stat_columns(
            [record.stats for record in set_records]
        )

        merged_ids = np.concatenate([kept_ids, set_ids])
        order = np.argsort(merged_ids, kind="stable")
        merged_ids = merged_ids[order]
        merged_p = np.concatenate([kept_p, new_p])[order]
        merged_w = np.concatenate([kept_w, new_w])[order]
        merged_sigma = np.concatenate([kept_sigma, new_sigma])[order]
        merged_mw = np.concatenate([kept_mw, new_mw])[order]
        if n_new == 0 and merged_ids.size:
            raise ValueError("delta empties the database but terms survive")

        # The binary baseline's database weight reduces over the dict
        # representative's iteration order — canonical sorted-term-string
        # order on the live path — so recompute it in exactly that order.
        terms = [self.vocab.term_of(t) for t in merged_ids.tolist()]
        by_string = sorted(range(len(terms)), key=terms.__getitem__)
        means = [float(merged_w[i]) for i in by_string]
        binary_mean_w = float(np.mean(means)) if means else 0.0

        self.add(
            ColumnarRepresentative._trusted(
                delta.name, n_new, self.vocab, merged_ids, merged_p,
                merged_w, merged_sigma, merged_mw, binary_mean_w,
            )
        )

    # -- packing -------------------------------------------------------------

    def _unpacked(self) -> Tuple[np.ndarray, ...]:
        """Every packed entry as parallel ``(term_ids, engine rows, p, w,
        sigma, mw)`` columns in term-major order, reconstructed bit-exactly
        in one linear pass: ``sigma = +0.0`` and the engine's default
        ``mw`` unless the side channel holds the entry."""
        packed = self._packed
        term_ids = np.repeat(
            np.arange(packed.vocab_size, dtype=np.int64), np.diff(packed.starts)
        )
        sigma = np.zeros(packed.p.size)
        sigma[packed.extra_pos] = packed.sigma_extra
        has_default = np.asarray(self._has_mw_default, dtype=bool)
        mw = np.where(has_default[packed.engine_idx], packed.w, np.nan)
        mw[packed.extra_pos] = packed.mw_extra
        return term_ids, packed.engine_idx, packed.p, packed.w, sigma, mw

    def _columns_at(self, index: int) -> ColumnarRepresentative:
        """Dense columns for one engine: its pending columns, else its
        entries of the packed layout (single-engine reads and delta
        applies; bit-exact)."""
        pending = self._pending.get(index)
        if pending is not None:
            return pending
        packed = self._packed
        entry_mask = packed.engine_idx == index
        positions = np.flatnonzero(entry_mask)
        term_ids = (
            np.searchsorted(packed.starts, positions, side="right") - 1
        ).astype(np.int64)
        p = packed.p[positions]
        w = packed.w[positions]
        sigma = np.zeros(positions.size)
        if self._has_mw_default[index]:
            mw = w.copy()
        else:
            mw = np.full(positions.size, np.nan)
        if packed.extra_pos.size:
            where = np.searchsorted(packed.extra_pos, positions)
            where = np.clip(where, 0, packed.extra_pos.size - 1)
            hit = packed.extra_pos[where] == positions
            sigma[hit] = packed.sigma_extra[where[hit]]
            mw[hit] = packed.mw_extra[where[hit]]
        return ColumnarRepresentative._trusted(
            self._names[index], self._n_documents[index], self.vocab,
            term_ids, p, w, sigma, mw, self._binary_mean_w[index],
        )

    def _pack(self) -> _PackedFleet:
        """Merge the pending engines' columns into the term-major layout.

        Entries of engines that are not pending keep their (term, engine)
        order; the pending engines' entries are sorted among themselves and
        spliced in at the ``searchsorted`` positions of a ``term * width +
        engine`` key.  The result is exactly the layout packing every
        engine from scratch would give — the first pack is this merge with
        nothing surviving — and the side channel is recomputed over it.
        """
        n_engines = len(self._names)
        is_pending = np.zeros(n_engines, dtype=bool)
        is_pending[list(self._pending)] = True
        survives = ~is_pending[self._packed.engine_idx]
        kept = [column[survives] for column in self._unpacked()]
        pending = list(self._pending.items())
        fresh = [
            np.concatenate([c.term_ids for __, c in pending]),
            np.concatenate([np.full(c.n_terms, i) for i, c in pending]),
            *(
                np.concatenate([getattr(c, stat) for __, c in pending])
                for stat in ("p", "w", "sigma", "mw")
            ),
        ]
        fresh_key = fresh[0] * n_engines + fresh[1]
        order = np.argsort(fresh_key, kind="stable")
        fresh_key = fresh_key[order]
        kept_key = kept[0] * n_engines + kept[1]
        total = kept_key.size + fresh_key.size
        slots = np.searchsorted(kept_key, fresh_key) + np.arange(fresh_key.size)
        at_kept = np.ones(total, dtype=bool)
        at_kept[slots] = False
        merged = []
        for old, new in zip(kept, fresh):
            column = np.empty(total, dtype=np.result_type(old, new))
            column[at_kept] = old
            column[slots] = new[order]
            merged.append(column)
        term_of_entry, engine_of_entry, p, w, sigma, mw = merged

        vocab_size = len(self.vocab)
        starts = np.zeros(vocab_size + 1, dtype=np.int64)
        counts = np.bincount(term_of_entry, minlength=vocab_size)
        np.cumsum(counts, out=starts[1:])

        # Side channel: entries whose sigma is not +0.0 bit-for-bit, or
        # whose mw differs from the engine default (w for quadruplet
        # engines, absent/NaN for triplet engines).
        sigma_nonzero = sigma.view(np.int64) != 0
        has_default = np.asarray(self._has_mw_default, dtype=bool)
        entry_default_is_w = has_default[engine_of_entry]
        mw_is_nan = np.isnan(mw)
        mw_nondefault = np.where(
            entry_default_is_w,
            mw_is_nan | (mw.view(np.int64) != w.view(np.int64)),
            ~mw_is_nan,
        )
        extra = sigma_nonzero | mw_nondefault
        extra_pos = np.flatnonzero(extra).astype(
            np.int32 if total <= np.iinfo(np.int32).max else np.int64
        )
        return _PackedFleet(
            vocab_size=vocab_size,
            starts=starts,
            engine_idx=engine_of_entry.astype(_smallest_uint(n_engines - 1)),
            p=p,
            w=w,
            extra_pos=extra_pos,
            sigma_extra=sigma[extra],
            mw_extra=mw[extra],
        )

    def _ensure_packed(self) -> _PackedFleet:
        if self._pending:
            with self._lock:
                if self._pending:
                    self._packed = self._pack()
                    self._pending.clear()
        return self._packed

    # -- reads ---------------------------------------------------------------

    @property
    def engine_names(self) -> List[str]:
        """Engine names in registration (= row) order."""
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def index_of(self, name: str) -> int:
        return self._by_name[name]

    @property
    def n_documents(self) -> np.ndarray:
        if self._docs_array is None:
            arr = np.asarray(self._n_documents, dtype=np.int64)
            arr.flags.writeable = False
            self._docs_array = arr
        return self._docs_array

    @property
    def binary_mean_w(self) -> np.ndarray:
        """Per-engine mean of mean term weights (the binary-independence
        estimator's database weight), precomputed at add time over the
        source representative's own iteration order."""
        if self._mean_w_array is None:
            arr = np.asarray(self._binary_mean_w, dtype=np.float64)
            arr.flags.writeable = False
            self._mean_w_array = arr
        return self._mean_w_array

    def has_max_weights(self, name: str) -> bool:
        return self._has_mw_default[self._by_name[name]]

    def n_terms_of(self, name: str) -> int:
        return self._n_terms[self._by_name[name]]

    def gather(
        self, term_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The fleet's statistics for ``term_ids`` as ``(E, Q)`` arrays.

        Returns:
            ``(p, w, sigma, mw)``; rows follow :attr:`engine_names` order.
            Terms an engine lacks (or ids outside the packed vocabulary,
            including :data:`UNKNOWN_TERM`) read as ``p = 0`` — exactly the
            "unmatched" condition the estimators test — with ``sigma = 0``
            and ``mw = NaN``.
        """
        packed = self._ensure_packed()
        n_engines = len(self._names)
        term_ids = np.asarray(term_ids, dtype=np.int64)
        n_terms = term_ids.size
        p = np.zeros((n_engines, n_terms))
        w = np.zeros((n_engines, n_terms))
        sigma = np.zeros((n_engines, n_terms))
        mw = np.full((n_engines, n_terms), np.nan)
        has_default = np.asarray(self._has_mw_default, dtype=bool)
        for j, tid in enumerate(term_ids.tolist()):
            if tid < 0 or tid >= packed.vocab_size:
                continue
            lo = int(packed.starts[tid])
            hi = int(packed.starts[tid + 1])
            if lo == hi:
                continue
            rows = packed.engine_idx[lo:hi]
            p[rows, j] = packed.p[lo:hi]
            w_col = packed.w[lo:hi]
            w[rows, j] = w_col
            mw[rows, j] = np.where(has_default[rows], w_col, np.nan)
            if packed.extra_pos.size:
                first = int(np.searchsorted(packed.extra_pos, lo))
                last = int(np.searchsorted(packed.extra_pos, hi))
                if last > first:
                    positions = packed.extra_pos[first:last]
                    local = positions - lo
                    sigma[rows[local], j] = packed.sigma_extra[first:last]
                    mw[rows[local], j] = packed.mw_extra[first:last]
        return p, w, sigma, mw

    def term_entries(
        self, term_ids: Optional[np.ndarray] = None
    ) -> TermEntries:
        """The packed entries of ``term_ids`` (every id by default), in
        the order given, reconstructed bit-exactly as :meth:`gather` reads
        them; an id that holds no entry (or is unknown) is left out of
        ``terms``."""
        packed = self._ensure_packed()
        if term_ids is None:
            ids = np.arange(packed.vocab_size, dtype=np.int64)
        else:
            ids = np.asarray(term_ids, dtype=np.int64)
            ids = ids[(ids >= 0) & (ids < packed.vocab_size)]
        lo = packed.starts[ids]
        counts = packed.starts[ids + 1] - lo
        held = counts > 0
        ids, lo, counts = ids[held], lo[held], counts[held]
        starts = np.cumsum(counts) - counts
        positions = np.repeat(lo - starts, counts) + np.arange(counts.sum())
        engine_idx = packed.engine_idx[positions]
        w = packed.w[positions]
        sigma = np.zeros(positions.size)
        has_default = np.asarray(self._has_mw_default, dtype=bool)
        mw = np.where(has_default[engine_idx], w, np.nan)
        if packed.extra_pos.size:
            where = np.searchsorted(packed.extra_pos, positions)
            where = np.clip(where, 0, packed.extra_pos.size - 1)
            hit = packed.extra_pos[where] == positions
            sigma[hit] = packed.sigma_extra[where[hit]]
            mw[hit] = packed.mw_extra[where[hit]]
        return TermEntries(
            ids, starts, engine_idx, packed.p[positions], w, sigma, mw
        )

    def term_stats(self, name: str, term: str) -> Optional[TermStats]:
        """One engine's stats for one term, reconstructed bit-exactly."""
        index = self._by_name[name]
        pending = self._pending.get(index)
        if pending is not None:
            return pending.get(term)
        packed = self._packed
        tid = self.vocab.id_of(term)
        if tid == UNKNOWN_TERM or tid >= packed.vocab_size:
            return None
        lo = int(packed.starts[tid])
        hi = int(packed.starts[tid + 1])
        rows = packed.engine_idx[lo:hi]
        i = int(np.searchsorted(rows, index))
        if i >= rows.size or rows[i] != index:
            return None
        entry = lo + i
        std = 0.0
        if self._has_mw_default[index]:
            raw_mw: float = float(packed.w[entry])
        else:
            raw_mw = float("nan")
        if packed.extra_pos.size:
            at = int(np.searchsorted(packed.extra_pos, entry))
            if at < packed.extra_pos.size and packed.extra_pos[at] == entry:
                std = float(packed.sigma_extra[at])
                raw_mw = float(packed.mw_extra[at])
        return TermStats(
            probability=float(packed.p[entry]),
            mean=float(packed.w[entry]),
            std=std,
            max_weight=None if raw_mw != raw_mw else raw_mw,
        )

    def materialize(self, name: str) -> DatabaseRepresentative:
        """Reconstruct one engine's dict representative (bit-exact, in
        canonical term-id order).  One mask over the packed entries, never
        a repack — a diagnostics and interop path, not a hot one."""
        return self.columnar_of(name).to_representative()

    # -- slicing and persistence ---------------------------------------------

    def columnar_of(self, name: str) -> ColumnarRepresentative:
        """One engine's representative as a :class:`ColumnarRepresentative`
        sharing this store's vocabulary (bit-exact reconstruction)."""
        return self._columns_at(self._by_name[name])

    def partition(self, n_shards: int) -> List[List[str]]:
        """Engine names dealt round-robin (registration order) into
        ``n_shards`` slices — the canonical shard assignment."""
        return partition_round_robin(self._names, n_shards)

    def slice_engines(
        self,
        names: Sequence[str],
        vocab: Optional[BrokerVocabulary] = None,
    ) -> "FleetRepresentativeStore":
        """A new store holding only ``names`` (a shard's slice).

        The slice gets its own (fresh or supplied) vocabulary; statistics
        reconstruct bit-exactly, and each engine's registration-time binary
        mean weight travels with its columns, so shard estimates match the
        fleet-wide broker bit-for-bit.
        """
        store = FleetRepresentativeStore(vocab)
        for name in names:
            store.add(self.columnar_of(name))
        return store

    def save_npz(self, path: Union[str, Path, io.IOBase]) -> None:
        """Write the whole fleet (or slice) as one uncompressed ``.npz``.

        Entries are concatenated engine-major with per-engine offsets;
        term strings are stored once (the union of the slice's terms) and
        referenced by local index, so shared vocabulary across engines is
        not duplicated.  ``binary_mean_w`` rides along: recomputing it
        over the loaded column order could differ in the last ulp.
        """
        self._ensure_packed()
        term_ids, engines, *stats = self._unpacked()
        # A stable sort of the term-major entries by engine: engine-major,
        # term ids still ascending within each engine.
        order = np.argsort(engines, kind="stable")
        term_ids = term_ids[order]
        p, w, sigma, mw = (column[order] for column in stats)
        entry_starts = np.zeros(len(self._names) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(engines, minlength=len(self._names)),
            out=entry_starts[1:],
        )
        used = np.unique(term_ids)
        term_local = np.searchsorted(used, term_ids).astype(np.int64)
        term_blob, term_offsets = _encode_terms(
            [self.vocab.term_of(t) for t in used.tolist()]
        )
        name_blob, name_offsets = _encode_terms(self._names)
        np.savez(
            path,
            format_version=np.int64(_FORMAT_VERSION),
            kind=np.frombuffer(b"columnar-fleet", dtype=np.uint8),
            name_blob=name_blob,
            name_offsets=name_offsets,
            n_documents=np.asarray(self._n_documents, dtype=np.int64),
            binary_mean_w=np.asarray(self._binary_mean_w, dtype=np.float64),
            entry_starts=entry_starts,
            term_local=term_local,
            term_blob=term_blob,
            term_offsets=term_offsets,
            p=p,
            w=w,
            sigma=sigma,
            mw=mw,
        )

    @classmethod
    def load_npz(
        cls,
        path: Union[str, Path, io.IOBase],
        vocab: Optional[BrokerVocabulary] = None,
    ) -> "FleetRepresentativeStore":
        """Read a fleet bundle written by :meth:`save_npz`."""
        with np.load(path, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version != _FORMAT_VERSION:
                raise ValueError(
                    f"unsupported fleet bundle format version {version}"
                )
            kind = data["kind"].tobytes().decode("utf-8")
            if kind != "columnar-fleet":
                raise ValueError(f"not a columnar fleet bundle: {kind!r}")
            names = _decode_terms(data["name_blob"], data["name_offsets"])
            n_documents = data["n_documents"].tolist()
            binary_mean_w = data["binary_mean_w"].tolist()
            entry_starts = data["entry_starts"].tolist()
            term_local = data["term_local"]
            terms = _decode_terms(data["term_blob"], data["term_offsets"])
            p = data["p"].copy()
            w = data["w"].copy()
            sigma = data["sigma"].copy()
            mw = data["mw"].copy()
        store = cls(vocab)
        for i, name in enumerate(names):
            lo, hi = entry_starts[i], entry_starts[i + 1]
            store.add(
                ColumnarRepresentative._interned(
                    name, int(n_documents[i]), store.vocab,
                    [terms[k] for k in term_local[lo:hi].tolist()],
                    p[lo:hi], w[lo:hi], sigma[lo:hi], mw[lo:hi],
                    float(binary_mean_w[i]),
                )
            )
        return store

    # -- sizing --------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Resident bytes of the packed statistics (excluding the shared
        vocabulary — see :attr:`vocab_nbytes`)."""
        return self._ensure_packed().nbytes

    @property
    def vocab_nbytes(self) -> int:
        return self.vocab.nbytes

    @property
    def total_entries(self) -> int:
        return sum(self._n_terms)

    def __repr__(self) -> str:
        return (
            f"FleetRepresentativeStore(engines={len(self._names)}, "
            f"vocab={len(self.vocab)})"
        )


class FleetRepresentativeRef:
    """A representative facade reading through a fleet store.

    Registered engines in columnar brokers keep no per-engine dict
    representative; anything that walks a representative (the scalar
    estimators, diagnostics) goes through this reference, which answers
    from the packed fleet layout bit-exactly.
    """

    __slots__ = ("name", "_store")

    def __init__(self, name: str, store: FleetRepresentativeStore):
        self.name = name
        self._store = store

    @property
    def n_documents(self) -> int:
        return int(self._store._n_documents[self._store.index_of(self.name)])

    def get(self, term: str) -> Optional[TermStats]:
        return self._store.term_stats(self.name, term)

    def __contains__(self, term: str) -> bool:
        return self.get(term) is not None

    def __len__(self) -> int:
        return self._store.n_terms_of(self.name)

    @property
    def n_terms(self) -> int:
        return self._store.n_terms_of(self.name)

    @property
    def has_max_weights(self) -> bool:
        return self._store.has_max_weights(self.name)

    def document_frequency(self, term: str) -> float:
        stats = self.get(term)
        return stats.probability * self.n_documents if stats else 0.0

    def items(self) -> Iterator[Tuple[str, TermStats]]:
        return self._store.materialize(self.name).items()

    def materialize(self) -> DatabaseRepresentative:
        return self._store.materialize(self.name)

    def __repr__(self) -> str:
        return f"FleetRepresentativeRef({self.name!r})"
