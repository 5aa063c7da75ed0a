"""The fleet-level columnar store of representatives.

The dict-of-dataclasses :class:`~repro.representatives.DatabaseRepresentative`
is convenient for one engine but ruinous at fleet scale: every term costs a
dict slot, a frozen dataclass, and four boxed floats (~330 bytes measured),
and every estimate walks it term-by-term in Python.  This module holds the
same statistics in numpy arrays keyed by a *shared broker vocabulary*, in
two layers:

* :class:`BrokerVocabulary` — interns term strings into dense integer ids
  shared by every engine the broker knows.  Ids are append-only, so an id
  handed out once stays valid for the life of the broker.
* :class:`FleetRepresentativeStore` — the broker-side fleet matrix: all
  engines' statistics packed into one term-major compressed sparse layout,
  so a query gathers an ``(engines, terms)`` block of statistics with a few
  array reads instead of ``engines x terms`` dict lookups.  It takes dict
  representatives in, hands one back per engine (:meth:`materialize`), and
  persists as a binary ``.npz`` bundle of any number of engines — a
  one-engine bundle is ``convert-rep``'s file, a slice is a shard's.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.representatives.representative import DatabaseRepresentative
from repro.representatives.term_stats import TermStats

__all__ = [
    "BrokerVocabulary",
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


#: .npz member schema version for :meth:`FleetRepresentativeStore.save_npz`.
_FORMAT_VERSION = 1

#: The members of a fleet bundle after ``format_version`` and ``kind``,
#: each a one-dimensional array of this dtype.
_BUNDLE_MEMBERS = {
    "name_blob": np.uint8, "name_offsets": np.int64,
    "n_documents": np.int64, "binary_mean_w": np.float64,
    "entry_starts": np.int64, "term_local": np.int64,
    "term_blob": np.uint8, "term_offsets": np.int64,
    "p": np.float64, "w": np.float64, "sigma": np.float64, "mw": np.float64,
}

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
    if (
        offsets.size == 0 or offsets[0] != 0 or offsets[-1] != blob.size
        or (np.diff(offsets) < 0).any()
    ):
        raise ValueError("string offsets must run from 0 to the blob's end")
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


class _Columns(NamedTuple):
    """One engine's statistics as the store parks them between packs:
    parallel columns over its distinct terms, sorted by ascending
    vocabulary id, ``mw`` ``NaN`` where the representative withholds it."""

    term_ids: np.ndarray
    p: np.ndarray
    w: np.ndarray
    sigma: np.ndarray
    mw: np.ndarray


def _check_bundle(members: Dict[str, np.ndarray]) -> Tuple[List[str], List[str]]:
    """The engine names and term strings of a fleet bundle's members, once
    every member is known to be well formed; a malformed bundle is a
    ``ValueError``."""
    for key, dtype in _BUNDLE_MEMBERS.items():
        if members[key].ndim != 1 or members[key].dtype != dtype:
            raise ValueError(
                f"bundle member {key!r} must be a 1-d {np.dtype(dtype)} array"
            )
    names = _decode_terms(members["name_blob"], members["name_offsets"])
    terms = _decode_terms(members["term_blob"], members["term_offsets"])
    if len(set(names)) != len(names) or len(set(terms)) != len(terms):
        raise ValueError("engine names and term strings must be distinct")
    local = members["term_local"]
    for keys, want in ((("n_documents", "binary_mean_w"), len(names)),
                       (("p", "w", "sigma", "mw"), local.size)):
        for key in keys:
            if members[key].size != want:
                raise ValueError(f"bundle member {key!r} holds "
                                 f"{members[key].size} values, not {want}")
    starts = members["entry_starts"]
    if (
        starts.size != len(names) + 1 or starts[0] != 0
        or starts[-1] != local.size or (np.diff(starts) < 0).any()
    ):
        raise ValueError(
            "entry_starts must run from 0 to the entry count, never decreasing"
        )
    if (members["n_documents"] < 0).any():
        raise ValueError("n_documents must be >= 0")
    if local.size and (local.min() < 0 or local.max() >= len(terms)):
        raise ValueError(f"term_local must lie in [0, {len(terms)})")
    # Within each engine the local indices strictly ascend (the order
    # save_npz writes); the step into the next engine may go down.
    opens_engine = np.zeros(local.size + 1, dtype=bool)
    opens_engine[starts] = True
    if not ((np.diff(local) > 0) | opens_engine[1:-1]).all():
        raise ValueError("an engine's term_local must be strictly ascending")
    p, w, sigma, mw = (members[key] for key in ("p", "w", "sigma", "mw"))
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
    return names, terms


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


class FleetRepresentativeStore:
    """Every engine's representative, packed into fleet-wide term-major
    arrays keyed by a shared :class:`BrokerVocabulary`.

    ``add`` takes a dict representative and parks the changed engine's
    dense columns as *pending*; the first fleet-wide read after a
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
        self._pending: Dict[int, _Columns] = {}
        # Writes and the lazy pack hold it, so a pack never runs on two
        # threads at once nor drops an engine parked while it ran.
        self._lock = threading.RLock()
        self._packed = _PackedFleet.empty()
        # Derived per-engine arrays served on every grid call; rebuilt
        # lazily after a registration change instead of per read.
        self._docs_array: Optional[np.ndarray] = None
        self._mean_w_array: Optional[np.ndarray] = None

    # -- registration --------------------------------------------------------

    def add(self, representative: DatabaseRepresentative) -> None:
        """Add or replace an engine's representative (keyed by its name)."""
        items = list(representative.items())
        p, w, sigma, mw = _stat_columns([stats for __, stats in items])
        self._park(
            representative.name, representative.n_documents,
            self._interned([term for term, __ in items], p, w, sigma, mw),
            # Taken here, in the dict's iteration order, before sorting
            # loses it: bit-identical to the scalar binary estimator.
            float(np.mean(w)) if items else 0.0,
        )

    def _interned(self, terms, p, w, sigma, mw) -> _Columns:
        """Columns parallel to ``terms`` (any order), interned into the
        store's vocabulary and sorted by the resulting ids."""
        ids = self.vocab.intern_many(terms)
        order = np.argsort(ids, kind="stable")
        return _Columns(ids[order], p[order], w[order], sigma[order], mw[order])

    def _park(
        self, name: str, n_documents: int, columns: _Columns,
        binary_mean_w: float,
    ) -> None:
        """Record an engine's metadata and park its columns as pending.

        ``binary_mean_w`` is a carried statistic like ``n_documents``: the
        mean of the per-term mean weights taken over the *source's*
        iteration order.  ``np.mean`` over the id-sorted columns can differ
        in the last ulp, so it is never recomputed from them.
        """
        has_max_weights = not bool(np.isnan(columns.mw).any())
        with self._lock:
            index = self._by_name.get(name)
            if index is None:
                index = len(self._names)
                self._names.append(name)
                self._by_name[name] = index
                self._n_documents.append(n_documents)
                self._has_mw_default.append(has_max_weights)
                self._binary_mean_w.append(binary_mean_w)
                self._n_terms.append(columns.term_ids.size)
            else:
                self._n_documents[index] = n_documents
                self._has_mw_default[index] = has_max_weights
                self._binary_mean_w[index] = binary_mean_w
                self._n_terms[index] = columns.term_ids.size
            self._pending[index] = columns
            self._docs_array = None
            self._mean_w_array = None

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

        self._park(
            delta.name, n_new,
            _Columns(merged_ids, merged_p, merged_w, merged_sigma, merged_mw),
            binary_mean_w,
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

    def _columns_at(self, index: int) -> _Columns:
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
        return _Columns(term_ids, p, w, sigma, mw)

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
            np.concatenate([np.full(c.term_ids.size, i) for i, c in pending]),
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

    def materialize(self, name: str) -> DatabaseRepresentative:
        """Reconstruct one engine's dict representative (bit-exact, in
        canonical term-id order).  One mask over the packed entries, never
        a repack — a diagnostics and interop path, not a hot one."""
        index = self._by_name[name]
        columns = self._columns_at(index)
        term_of = self.vocab.term_of
        return DatabaseRepresentative(
            name,
            self._n_documents[index],
            {
                term_of(tid): TermStats(p, w, sigma, None if mw != mw else mw)
                for tid, p, w, sigma, mw in zip(
                    *(column.tolist() for column in columns)
                )
            },
        )

    def terms_of(self, name: str) -> List[str]:
        """The term strings ``name``'s representative holds, read off its
        pending or packed columns without a repack."""
        term_of = self.vocab.term_of
        return [
            term_of(tid)
            for tid in self._columns_at(self._by_name[name]).term_ids.tolist()
        ]

    # -- slicing and persistence ---------------------------------------------

    def partition(self, n_shards: int) -> List[List[str]]:
        """Engine names dealt round-robin (registration order) into
        ``n_shards`` slices — the canonical shard assignment."""
        return partition_round_robin(self._names, n_shards)

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
        """Read a fleet bundle written by :meth:`save_npz`, interning its
        terms into ``vocab`` (a fresh private vocabulary when omitted).

        The whole bundle is checked before a term is interned — member
        shapes, ``entry_starts``, each engine's ``term_local`` strictly
        ascending inside the term table, and every statistic inside
        :class:`TermStats`' domain — so a malformed file is a
        ``ValueError``, never a partly loaded store.
        """
        with np.load(path, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version != _FORMAT_VERSION:
                raise ValueError(
                    f"unsupported fleet bundle format version {version}"
                )
            kind = data["kind"].tobytes().decode("utf-8")
            if kind != "columnar-fleet":
                raise ValueError(f"not a columnar fleet bundle: {kind!r}")
            missing = sorted(set(_BUNDLE_MEMBERS) - set(data.files))
            if missing:
                raise ValueError(f"fleet bundle lacks members {missing}")
            members = {key: data[key] for key in _BUNDLE_MEMBERS}
        names, terms = _check_bundle(members)
        starts = members["entry_starts"].tolist()
        local = members["term_local"]
        p, w, sigma, mw = (members[key] for key in ("p", "w", "sigma", "mw"))
        store = cls(vocab)
        for i, name in enumerate(names):
            lo, hi = starts[i], starts[i + 1]
            store._park(
                name, int(members["n_documents"][i]),
                store._interned(
                    [terms[k] for k in local[lo:hi].tolist()],
                    p[lo:hi], w[lo:hi], sigma[lo:hi], mw[lo:hi],
                ),
                float(members["binary_mean_w"][i]),
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
