"""LRU caches for per-engine usefulness estimates and term polynomials.

Two memoization layers live here, two key schemas over one LRU body
(:class:`_TermIndexedLRU`).  The body stores *rows* — ``row key -> {engine:
value}`` — because the fleet row is what the broker computes, ranks and
reuses: one entry, one lock and one index update per row, while capacity,
``len()`` and every counter stay in *slots* (one engine's value each).

* :class:`EstimateCache` — whole answers.  Usefulness estimation is a pure
  function of (representative, query, threshold), and real query logs are
  heavily repetitive — so the broker caches each fleet row under ``(query
  terms, *normalized* weights, threshold)`` and invalidates an engine's
  slots whenever its representative is rebuilt or replaced.  Keys use the
  unit-normalized weight vector because that is all an estimator ever
  consumes (:meth:`Query.normalized_items`): raw weights ``(1, 1)`` and
  ``(2, 2)`` describe the same query, and keying on them raw fragmented the
  cache into one entry per proportional variant.

* :class:`TermPolynomialCache` — per-term factors: an expansion
  estimator's ``(exponents, coeffs)`` factor is a pure function of
  (estimator configuration, engine representative, term, normalized query
  weight), so distinct queries sharing terms could share factors even when
  their estimate keys differ; a row is one ``(config, term, weight)``.
  Unmatched terms are negatively cached (value ``None``).  Nothing fills
  it any more — the batched kernels compute every factor in one numpy
  pass — but the broker still carries and invalidates one.
  Both caches invalidate through the same per-engine hook when a
  representative changes: it pops that engine's slot, nothing else.

The caches are thread-safe: lookups may happen concurrently with a
registration refresh on another thread.  Hit/miss/eviction/invalidation
totals are kept both as plain attributes (cheap to read in-process) and,
when a :class:`~repro.obs.MetricsRegistry` is supplied, as registry
counters plus a resident-size gauge for export.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.corpus.query import Query
from repro.obs.registry import NULL_REGISTRY

__all__ = ["EstimateCache", "TermPolynomialCache"]

#: Per-estimate key: (engine name, *row key) — a row key being (query terms,
#: normalized query weights, threshold).
CacheKey = Tuple[str, Tuple[str, ...], Tuple[float, ...], float]

#: One estimate-cache slot: an engine's ``(nodoc, avgsim)`` floats.
Estimate = Tuple[float, float]

#: Decimals kept of each normalized weight — enough that distinct weight
#: profiles stay distinct while float noise from equal profiles merges.
_KEY_DECIMALS = 12

#: "No such slot", for rows whose values may themselves be ``None``.
_ABSENT = object()


class _TermIndexedLRU:
    """The bounded, thread-safe LRU both caches are: an ``OrderedDict`` of
    *rows* ``row key -> {engine: value}`` in recency order plus a ``term ->
    row keys`` index, so a representative delta reaches only the rows its
    terms can have changed and pops only that engine's slot from them.
    Capacity and every counter are in *slots* (one engine's value in one
    row); recency and eviction are per row.

    A subclass is a key schema — a ``_terms_of(row_key)`` staticmethod naming
    the terms a row's values were computed from — a metric prefix, and its
    own public signatures over :meth:`_read` / :meth:`_has` / :meth:`_write`.
    """

    _METRIC_PREFIX: str

    def __init__(self, maxsize: int, registry=None):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize!r}")
        self.maxsize = maxsize
        self._rows: "OrderedDict[Hashable, Dict[str, object]]" = OrderedDict()
        self._by_term: Dict[str, Set[Hashable]] = {}
        self._size = 0  # resident slots, the unit of ``maxsize``
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        registry = registry if registry is not None else NULL_REGISTRY
        prefix = self._METRIC_PREFIX
        self._m_hits = registry.counter(f"{prefix}.hits")
        self._m_misses = registry.counter(f"{prefix}.misses")
        self._m_evictions = registry.counter(f"{prefix}.evictions")
        self._m_invalidations = registry.counter(f"{prefix}.invalidations")
        self._m_size = registry.gauge(f"{prefix}.size")

    def _read(self, key, engines: Sequence[str], absent=None) -> list:
        """``engines``' values in row ``key`` (``absent`` where none), copied
        out under the lock — invalidation mutates rows in place; one hit or
        miss counted per engine, the row refreshed when any slot hits."""
        with self._lock:
            row = self._rows.get(key)
            if row is None:
                values, hits = [absent] * len(engines), 0
            else:
                values = [row.get(engine, absent) for engine in engines]
                hits = sum(value is not absent for value in values)
                if hits:
                    self._rows.move_to_end(key)
            misses = len(values) - hits
            self.hits += hits
            self.misses += misses
            self._m_hits.inc(hits)
            self._m_misses.inc(misses)
            return values

    def _has(self, key, engines: Sequence[str]) -> bool:
        """Whether row ``key`` holds every one of ``engines`` — no hit/miss
        accounting and no recency refresh."""
        with self._lock:
            row = self._rows.get(key)
            return row is not None and all(map(row.__contains__, engines))

    def _write(self, key, engines: Sequence[str], values: Sequence) -> None:
        """Fill ``engines``' slots of row ``key`` and make it most recent,
        then evict least-recent whole rows while more than ``maxsize`` slots
        are resident — so a row wider than the cache is not retained.  A
        zero-capacity cache holds nothing and writes nothing."""
        if not engines or not self.maxsize:
            return
        with self._lock:
            row = self._rows.get(key)
            if row is None:
                row = self._rows[key] = {}
                for term in self._terms_of(key):
                    self._by_term.setdefault(term, set()).add(key)
            else:
                self._rows.move_to_end(key)
            self._size -= len(row)
            row.update(zip(engines, values))
            self._size += len(row)
            while self._size > self.maxsize:
                evicted, slots = self._rows.popitem(last=False)
                self._unindex(evicted)
                self._size -= len(slots)
                self.evictions += len(slots)
                self._m_evictions.inc(len(slots))
            self._m_size.set(self._size)

    def _unindex(self, key) -> None:
        for term in self._terms_of(key):
            bucket = self._by_term.get(term)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_term[term]

    def _drop(self, engine: str, keys: Iterable) -> int:
        """Pop ``engine``'s slot from each row in ``keys`` — a hole: every
        other engine's slot survives, an emptied row is removed and
        unindexed.  Caller holds the lock; returns the slots dropped."""
        dropped = 0
        for key in keys:
            row = self._rows[key]
            if row.pop(engine, _ABSENT) is not _ABSENT:
                dropped += 1
                if not row:
                    del self._rows[key]
                    self._unindex(key)
        self._size -= dropped
        self.invalidations += dropped
        self._m_invalidations.inc(dropped)
        self._m_size.set(self._size)
        return dropped

    def invalidate_engine(self, engine: str) -> int:
        """Drop every entry for ``engine`` (its representative changed).

        Returns:
            Number of entries removed.
        """
        with self._lock:
            return self._drop(engine, list(self._rows))

    def invalidate_terms(
        self, engine: str, terms: Iterable[str]
    ) -> Tuple[int, int]:
        """Drop only ``engine`` entries computed from any of ``terms``.

        The precise path for a representative delta, sound for
        ``term_local`` estimators (the broker falls back to
        :meth:`invalidate_engine` otherwise): an entry (``engine``'s slot of
        a row) is a function of its own terms' statistics plus the document
        count, which the caller accounts for by widening ``terms`` to every
        present term when ``n`` moves.  Entries over disjoint terms —
        negative entries for terms the engine never held included — and
        every other engine's slots are provably still valid and survive.

        Returns:
            ``(evicted, retained)`` — entries dropped vs. entries for
            ``engine`` left resident.
        """
        with self._lock:
            stale: Set[Hashable] = set()
            for term in terms:
                stale.update(self._by_term.get(term, ()))
            evicted = self._drop(engine, stale)
            retained = sum(engine in row for row in self._rows.values())
            return evicted, retained

    def clear(self) -> None:
        """Drop all entries; the hit/miss/eviction counters survive."""
        with self._lock:
            self._rows.clear()
            self._by_term.clear()
            self._size = 0
            self._m_size.set(0)

    def __len__(self) -> int:
        with self._lock:
            return self._size

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={len(self)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class EstimateCache(_TermIndexedLRU):
    """Bounded LRU of fleet rows: (query, threshold) -> {engine: (nodoc,
    avgsim)}.  A slot's value is the engine's estimate as a plain float
    pair — the kernel's array cells, never a per-engine object.

    Args:
        maxsize: Maximum resident estimates (engines × distinct (query,
            threshold) rows); the least recently used rows are evicted
            whole when full.  ``0`` is the disabled cache: it never holds
            an entry, and every read is a counted miss.
        registry: Metrics sink mirroring the hit/miss/eviction/invalidation
            counters and the resident-size gauge; no-op by default.
    """

    _METRIC_PREFIX = "cache"

    def __init__(self, maxsize: int = 1024, registry=None):
        super().__init__(maxsize, registry)

    @staticmethod
    def _terms_of(key: Tuple) -> Tuple[str, ...]:
        return key[0]

    @staticmethod
    def query_key(query: Query) -> Tuple[Tuple[str, ...], Tuple[float, ...]]:
        """The query's ``(terms, normalized weights)`` identity.

        Weights enter *unit-normalized* (rounded to 12 decimals):
        estimators only ever see :meth:`Query.normalized_items`, so
        proportional raw weights — ``(1, 1)`` vs ``(2, 2)`` — must map to
        the same entry instead of fragmenting the cache.  The batch
        pipeline also groups queries by this key to share expansions.
        """
        normalized = tuple(
            round(w, _KEY_DECIMALS) for w in query.normalized_weights().tolist()
        )
        return (query.terms, normalized)

    def get_row(
        self, query_key: Tuple, threshold: float, engines: Sequence[str]
    ) -> List[Optional[Estimate]]:
        """``engines``' cached ``(nodoc, avgsim)`` pairs in order, ``None``
        where absent; one hit or miss counted per engine."""
        return self._read((*query_key, float(threshold)), engines)

    def peek_row(
        self, query_key: Tuple, threshold: float, engines: Sequence[str]
    ) -> bool:
        """Whole-row presence with no side effects (no hit/miss accounting,
        no recency refresh) — the coalescing probe must not distort stats."""
        return self._has((*query_key, float(threshold)), engines)

    def put_row(
        self,
        query_key: Tuple,
        threshold: float,
        engines: Sequence[str],
        values: Sequence[Estimate],
    ) -> None:
        """Fill only the slots given: ``values[i]`` is ``engines[i]``'s
        ``(nodoc, avgsim)`` pair."""
        self._write((*query_key, float(threshold)), engines, values)

    @staticmethod
    def key_from(engine: str, query_key: Tuple, threshold: float) -> CacheKey:
        """The per-estimate key, from an already computed :meth:`query_key`."""
        return (engine, *query_key, float(threshold))

    @classmethod
    def key_for(cls, engine: str, query: Query, threshold: float) -> CacheKey:
        """The cache key for one estimate."""
        return cls.key_from(engine, cls.query_key(query), threshold)

    def get(self, key: CacheKey) -> Optional[Estimate]:
        """The cached estimate, its row refreshed as most recent; None on miss."""
        return self._read(key[1:], key[:1])[0]

    def peek(self, key: CacheKey) -> bool:
        """:meth:`peek_row` for one estimate."""
        return self._has(key[1:], key[:1])

    __contains__ = peek

    def put(self, key: CacheKey, value: Estimate) -> None:
        self._write(key[1:], key[:1], (value,))


#: Polynomial row key: (estimator config, term, rounded weight).
PolyKey = Tuple[Tuple, str, float]


class TermPolynomialCache(_TermIndexedLRU):
    """Bounded LRU mapping (estimator config, engine, term, query weight)
    to a frozen ``(exponents, coeffs)`` factor — or ``None`` for a term the
    engine's representative does not match (negative caching, so repeated
    misses skip the representative lookup too).

    The stored arrays are exactly what a fresh
    :meth:`~repro.core.base.ExpansionEstimator.term_polynomial` call would
    return (read-only views of them), so memoized expansions are
    bit-identical to unmemoized ones.

    Args:
        maxsize: Maximum resident entries (LRU-evicted beyond this).
        registry: Metrics sink for ``estimator.polycache.*`` counters and
            the resident-size gauge; no-op by default.
    """

    _METRIC_PREFIX = "estimator.polycache"

    def __init__(self, maxsize: int = 4096, registry=None):
        super().__init__(maxsize, registry)

    @staticmethod
    def _terms_of(key: PolyKey) -> Tuple[str, ...]:
        return key[1:2]

    @staticmethod
    def _key(config: Tuple, term: str, weight: float) -> PolyKey:
        """Weights are rounded like :meth:`EstimateCache.query_key` rounds
        them, so float noise between equal profiles shares entries."""
        return (config, term, round(float(weight), _KEY_DECIMALS))

    def lookup(
        self, config: Tuple, engine: str, term: str, weight: float
    ) -> Tuple[bool, object]:
        """``(hit, value)`` — value may be a cached ``None`` on a hit."""
        value = self._read(self._key(config, term, weight), (engine,), _ABSENT)[0]
        return (False, None) if value is _ABSENT else (True, value)

    def store(
        self, config: Tuple, engine: str, term: str, weight: float, value
    ) -> None:
        self._write(self._key(config, term, weight), (engine,), (value,))
