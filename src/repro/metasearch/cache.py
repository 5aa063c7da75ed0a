"""LRU caches for per-engine usefulness estimates and term polynomials.

Two memoization layers live here, two key schemas over one LRU body
(:class:`_TermIndexedLRU`):

* :class:`EstimateCache` — whole answers.  Usefulness estimation is a pure
  function of (representative, query, threshold), and real query logs are
  heavily repetitive — so the broker caches estimates keyed on ``(engine,
  query terms, *normalized* weights, threshold)`` and invalidates an
  engine's entries whenever its representative is rebuilt or replaced.
  Keys use the unit-normalized weight vector because that is all an
  estimator ever consumes (:meth:`Query.normalized_items`): raw weights
  ``(1, 1)`` and ``(2, 2)`` describe the same query, and keying on them raw
  fragmented the cache into one entry per proportional variant.

* :class:`TermPolynomialCache` — per-term factors, for estimators that
  build them one ``term_polynomial`` call at a time (the scalar reference
  path, and on the broker the estimators evaluated per engine row).  An
  expansion estimator's ``(exponents, coeffs)`` factor is a pure function
  of (estimator configuration, engine representative, term, normalized
  query weight), so distinct queries sharing terms share factors even
  when their estimate keys differ.  Unmatched terms are negatively cached
  (value ``None``).  The batched fleet kernels compute every factor in one
  numpy pass and never touch it.  Both caches invalidate through the same
  per-engine hook when a representative changes.

The caches are thread-safe: lookups may happen concurrently with a
registration refresh on another thread.  Hit/miss/eviction/invalidation
totals are kept both as plain attributes (cheap to read in-process) and,
when a :class:`~repro.obs.MetricsRegistry` is supplied, as registry
counters plus a resident-size gauge for export.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.core.types import Usefulness
from repro.corpus.query import Query
from repro.obs.registry import NULL_REGISTRY

__all__ = ["EstimateCache", "TermPolynomialCache"]

#: Cache key: (engine name, query terms, normalized query weights, threshold).
CacheKey = Tuple[str, Tuple[str, ...], Tuple[float, ...], float]

#: Decimals kept of each normalized weight — enough that distinct weight
#: profiles stay distinct while float noise from equal profiles merges.
_KEY_DECIMALS = 12


class _TermIndexedLRU:
    """The bounded, thread-safe LRU both caches are: an ``OrderedDict`` in
    recency order plus an ``(engine, term) -> keys`` index, so a
    representative delta evicts only the entries its terms can have changed.

    A subclass is a key schema — ``_engine_of(key)`` / ``_terms_of(key)``
    staticmethods naming the engine and the terms a key's value was computed
    from — a metric prefix, and its own lookup/insert methods over ``_data``
    under ``_lock``.
    """

    _METRIC_PREFIX: str

    def __init__(self, maxsize: int, registry=None):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize!r}")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._by_term: Dict[Tuple[str, str], Set[Hashable]] = {}
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

    def _unindex(self, key) -> None:
        engine = self._engine_of(key)
        for term in self._terms_of(key):
            bucket = self._by_term.get((engine, term))
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_term[(engine, term)]

    def _store(self, key, value) -> None:
        """Insert or refresh ``key`` as most recent, evicting the least
        recent entries beyond ``maxsize``.  Caller holds the lock."""
        if key in self._data:
            self._data.move_to_end(key)
        else:
            engine = self._engine_of(key)
            for term in self._terms_of(key):
                self._by_term.setdefault((engine, term), set()).add(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            evicted, __ = self._data.popitem(last=False)
            self._unindex(evicted)
            self.evictions += 1
            self._m_evictions.inc()
        self._m_size.set(len(self._data))

    def _drop(self, stale) -> None:
        for key in stale:
            del self._data[key]
            self._unindex(key)
        self.invalidations += len(stale)
        self._m_invalidations.inc(len(stale))
        self._m_size.set(len(self._data))

    def invalidate_engine(self, engine: str) -> int:
        """Drop every entry for ``engine`` (its representative changed).

        Returns:
            Number of entries removed.
        """
        with self._lock:
            stale = [k for k in self._data if self._engine_of(k) == engine]
            self._drop(stale)
            return len(stale)

    def invalidate_terms(
        self, engine: str, terms: Iterable[str]
    ) -> Tuple[int, int]:
        """Drop only ``engine`` entries computed from any of ``terms``.

        The precise path for a representative delta, sound for
        ``term_local`` estimators (the broker falls back to
        :meth:`invalidate_engine` otherwise): an entry is a function of its
        own terms' statistics plus the document count, which the caller
        accounts for by widening ``terms`` to every present term when ``n``
        moves.  Entries over disjoint terms — negative entries for terms
        the engine never held included — are provably still valid and
        survive.

        Returns:
            ``(evicted, retained)`` — entries dropped vs. entries for
            ``engine`` left resident.
        """
        with self._lock:
            stale: Set[Hashable] = set()
            for term in terms:
                stale.update(self._by_term.get((engine, term), ()))
            self._drop(stale)
            engine_of = self._engine_of  # bound once: this scan is per delta
            retained = sum(1 for k in self._data if engine_of(k) == engine)
            return len(stale), retained

    def clear(self) -> None:
        """Drop all entries; the hit/miss/eviction counters survive."""
        with self._lock:
            self._data.clear()
            self._by_term.clear()
            self._m_size.set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

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
    """Bounded LRU mapping (engine, query, threshold) -> Usefulness.

    Args:
        maxsize: Maximum resident entries; the least recently used entry
            is evicted when full.  Must be positive — construct no cache
            at all to disable caching.
        registry: Metrics sink mirroring the hit/miss/eviction/invalidation
            counters and the resident-size gauge; no-op by default.
    """

    _METRIC_PREFIX = "cache"

    def __init__(self, maxsize: int = 1024, registry=None):
        super().__init__(maxsize, registry)

    @staticmethod
    def _engine_of(key: CacheKey) -> str:
        return key[0]

    @staticmethod
    def _terms_of(key: CacheKey) -> Tuple[str, ...]:
        return key[1]

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

    @staticmethod
    def key_from(engine: str, query_key: Tuple, threshold: float) -> CacheKey:
        """The cache key for one estimate, from an already computed
        :meth:`query_key` — a fleet-wide row normalizes the query once,
        not once per engine."""
        terms, normalized = query_key
        return (engine, terms, normalized, float(threshold))

    @classmethod
    def key_for(cls, engine: str, query: Query, threshold: float) -> CacheKey:
        """The cache key for one estimate."""
        return cls.key_from(engine, cls.query_key(query), threshold)

    def get(self, key: CacheKey) -> Optional[Usefulness]:
        """The cached estimate, refreshed as most recently used; None on miss."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                self._m_misses.inc()
                return None
            self._data.move_to_end(key)
            self.hits += 1
            self._m_hits.inc()
            return value

    def peek(self, key: CacheKey) -> bool:
        """Presence test with no side effects: no hit/miss accounting and
        no recency refresh — for probes that must not distort stats when
        they bail out partway (e.g. the coalescing cache probe)."""
        with self._lock:
            return key in self._data

    __contains__ = peek

    def put(self, key: CacheKey, value: Usefulness) -> None:
        with self._lock:
            self._store(key, value)


#: Polynomial cache key: (estimator config, engine, term, rounded weight).
PolyKey = Tuple[Tuple, str, str, float]


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
    def _engine_of(key: PolyKey) -> str:
        return key[1]

    @staticmethod
    def _terms_of(key: PolyKey) -> Tuple[str, ...]:
        return (key[2],)

    @staticmethod
    def _key(config: Tuple, engine: str, term: str, weight: float) -> PolyKey:
        """Weights are rounded like :meth:`EstimateCache.key_for` rounds
        them, so float noise between equal profiles shares entries."""
        return (config, engine, term, round(float(weight), _KEY_DECIMALS))

    def lookup(
        self, config: Tuple, engine: str, term: str, weight: float
    ) -> Tuple[bool, object]:
        """``(hit, value)`` — value may be a cached ``None`` on a hit."""
        key = self._key(config, engine, term, weight)
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                self._m_hits.inc()
                return True, self._data[key]
            self.misses += 1
            self._m_misses.inc()
            return False, None

    def store(
        self, config: Tuple, engine: str, term: str, weight: float, value
    ) -> None:
        key = self._key(config, engine, term, weight)
        with self._lock:
            self._store(key, value)
