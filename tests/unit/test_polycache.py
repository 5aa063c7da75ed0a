"""Unit tests for the term-polynomial memoization cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metasearch.cache import TermPolynomialCache
from repro.obs import MetricsRegistry


def poly(*exponents):
    exp = np.asarray(exponents, dtype=float)
    coef = np.full(exp.size, 1.0 / exp.size)
    return (exp, coef)


CONFIG = ("SubrangeEstimator", "paper_six", True, 99.9)


class TestLookupStore:
    def test_miss_then_hit(self):
        cache = TermPolynomialCache()
        hit, value = cache.lookup(CONFIG, "d1", "apple", 0.5)
        assert not hit and value is None
        stored = poly(0.3, 0.0)
        cache.store(CONFIG, "d1", "apple", 0.5, stored)
        hit, value = cache.lookup(CONFIG, "d1", "apple", 0.5)
        assert hit
        assert value is stored

    def test_negative_caching(self):
        """An unmatched term's None is a first-class cached value: the
        second lookup is a hit carrying None."""
        cache = TermPolynomialCache()
        cache.store(CONFIG, "d1", "unknownterm", 1.0, None)
        hit, value = cache.lookup(CONFIG, "d1", "unknownterm", 1.0)
        assert hit
        assert value is None

    def test_key_dimensions_kept_apart(self):
        cache = TermPolynomialCache()
        cache.store(CONFIG, "d1", "apple", 0.5, poly(0.3, 0.0))
        assert not cache.lookup(CONFIG, "d2", "apple", 0.5)[0]
        assert not cache.lookup(CONFIG, "d1", "pear", 0.5)[0]
        assert not cache.lookup(CONFIG, "d1", "apple", 0.7)[0]
        assert not cache.lookup(("other",), "d1", "apple", 0.5)[0]

    def test_weight_rounding_merges_float_noise(self):
        cache = TermPolynomialCache()
        u = 1.0 / np.sqrt(2.0)
        cache.store(CONFIG, "d1", "apple", u, poly(0.3, 0.0))
        hit, __ = cache.lookup(CONFIG, "d1", "apple", u + 1e-15)
        assert hit


class TestEvictionInvalidation:
    def test_lru_eviction(self):
        cache = TermPolynomialCache(maxsize=2)
        cache.store(CONFIG, "d1", "a", 1.0, poly(0.1, 0.0))
        cache.store(CONFIG, "d1", "b", 1.0, poly(0.2, 0.0))
        cache.lookup(CONFIG, "d1", "a", 1.0)  # refresh a
        cache.store(CONFIG, "d1", "c", 1.0, poly(0.3, 0.0))
        assert cache.lookup(CONFIG, "d1", "a", 1.0)[0]
        assert not cache.lookup(CONFIG, "d1", "b", 1.0)[0]
        assert cache.evictions == 1

    def test_invalidate_engine_is_scoped(self):
        cache = TermPolynomialCache()
        cache.store(CONFIG, "d1", "a", 1.0, poly(0.1, 0.0))
        cache.store(CONFIG, "d1", "b", 1.0, None)
        cache.store(CONFIG, "d2", "a", 1.0, poly(0.2, 0.0))
        removed = cache.invalidate_engine("d1")
        assert removed == 2
        assert len(cache) == 1
        assert not cache.lookup(CONFIG, "d1", "a", 1.0)[0]
        assert cache.lookup(CONFIG, "d2", "a", 1.0)[0]

    def test_invalidate_terms_is_scoped(self):
        cache = TermPolynomialCache()
        cache.store(CONFIG, "d1", "a", 1.0, poly(0.1, 0.0))
        cache.store(CONFIG, "d1", "a", 0.5, poly(0.05, 0.0))
        cache.store(CONFIG, "d1", "b", 1.0, None)
        cache.store(CONFIG, "d2", "a", 1.0, poly(0.2, 0.0))
        assert cache.invalidate_terms("d1", ["a", "never-stored"]) == (2, 1)
        assert not cache.lookup(CONFIG, "d1", "a", 1.0)[0]
        assert cache.lookup(CONFIG, "d1", "b", 1.0)[0]
        assert cache.lookup(CONFIG, "d2", "a", 1.0)[0]
        assert cache.invalidations == 2

    def test_clear_keeps_counters(self):
        cache = TermPolynomialCache()
        cache.store(CONFIG, "d1", "a", 1.0, poly(0.1, 0.0))
        cache.lookup(CONFIG, "d1", "a", 1.0)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError, match="maxsize"):
            TermPolynomialCache(maxsize=-1)


class TestVocabularyKeys:
    """One key form: the term slot carries the string itself."""

    def test_interned_keys_hit_across_string_instances(self):
        cache = TermPolynomialCache()
        cache.store(CONFIG, "d1", "apple", 0.5, poly(0.3, 0.0))
        # A distinct string object with equal text reaches the same entry.
        hit, __ = cache.lookup(CONFIG, "d1", "".join(["app", "le"]), 0.5)
        assert hit
        assert cache._terms_of(cache._key(CONFIG, "apple", 0.5)) == ("apple",)

    def test_invalidate_engine_with_vocab_keys(self):
        cache = TermPolynomialCache()
        cache.store(CONFIG, "d1", "apple", 0.5, poly(0.3, 0.0))
        cache.store(CONFIG, "d2", "apple", 0.5, poly(0.4, 0.0))
        assert cache.invalidate_engine("d1") == 1
        assert not cache.lookup(CONFIG, "d1", "apple", 0.5)[0]
        assert cache.lookup(CONFIG, "d2", "apple", 0.5)[0]

    def test_constructor_has_no_vocabulary(self):
        with pytest.raises(TypeError):
            TermPolynomialCache(vocab=object())


class TestMetrics:
    def test_registry_series(self):
        registry = MetricsRegistry()
        cache = TermPolynomialCache(maxsize=1, registry=registry)
        cache.lookup(CONFIG, "d1", "a", 1.0)
        cache.store(CONFIG, "d1", "a", 1.0, poly(0.1, 0.0))
        cache.lookup(CONFIG, "d1", "a", 1.0)
        cache.store(CONFIG, "d1", "b", 1.0, None)
        cache.invalidate_engine("d1")
        assert registry.counter("estimator.polycache.hits").value == 1
        assert registry.counter("estimator.polycache.misses").value == 1
        assert registry.counter("estimator.polycache.evictions").value == 1
        assert registry.counter("estimator.polycache.invalidations").value == 1
        assert registry.gauge("estimator.polycache.size").value == 0

    def test_hit_rate(self):
        cache = TermPolynomialCache()
        assert cache.hit_rate == 0.0
        cache.lookup(CONFIG, "d1", "a", 1.0)
        cache.store(CONFIG, "d1", "a", 1.0, None)
        cache.lookup(CONFIG, "d1", "a", 1.0)
        assert cache.hit_rate == 0.5
