"""Model-based wall for the row-structured caches.

``_TermIndexedLRU`` stores rows ``row key -> {engine: value}`` but still
*means* one entry per ``(engine, key)``: capacity, ``len()``, hits, misses,
evictions and invalidation counts are all per slot.  The model here is that
per-estimate meaning — a plain dict keyed ``(engine, row key)`` with no
capacity — driven through any sequence of writes, reads, probes and
invalidations.  After every rule:

* everything resident is in the model with the same value, so no slot
  survives an invalidation that names its engine and one of its terms;
* ``len(cache)`` is the sum of row widths and never exceeds ``maxsize``;
* ``hits + misses`` is the number of slots asked for;
* no emptied row lingers and the term index is exactly the resident rows';
* ``invalidate_*`` return the counts the per-estimate meaning gives;
* with room for the whole alphabet the resident set *equals* the model.

The same machine runs over both key schemas: :class:`EstimateCache` through
its row calls and :class:`TermPolynomialCache` through ``store`` / ``lookup``
(cached ``None`` values included).  Verified to fail when ``_drop``'s
``pop`` is stubbed out.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.metasearch import EstimateCache, TermPolynomialCache

ENGINES = ("a", "b", "c")
TERMS = ("t", "u", "v")
ABSENT = object()

engines = st.lists(st.sampled_from(ENGINES), unique=True)
term_sets = st.sets(st.sampled_from(TERMS))


class RowCacheMachine(RuleBasedStateMachine):
    """Schema-agnostic rules; a subclass says how to build a cache, what a
    row is and how to read and write its slots."""

    maxsize: int
    #: Whether ``maxsize`` holds the whole alphabet (then nothing is evicted).
    exact: bool

    def __init__(self):
        super().__init__()
        self.cache = self.make_cache(self.maxsize)
        self.model = {}
        self.asked = 0

    def resident(self):
        return {
            (engine, key): value
            for key, row in self.cache._rows.items()
            for engine, value in row.items()
        }

    def peek(self, row, names):
        return self.cache._has(self.key_of(row), names)

    def invalidated(self, hit):
        """Apply an invalidation to the model; the resident count it hits."""
        count = sum(hit(engine, key) for engine, key in self.resident())
        self.model = {
            slot: value for slot, value in self.model.items() if not hit(*slot)
        }
        return count

    @rule(data=st.data())
    def put_row(self, data):
        row = data.draw(self.rows)
        slots = data.draw(st.dictionaries(st.sampled_from(ENGINES), self.values))
        self.write(row, list(slots), list(slots.values()))
        for engine, value in slots.items():
            self.model[(engine, self.key_of(row))] = value

    @rule(data=st.data(), names=engines)
    def get_row(self, data, names):
        row = data.draw(self.rows)
        key = self.key_of(row)
        got = self.read(row, names)
        self.asked += len(names)
        for engine, value in zip(names, got):
            if value is not ABSENT:
                assert self.model[(engine, key)] == value
            else:
                assert not self.exact or (engine, key) not in self.model
        if any(value is not ABSENT for value in got):
            assert next(reversed(self.cache._rows)) == key  # refreshed

    @rule(data=st.data(), names=engines)
    def peek_row(self, data, names):
        row = data.draw(self.rows)
        key = self.key_of(row)
        before = (self.cache.hits, self.cache.misses, list(self.cache._rows))
        resident = self.resident()
        assert self.peek(row, names) == (
            key in self.cache._rows
            and all((engine, key) in resident for engine in names)
        )
        assert before == (
            self.cache.hits, self.cache.misses, list(self.cache._rows)
        )

    @rule(engine=st.sampled_from(ENGINES), terms=term_sets)
    def invalidate_terms(self, engine, terms):
        evicted = self.invalidated(
            lambda e, key: e == engine and bool(terms & set(self.terms_of(key)))
        )
        retained = sum(e == engine for e, __ in self.resident()) - evicted
        assert self.cache.invalidate_terms(engine, terms) == (evicted, retained)

    @rule(engine=st.sampled_from(ENGINES))
    def invalidate_engine(self, engine):
        evicted = self.invalidated(lambda e, key: e == engine)
        assert self.cache.invalidate_engine(engine) == evicted

    @rule()
    def clear(self):
        self.cache.clear()
        self.model.clear()

    @invariant()
    def cache_means_the_model(self):
        cache, resident = self.cache, self.resident()
        for slot, value in resident.items():
            assert slot in self.model and self.model[slot] == value
        if self.exact:
            assert resident == self.model
        assert len(cache) == len(resident) <= cache.maxsize
        assert cache.hits + cache.misses == self.asked
        assert all(cache._rows.values()), "an emptied row lingers"
        index = {}
        for key in cache._rows:
            for term in self.terms_of(key):
                index.setdefault(term, set()).add(key)
        assert cache._by_term == index


class EstimateRows(RowCacheMachine):
    """Rows are ``(query key, threshold)``; values are never ``None``."""

    make_cache = EstimateCache
    rows = st.tuples(
        st.lists(st.sampled_from(TERMS), min_size=1, max_size=2, unique=True),
        st.sampled_from((0.1, 0.2)),
    ).map(lambda r: ((tuple(r[0]), (1.0,) * len(r[0])), r[1]))
    values = st.integers(0, 4)

    def key_of(self, row):
        return EstimateCache.key_from("", *row)[1:]

    def terms_of(self, key):
        return key[0]

    def write(self, row, names, values):
        self.cache.put_row(*row, names, values)

    def peek(self, row, names):
        return self.cache.peek_row(*row, names)

    def read(self, row, names):
        got = self.cache.get_row(*row, names)
        return [ABSENT if value is None else value for value in got]


class PolynomialRows(RowCacheMachine):
    """Rows are ``(config, term, weight)``, one ``store`` / ``lookup`` per
    slot; ``None`` is a legitimate cached value."""

    make_cache = TermPolynomialCache
    rows = st.tuples(
        st.sampled_from((("A",), ("B", 2))),
        st.sampled_from(TERMS),
        st.sampled_from((0.5, 1.0)),
    )
    values = st.none() | st.integers(0, 4)

    def key_of(self, row):
        return row

    def terms_of(self, key):
        return (key[1],)

    def write(self, row, names, values):
        config, term, weight = row
        for engine, value in zip(names, values):
            self.cache.store(config, engine, term, weight, value)

    def read(self, row, names):
        config, term, weight = row
        got = [self.cache.lookup(config, engine, term, weight) for engine in names]
        return [value if hit else ABSENT for hit, value in got]


def machine(schema, maxsize, exact):
    cls = type(
        f"{schema.__name__}{maxsize}", (schema,), {"maxsize": maxsize, "exact": exact}
    )
    case = cls.TestCase
    case.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
    return case


# 3 engines x (3 + 6 term tuples) x 2 thresholds = 54 slots; 3 x 12 = 36.
TestEstimateRowsRoomy = machine(EstimateRows, 64, exact=True)
TestEstimateRowsTight = machine(EstimateRows, 4, exact=False)
TestPolynomialRowsRoomy = machine(PolynomialRows, 64, exact=True)
TestPolynomialRowsTight = machine(PolynomialRows, 4, exact=False)
