"""Unit tests for building representatives from engines."""

import math
import struct

import pytest

from repro.corpus import Collection, Document
from repro.engine import SearchEngine
from repro.index import InvertedIndex
from repro.representatives import build_representative
from tests.oracle import per_term_representative


@pytest.fixture
def engine():
    return SearchEngine(
        Collection.from_documents(
            "db",
            [
                Document("d1", terms=["a", "a", "a", "b"]),  # norm sqrt(10)
                Document("d2", terms=["a"]),                 # norm 1
                Document("d3", terms=["b", "b"]),            # norm 2
            ],
        )
    )


class TestBuildRepresentative:
    def test_probability_is_df_over_n(self, engine):
        rep = build_representative(engine)
        assert rep.get("a").probability == pytest.approx(2 / 3)
        assert rep.get("b").probability == pytest.approx(2 / 3)

    def test_mean_of_normalized_weights(self, engine):
        rep = build_representative(engine)
        # a: weights 3/sqrt(10) and 1.0.
        expected = (3 / math.sqrt(10) + 1.0) / 2
        assert rep.get("a").mean == pytest.approx(expected)

    def test_std_population(self, engine):
        rep = build_representative(engine)
        w1, w2 = 3 / math.sqrt(10), 1.0
        mean = (w1 + w2) / 2
        expected = math.sqrt(((w1 - mean) ** 2 + (w2 - mean) ** 2) / 2)
        assert rep.get("a").std == pytest.approx(expected)

    def test_max_weight_stored(self, engine):
        rep = build_representative(engine)
        assert rep.get("a").max_weight == pytest.approx(1.0)
        assert rep.get("b").max_weight == pytest.approx(1.0)  # d3: 2/2

    def test_max_weight_omittable(self, engine):
        rep = build_representative(engine, include_max_weight=False)
        assert not rep.has_max_weights

    def test_n_documents(self, engine):
        assert build_representative(engine).n_documents == 3

    def test_covers_all_terms(self, engine):
        rep = build_representative(engine)
        assert rep.n_terms == 2

    def test_accepts_raw_index(self, engine):
        rep = build_representative(InvertedIndex(engine.collection))
        assert rep.get("a") == build_representative(engine).get("a")

    def test_single_occurrence_term_zero_std(self):
        engine = SearchEngine(
            Collection.from_documents("db", [Document("d1", terms=["solo"])])
        )
        stats = build_representative(engine).get("solo")
        assert stats.std == 0.0
        assert stats.mean == pytest.approx(1.0)
        assert stats.max_weight == pytest.approx(1.0)

    def test_name_copied_from_collection(self, engine):
        assert build_representative(engine).name == "db"

    def test_max_weight_at_least_mean(self, engine):
        rep = build_representative(engine)
        for __, stats in rep.items():
            assert stats.max_weight >= stats.mean - 1e-12


class TestGroupedReductionsMatchPerTermOracle:
    """``build_representative`` reduces posting lists of equal document
    frequency as rows of one block; every statistic must equal the
    per-term loop's bit for bit, in the index's iteration order.  The
    document frequencies straddle numpy's summation edges: the 8-wide
    unrolled block (7, 8, 9), the 128-element pairwise block (127, 128,
    129) and several pairwise levels (1024, 1100)."""

    DFS = (1, 7, 8, 9, 127, 128, 129, 1024, 1100)

    @pytest.fixture(scope="class")
    def engine(self):
        n = max(self.DFS)
        documents = []
        for i in range(n):
            terms = [f"filler{i % 13}"] * (1 + i % 3)
            for df in self.DFS:
                if i < df:  # the first df documents
                    terms += [f"a{df}"] * (1 + (i + df) % 4)
                if n - 1 - i < df:  # the last df documents
                    terms += [f"b{df}"] * (1 + (3 * i + df) % 5)
            documents.append(Document(f"d{i}", terms=terms))
        return SearchEngine(Collection.from_documents("db", documents))

    @staticmethod
    def bits(representative):
        return [
            (term, [
                None if v is None else struct.pack("<d", v)
                for v in (s.probability, s.mean, s.std, s.max_weight)
            ])
            for term, s in representative.items()
        ]

    def test_document_frequencies_cover_the_edges(self, engine):
        index = engine.index
        dfs = {index.document_frequency(t) for t in index.iter_term_ids()}
        assert set(self.DFS) <= dfs

    @pytest.mark.parametrize("include_max_weight", [True, False])
    def test_bit_identical_in_dict_order(self, engine, include_max_weight):
        built = build_representative(engine, include_max_weight)
        oracle = per_term_representative(engine, include_max_weight)
        assert built.n_documents == oracle.n_documents
        assert self.bits(built) == self.bits(oracle)

    def test_empty_index(self):
        empty = SearchEngine(Collection.from_documents("db", []))
        assert build_representative(empty).n_terms == 0
