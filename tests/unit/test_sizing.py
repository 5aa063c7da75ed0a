"""Unit tests for the Section 3.2 scalability accounting."""

import pytest

from repro.corpus import Collection, Document
from repro.representatives import (
    PAPER_COLLECTION_STATS,
    representative_size_bytes,
    sizing_for_collection,
)


class TestRepresentativeSizeBytes:
    def test_quadruplet_is_20_bytes_per_term(self):
        assert representative_size_bytes(1000) == 20000

    def test_quantized_is_8_bytes_per_term(self):
        assert representative_size_bytes(1000, bytes_per_number=1) == 8000

    def test_triplet_is_16_bytes_per_term(self):
        assert representative_size_bytes(1000, n_fields=3) == 16000

    def test_zero_terms(self):
        assert representative_size_bytes(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            representative_size_bytes(-1)


class TestPaperTable:
    """The three published rows must reproduce exactly."""

    @pytest.mark.parametrize(
        "name,pages,terms,rep_pages,percent",
        [
            ("WSJ", 40605, 156298, 1563, 3.85),
            ("FR", 33315, 126258, 1263, 3.79),
            ("DOE", 25152, 186225, 1862, 7.40),
        ],
    )
    def test_published_rows(self, name, pages, terms, rep_pages, percent):
        row = next(r for r in PAPER_COLLECTION_STATS if r.name == name)
        assert row.collection_pages == pages
        assert row.n_distinct_terms == terms
        assert round(row.representative_pages) == rep_pages
        assert row.percent == pytest.approx(percent, abs=0.01)

    def test_quantized_range_claim(self):
        # Section 3.2: one-byte coding brings sizes to ~1.5%-3%.
        for row in PAPER_COLLECTION_STATS:
            assert 1.4 <= row.quantized_percent <= 3.1


class TestSizingForCollection:
    def test_counts_terms_and_pages(self):
        collection = Collection.from_documents(
            "c", [Document("d1", terms=["aa", "bb", "aa"], text="x" * 4000)]
        )
        row = sizing_for_collection(collection)
        assert row.n_distinct_terms == 2
        assert row.collection_pages == pytest.approx(2.0)
        assert row.representative_pages == pytest.approx(40 / 2000)

    def test_empty_collection_percent_zero(self):
        row = sizing_for_collection(Collection("empty"))
        assert row.percent == 0.0
        assert row.quantized_percent == 0.0

    def test_quantized_smaller_than_full(self, small_group0):
        row = sizing_for_collection(small_group0)
        assert row.quantized_pages < row.representative_pages
        assert row.quantized_percent < row.percent
        # 8 of the 20 bytes per term (Section 3.2).
        assert row.quantized_pages / row.representative_pages == pytest.approx(0.4)
