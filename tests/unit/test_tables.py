"""Unit tests for paper-style table rendering."""

from dataclasses import replace

import pytest

from repro.core import BasicEstimator, SubrangeEstimator
from repro.evaluation import (
    MethodSpec,
    format_combined_table,
    format_conclusions,
    format_error_table,
    format_match_table,
    format_paper_tables,
    format_sizing_table,
    run_usefulness_experiment,
)
from repro.evaluation.paper_reference import PAPER_CONCLUSIONS, published_result
from repro.representatives import PAPER_COLLECTION_STATS


@pytest.fixture(scope="module")
def result(small_engine, small_representative, small_queries):
    return run_usefulness_experiment(
        small_engine,
        small_queries[:40],
        [
            MethodSpec("subrange", SubrangeEstimator(), small_representative),
            MethodSpec("basic", BasicEstimator(), small_representative),
        ],
    )


class TestMatchTable:
    def test_contains_thresholds_and_labels(self, result):
        text = format_match_table(result)
        assert "0.1" in text and "0.6" in text
        assert "subrange method" in text
        assert "basic method" in text

    def test_cells_are_slash_pairs(self, result):
        lines = format_match_table(result).splitlines()[3:]
        for line in lines:
            assert line.count("/") == 2  # one per method

    def test_method_subset(self, result):
        text = format_match_table(result, methods=["subrange"])
        assert "basic method" not in text

    def test_title_mentions_database(self, result):
        assert result.database in format_match_table(result)


class TestErrorTable:
    def test_has_dn_and_ds_columns(self, result):
        header = format_error_table(result).splitlines()[1]
        assert "d-N" in header
        assert "d-S" in header

    def test_row_count(self, result):
        lines = format_error_table(result).splitlines()
        # title + header + separator + one row per threshold.
        assert len(lines) == 3 + len(result.thresholds)


class TestCombinedTable:
    def test_single_method_layout(self, result):
        text = format_combined_table(result, "subrange")
        header = text.splitlines()[1]
        for column in ("T", "m/mis", "d-N", "d-S"):
            assert column in header

    def test_unknown_method_raises(self, result):
        with pytest.raises(KeyError):
            format_combined_table(result, "nope")


class TestPaperTables:
    def test_table_order_beside_published(self):
        text = format_paper_tables(
            {"D3": published_result("D3"), "D1": published_result("D1")}
        )
        headers = [line for line in text.splitlines() if line.startswith("===")]
        assert headers == [
            f"=== table{n}: reproduction ===" for n in (1, 2, 5, 6, 7, 9, 12)
        ]
        assert "--- table12: published values (paper) ---" in text

    def test_published_columns_for_the_papers_methods_only(self, result):
        text = format_paper_tables({"D1": replace(result, database="D1")})
        published = text.split("--- table1: published values (paper) ---")[1]
        header = published.splitlines()[2]
        assert "subrange method" in header and "basic" not in header
        basic_only = replace(result, database="D1", methods=["basic"])
        assert "--- table1: published values unavailable ---" in (
            format_paper_tables({"D1": basic_only})
        )

    def test_one_line_per_conclusion(self):
        lines = format_conclusions({"D1": published_result("D1")}).splitlines()
        assert len(lines) == 1 + len(PAPER_CONCLUSIONS)
        assert lines[1] == (
            "holds    table1   D1 match at every T: subrange >= prev >= gloss-hc"
        )
        assert lines[4].startswith("not run  table3 ")


class TestSizingTable:
    def test_paper_rows_render(self):
        text = format_sizing_table(PAPER_COLLECTION_STATS)
        assert "WSJ" in text
        assert "3.85" in text
        assert "1563" in text

    def test_empty(self):
        text = format_sizing_table([])
        assert "collection" in text
