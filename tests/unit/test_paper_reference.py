"""Unit tests for the published-values reference data and the checker
of the paper's conclusions."""

from dataclasses import replace

import pytest

from repro.evaluation import ExperimentResult, ThresholdMetrics
from repro.evaluation.paper_reference import (
    PAPER_CONCLUSIONS,
    PAPER_METHODS,
    PAPER_TABLES_1_TO_6,
    PAPER_TABLES_7_TO_9,
    PAPER_TABLES_10_TO_12,
    paper_table,
    published_result,
)


class TestTables1To6:
    def test_databases_present(self):
        assert set(PAPER_TABLES_1_TO_6) == {"D1", "D2", "D3"}

    def test_six_thresholds_each(self):
        for rows in PAPER_TABLES_1_TO_6.values():
            assert [r.threshold for r in rows] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]

    def test_all_methods_present(self):
        for rows in PAPER_TABLES_1_TO_6.values():
            for row in rows:
                assert set(row.cells) == set(PAPER_METHODS)

    def test_published_headline_numbers(self):
        d1 = PAPER_TABLES_1_TO_6["D1"][0]
        assert d1.useful == 1475
        assert d1.cells["subrange"].match == 1423
        assert d1.cells["subrange"].mismatch == 13
        assert d1.cells["gloss-hc"].match == 296

    def test_u_decreases_with_threshold(self):
        for rows in PAPER_TABLES_1_TO_6.values():
            useful = [r.useful for r in rows]
            assert useful == sorted(useful, reverse=True)

    def test_paper_ordering_subrange_wins_matches(self):
        # The published data itself satisfies the ordering we assert on our
        # reproduction — a consistency check on the transcription.
        for rows in PAPER_TABLES_1_TO_6.values():
            for row in rows:
                assert row.cells["subrange"].match >= row.cells["prev"].match
                assert row.cells["prev"].match >= row.cells["gloss-hc"].match

    def test_match_bounded_by_u(self):
        for rows in PAPER_TABLES_1_TO_6.values():
            for row in rows:
                for cell in row.cells.values():
                    assert cell.match <= row.useful


class TestSingleMethodTables:
    def test_quantized_tables_cover_databases(self):
        assert set(PAPER_TABLES_7_TO_9) == {"D1", "D2", "D3"}

    def test_quantized_d1_close_to_exact_d1(self):
        # The paper's robustness claim, checked on its own numbers.
        exact = PAPER_TABLES_1_TO_6["D1"]
        quantized = PAPER_TABLES_7_TO_9["D1"]
        for e_row, q_row in zip(exact, quantized):
            e_cell = e_row.cells["subrange"]
            q_cell = next(iter(q_row.cells.values()))
            assert abs(e_cell.match - q_cell.match) <= 2

    def test_table10_marked_damaged(self):
        assert PAPER_TABLES_10_TO_12["D1"] == ()

    def test_triplet_d2_worse_than_exact_d2(self):
        exact = PAPER_TABLES_1_TO_6["D2"]
        triplet = PAPER_TABLES_10_TO_12["D2"]
        exact_match = sum(r.cells["subrange"].match for r in exact)
        triplet_match = sum(
            next(iter(r.cells.values())).match for r in triplet
        )
        assert triplet_match < exact_match


class TestLookup:
    @pytest.mark.parametrize(
        "table_id,db",
        [("table1", "D1"), ("table3", "D2"), ("table5", "D3"),
         ("table7", "D1"), ("table9", "D3"), ("table11", "D2")],
    )
    def test_mapping(self, table_id, db):
        rows = paper_table(table_id)
        assert rows is not None and len(rows) == 6

    def test_unknown_table(self):
        assert paper_table("table99") is None

    def test_table10_lookup_empty(self):
        assert paper_table("table10") == ()


class TestPublishedResult:
    def test_columns_follow_the_tables(self):
        d2 = published_result("D2")
        assert d2.methods == [*PAPER_METHODS, "quantized", "triplet"]
        assert d2.useful_counts()[0] == 2506
        assert d2.metrics["quantized"][0].match == 2353
        assert d2.metrics["triplet"][-1].d_avgsim == 0.440

    def test_damaged_table10_has_no_column(self):
        assert "triplet" not in published_result("D1").metrics


def paper_run(database, mismatch=1):
    """A two-threshold run on which every conclusion about ``database``
    holds: methods ranked per threshold and in total, the one-byte column
    equal to the exact one, the triplet column worse in total."""
    cells = {
        "gloss-hc": [(1, 0, 9.0, 0.5), (0, 0, 9.0, 0.5)],
        "prev": [(5, 0, 5.0, 0.2), (2, 0, 5.0, 0.2)],
        "subrange": [(9, mismatch, 2.0, 0.1), (4, 0, 2.0, 0.1)],
        "quantized": [(9, mismatch, 2.0, 0.1), (4, 0, 2.0, 0.1)],
        "triplet": [(8, mismatch + 3, 2.5, 0.3), (3, 1, 2.5, 0.3)],
    }
    return ExperimentResult(
        database=database,
        n_documents=100,
        n_queries=50,
        thresholds=(0.1, 0.2),
        methods=list(cells),
        labels={key: key for key in cells},
        metrics={
            key: [
                ThresholdMetrics(threshold, 10, *cell)
                for threshold, cell in zip((0.1, 0.2), column)
            ]
            for key, column in cells.items()
        },
    )


def conclusion(table, field):
    return next(
        c for c in PAPER_CONCLUSIONS if c.table == table and c.field == field
    )


class TestConclusions:
    @pytest.fixture
    def results(self):
        return {database: paper_run(database) for database in ("D1", "D2", "D3")}

    def test_every_conclusion_holds_on_a_consistent_run(self, results):
        assert [c.check(results) for c in PAPER_CONCLUSIONS] == (
            ["holds"] * len(PAPER_CONCLUSIONS)
        )

    @pytest.mark.parametrize(
        "table,field,cell,value",
        [
            # prev passes subrange at the second threshold.
            ("table1", "match", ("D1", "prev", 1), 5),
            # subrange's d-N total passes prev's.
            ("table2", "d_nodoc", ("D1", "subrange", 0), 9.0),
            # one-byte match 4 away from the exact 9 (band max(3, 2%)).
            ("table7", "match", ("D1", "quantized", 0), 13),
            # triplet mismatch total ties the exact one: not strictly worse.
            ("table10", "mismatch", ("D1", "triplet", 0), 0),
            # D1 now has more subrange mismatches than D2.
            ("table3", "mismatch", ("D1", "subrange", 0), 2),
        ],
        ids=["ordering", "total", "tolerance-band", "strict-worse",
             "cross-database"],
    )
    def test_one_perturbed_cell_fails(self, results, table, field, cell, value):
        checked = conclusion(table, field)
        assert checked.check(results) == "holds"
        database, method, index = cell
        column = results[database].metrics[method]
        column[index] = replace(column[index], **{field: value})
        assert checked.check(results) == "FAILS"

    def test_missing_method_or_database_is_not_run(self, results):
        del results["D1"].metrics["triplet"]
        del results["D2"]
        assert conclusion("table10", "mismatch").check(results) == "not run"
        assert conclusion("table3", "mismatch").check(results) == "not run"
        assert conclusion("table11", "d_avgsim").check(results) == "not run"
        assert conclusion("table1", "match").check(results) == "holds"

    def test_reads_as_a_claim(self):
        assert str(conclusion("table3", "mismatch")) == (
            "total mismatch: D2 subrange >= D1 subrange"
        )
        assert str(conclusion("table7", "match")) == (
            "D1 match at every T: quantized within max(3, 2%) of subrange"
        )
