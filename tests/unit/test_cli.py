"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.corpus import Collection, Document, save_collection


@pytest.fixture
def collection_file(tmp_path):
    collection = Collection.from_documents(
        "cli-db",
        [
            Document("d1", terms=["rocket", "orbit", "rocket"]),
            Document("d2", terms=["sauce"]),
        ],
    )
    path = tmp_path / "db.jsonl"
    save_collection(collection, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synth_defaults(self):
        args = build_parser().parse_args(["synth"])
        assert args.n_queries == 6234
        assert args.seed == 1999

    def test_evaluate_database_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--database", "D9"])


class TestRepresent:
    def test_creates_representative(self, collection_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(
            ["represent", "--collection", str(collection_file), "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "2 docs" in capsys.readouterr().out


class TestEstimate:
    def test_prints_estimate_and_truth(self, collection_file, capsys):
        code = main(
            [
                "estimate",
                "--collection", str(collection_file),
                "--query", "rocket",
                "--threshold", "0.3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated" in out
        assert "true" in out
        assert "cli-db" in out

    def test_with_saved_representative(self, collection_file, tmp_path, capsys):
        rep_path = tmp_path / "rep.json"
        main(["represent", "--collection", str(collection_file),
              "--out", str(rep_path)])
        code = main(
            [
                "estimate",
                "--collection", str(collection_file),
                "--representative", str(rep_path),
                "--query", "sauce",
                "--method", "basic",
            ]
        )
        assert code == 0
        assert "basic" in capsys.readouterr().out


class TestUnknownEstimatorName:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["estimate", "--collection", "missing.jsonl", "--query", "rocket",
              "--method", "bogus"], "error: unknown estimator 'bogus'"),
            (["evaluate", "--queries", "1", "--methods", "subrange", "bogus"],
             "error: unknown estimator 'bogus'"),
            (["evaluate", "--queries", "-3"], "error: --queries must be >= 1"),
            (["evaluate", "--queries", "0"], "error: --queries must be >= 1"),
            (["evaluate", "--methods", "subrange", "subrange"],
             "error: --methods names subrange more than once"),
            (["evaluate", "--database", "D2", "D1", "D2"],
             "error: --database names D2 more than once"),
            (["fleet", "--groups", "0"], "error: --groups must be >= 1, got 0"),
            (["fleet", "--queries", "0"], "error: --queries must be >= 1, got 0"),
            (["stats", "--groups", "0"], "error: --groups must be >= 1, got 0"),
            (["stats", "--queries", "0"], "error: --queries must be >= 1, got 0"),
            (["batch", "--groups", "0"], "error: --groups must be >= 1, got 0"),
            (["batch", "--queries", "0"], "error: --queries must be >= 1, got 0"),
        ],
        ids=["estimate", "evaluate", "evaluate-negative-queries",
             "evaluate-zero-queries", "evaluate-repeated-method",
             "evaluate-repeated-database", "fleet-zero-groups",
             "fleet-zero-queries", "stats-zero-groups", "stats-zero-queries",
             "batch-zero-groups", "batch-zero-queries"],
    )
    def test_answers_error_before_any_work(self, argv, message, monkeypatch,
                                           capsys):
        """An unknown estimator name, a bad ``evaluate`` option or an empty
        demo fleet or query log is a usage error (exit 2, ``error: ...``)
        found before the collection is read, D1-D3 are built or a
        synthetic model is made."""

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        monkeypatch.setattr("repro.cli.paper.load_collection", no_work)
        monkeypatch.setattr("repro.cli.paper.build_paper_databases", no_work)
        monkeypatch.setattr("repro.cli.demos.NewsgroupModel", no_work)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(message)


class TestQueryLengthBound:
    """A query longer than ``MAX_QUERY_TERMS`` is a usage error (exit 2)
    before any expansion: a subrange expansion grows about ``7**Q``
    terms, so one long query could exhaust the process."""

    TERMS = [f"t{i}" for i in range(8)]

    @pytest.fixture
    def files(self, tmp_path):
        collection = Collection.from_documents(
            "long-db",
            [Document("d1", terms=self.TERMS), Document("d2", terms=self.TERMS[:3])],
        )
        collection_path = tmp_path / "db.jsonl"
        save_collection(collection, collection_path)
        rep_path = tmp_path / "rep.json"
        assert main(["represent", "--collection", str(collection_path),
                     "--out", str(rep_path)]) == 0
        return collection_path, rep_path

    @pytest.mark.parametrize("command", ["estimate", "allocate"])
    def test_eight_terms_exit_2_and_six_run(self, command, files, capsys):
        collection_path, rep_path = files

        def argv(terms):
            query = ["--query", " ".join(terms)]
            if command == "estimate":
                return ["estimate", "--collection", str(collection_path), *query]
            return ["allocate", "--representatives", str(rep_path), *query]

        assert main(argv(self.TERMS)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: query has 8 terms; at most 6 are accepted")
        assert main(argv(self.TERMS[:6])) == 0


class TestScalability:
    def test_prints_paper_rows(self, capsys):
        assert main(["scalability"]) == 0
        out = capsys.readouterr().out
        assert "WSJ" in out
        assert "3.85" in out
