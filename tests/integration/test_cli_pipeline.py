"""Integration test: the CLI data pipeline end to end.

synth (reduced scale via a patched model) -> represent -> estimate, plus
the evaluate command on a tiny query budget.  Exercises the exact command
sequence the README documents.
"""

import pytest

from repro.cli import main
from repro.corpus import load_collection, load_queries


@pytest.mark.slow
class TestCliPipeline:
    def test_synth_represent_estimate(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        assert main(
            ["synth", "--out-dir", str(out_dir), "--n-queries", "50"]
        ) == 0
        assert (out_dir / "D1.jsonl.gz").exists()
        assert (out_dir / "D2.jsonl.gz").exists()
        assert (out_dir / "D3.jsonl.gz").exists()
        assert (out_dir / "queries.jsonl.gz").exists()

        d1 = load_collection(out_dir / "D1.jsonl.gz")
        assert d1.n_documents == 761
        queries = load_queries(out_dir / "queries.jsonl.gz")
        assert len(queries) == 50

        rep_path = tmp_path / "d1.rep.json"
        assert main(
            [
                "represent",
                "--collection", str(out_dir / "D1.jsonl.gz"),
                "--out", str(rep_path),
            ]
        ) == 0
        assert rep_path.exists()

        # Estimate with a term guaranteed to exist in D1.
        term = next(iter(d1.vocabulary))
        assert main(
            [
                "estimate",
                "--collection", str(out_dir / "D1.jsonl.gz"),
                "--representative", str(rep_path),
                "--query", term,
                "--threshold", "0.1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "estimated: NoDoc=" in out

    def test_evaluate_small(self, capsys):
        assert main(
            ["evaluate", "--database", "D1", "--queries", "60"]
        ) == 0
        out = capsys.readouterr().out
        assert "match/mismatch on D1" in out
        assert "subrange method" in out
        assert "=== table10: reproduction ===" in out
        assert "the paper's conclusions" in out
