"""Smoke tests: every example script runs to completion.

Examples are the public face of the library — a broken example is a broken
deliverable, so each one is executed in-process.  The paper's tables are
not an example: ``repro evaluate`` reproduces them.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, argv=()):
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "space-news" in out
        assert "estimated NoDoc" in out

    def test_representative_sizing(self, capsys):
        run_example("representative_sizing.py")
        out = capsys.readouterr().out
        assert "WSJ" in out
        assert "mean abs error" in out

    @pytest.mark.slow
    def test_metasearch_selection(self, capsys):
        run_example("metasearch_selection.py")
        out = capsys.readouterr().out
        assert "selection quality" in out
        assert "recall of useful engines" in out

    @pytest.mark.slow
    def test_fleet_operations(self, capsys):
        run_example("fleet_operations.py")
        out = capsys.readouterr().out
        assert "live representative deltas" in out
        assert "equals the engine's rebuilt representative: True" in out
        assert "quota" in out

    @pytest.mark.slow
    def test_corpus_statistics(self, capsys):
        run_example("corpus_statistics.py")
        out = capsys.readouterr().out
        assert "Zipf exponent" in out
        assert "uniform-random contrast corpus" in out
