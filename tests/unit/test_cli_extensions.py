"""Unit tests for the analyze / allocate / import-trec / stats CLI commands."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.corpus import Collection, Document, save_collection
from repro.engine import SearchEngine
from repro.representatives import build_representative


@pytest.fixture
def collection_file(tmp_path):
    collection = Collection.from_documents(
        "db",
        [
            Document("d1", terms=["rocket", "orbit", "rocket", "engine"]),
            Document("d2", terms=["sauce", "basil", "engine"]),
            Document("d3", terms=["rocket"]),
        ],
    )
    path = tmp_path / "db.jsonl"
    save_collection(collection, path)
    return path


class TestAnalyze:
    def test_prints_statistics(self, collection_file, capsys):
        assert main(["analyze", "--collection", str(collection_file)]) == 0
        out = capsys.readouterr().out
        assert "documents            : 3" in out
        assert "Zipf exponent" in out
        assert "representative" in out


class TestAllocate:
    def test_prints_quotas(self, tmp_path, capsys):
        rep_paths = []
        for name, docs in (
            ("rich", [["x", "y"], ["x"], ["x", "z"]]),
            ("poor", [["x", "a", "b", "c", "d"]]),
        ):
            engine = SearchEngine(
                Collection.from_documents(
                    name,
                    [Document(f"{name}-{i}", terms=t) for i, t in enumerate(docs)],
                )
            )
            path = tmp_path / f"{name}.rep.json"
            build_representative(engine).save(path)
            rep_paths.append(str(path))
        assert main(
            ["allocate", "--representatives", *rep_paths, "--query", "x",
             "-k", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "desired  : 3 documents" in out
        assert "rich:" in out
        assert "poor:" in out


class TestImportTrec:
    def test_converts_and_saves(self, tmp_path, capsys):
        sgml = tmp_path / "wsj.sgml"
        sgml.write_text(
            "<DOC>\n<DOCNO>W-1</DOCNO>\n<TEXT>rocket engines roar</TEXT>\n</DOC>\n"
            "<DOC>\n<DOCNO>W-2</DOCNO>\n<TEXT>basil sauce simmers</TEXT>\n</DOC>\n"
        )
        out_path = tmp_path / "wsj.jsonl.gz"
        assert main(
            ["import-trec", str(sgml), "--name", "wsj", "--out", str(out_path)]
        ) == 0
        assert out_path.exists()
        assert "2 docs" in capsys.readouterr().out

    def test_limit_flag(self, tmp_path, capsys):
        sgml = tmp_path / "wsj.sgml"
        sgml.write_text(
            "<DOC>\n<DOCNO>W-1</DOCNO>\n<TEXT>one</TEXT>\n</DOC>\n"
            "<DOC>\n<DOCNO>W-2</DOCNO>\n<TEXT>two</TEXT>\n</DOC>\n"
        )
        out_path = tmp_path / "wsj.jsonl"
        assert main(
            ["import-trec", str(sgml), "--name", "wsj",
             "--out", str(out_path), "--limit", "1"]
        ) == 0
        assert "1 docs" in capsys.readouterr().out


class TestFleet:
    def test_runs_concurrent_fleet(self, capsys):
        assert main(
            ["fleet", "--groups", "4", "--queries", "6", "--workers", "4",
             "--cache-size", "64", "--scale", "small"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet    : 4 engines, 6 queries" in out
        assert "workers=4" in out
        assert "failures : none" in out
        assert "cache    :" in out

    def test_serial_path_and_disabled_cache(self, capsys):
        assert main(
            ["fleet", "--groups", "3", "--queries", "4", "--workers", "1",
             "--cache-size", "0", "--scale", "small"]
        ) == 0
        out = capsys.readouterr().out
        assert "workers=1" in out
        # The zero-capacity cache holds nothing; every lookup missed.
        assert "0.0% hit rate, 0 resident" in out

    def test_hung_engine_degrades_gracefully(self, capsys):
        assert main(
            ["fleet", "--groups", "4", "--queries", "4", "--workers", "4",
             "--timeout", "0.3", "--hang-engines", "1",
             "--hang-seconds", "0.8", "--threshold", "0.1",
             "--scale", "small"]
        ) == 0
        out = capsys.readouterr().out
        assert "failures : 1 timeout" in out
        assert "hits" in out


STATS_FAST = ["stats", "--groups", "3", "--queries", "4"]


class TestStats:
    def test_json_output_parses(self, capsys):
        assert main(STATS_FAST + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {m["name"] for m in doc["metrics"]}
        assert "broker.searches" in names
        assert "dispatch.fanouts" in names
        assert "estimator.expansions" in names
        by_name = {m["name"]: m for m in doc["metrics"] if not m.get("labels")}
        assert by_name["broker.searches"]["value"] == 4.0

    def test_prometheus_output_format(self, capsys):
        assert main(STATS_FAST + ["--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_broker_searches_total counter" in out
        assert "repro_broker_searches_total 4.0" in out
        assert 'repro_dispatch_engine_seconds_bucket{engine="group00",le="+Inf"}' in out
        assert "repro_estimator_expansions_total" in out

    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(STATS_FAST + ["--format", "json", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["metrics"]
        assert f"wrote {path}" in capsys.readouterr().out

    def test_show_trace_keeps_stdout_parseable(self, capsys):
        assert main(STATS_FAST + ["--format", "json", "--show-trace"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # trace must not pollute stdout
        assert "estimate" in captured.err
        assert "merge" in captured.err

    def test_deterministic_given_seed(self, capsys):
        assert main(STATS_FAST + ["--format", "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(STATS_FAST + ["--format", "json"]) == 0
        second = json.loads(capsys.readouterr().out)

        def counters(doc):
            return {
                (m["name"], tuple(sorted(m.get("labels", {}).items()))): m["value"]
                for m in doc["metrics"]
                if m["kind"] == "counter" and "seconds" not in m["name"]
            }

        assert counters(first) == counters(second)

    def test_package_entry_point_round_trip(self):
        """``python -m repro stats`` as a real process, in both formats:
        the package entry point, which the in-process tests never run."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": src if not path else os.pathsep.join([src, path]),
        }

        def run(fmt):
            return subprocess.run(
                [sys.executable, "-m", "repro", *STATS_FAST, "--format", fmt],
                capture_output=True, text=True, env=env, timeout=120,
                check=True,
            ).stdout

        by_name = {
            m["name"]: m
            for m in json.loads(run("json"))["metrics"]
            if not m.get("labels")
        }
        assert by_name["broker.searches"]["value"] == 4.0
        assert "repro_broker_searches_total 4.0" in run("prometheus")


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro.version import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert package_version() in out
        assert "repro-usefulness" in out

    def test_version_matches_serving_header(self):
        """The CLI flag and the serving layer report the same version."""
        from repro.version import package_version
        from repro.serving import EngineApp, ServingServer
        import urllib.request

        engine = SearchEngine(
            Collection.from_documents("v", [Document("d", terms=["x"])])
        )
        server = ServingServer(EngineApp(engine))
        server.start_background()
        try:
            response = urllib.request.urlopen(
                server.url + "/healthz", timeout=5
            )
            assert response.headers["X-Repro-Version"] == package_version()
            assert response.headers["Server"] == (
                f"repro-serving/{package_version()}"
            )
        finally:
            server.drain(timeout=5)


class TestConvertRep:
    @pytest.fixture
    def rep_json(self, tmp_path):
        engine = SearchEngine(
            Collection.from_documents(
                "db",
                [
                    Document("d1", terms=["rocket", "orbit", "rocket"]),
                    Document("d2", terms=["sauce", "basil", "orbit"]),
                ],
            )
        )
        path = tmp_path / "rep.json"
        build_representative(engine).save(path)
        return path

    def test_round_trip_is_lossless(self, rep_json, tmp_path, capsys):
        from repro.representatives import DatabaseRepresentative

        npz = tmp_path / "rep.npz"
        back = tmp_path / "back.json"
        assert main(["convert-rep", str(rep_json), str(npz)]) == 0
        assert main(["convert-rep", str(npz), str(back)]) == 0
        original = DatabaseRepresentative.load(rep_json)
        restored = DatabaseRepresentative.load(back)
        assert restored.name == original.name
        assert restored.n_documents == original.n_documents
        assert dict(restored.items()) == dict(original.items())
        out = capsys.readouterr().out
        assert "rep.npz" in out

    def test_requires_exactly_one_npz_side(self, rep_json, tmp_path, capsys):
        assert (
            main(["convert-rep", str(rep_json), str(tmp_path / "o.json")]) == 2
        )
        assert "exactly one" in capsys.readouterr().err

    def test_rep_diff_refuses_two_databases(self, rep_json, tmp_path, capsys):
        other = tmp_path / "other.json"
        engine = SearchEngine(
            Collection.from_documents("other", [Document("d1", terms=["orbit"])])
        )
        build_representative(engine).save(other)
        assert main(["rep-diff", str(rep_json), str(other)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: representatives name different databases "
            "('db' vs 'other')\n"
        )


class TestSpawnShards:
    def test_a_shard_that_never_announces_stops_those_already_started(
        self, monkeypatch
    ):
        """``serve coordinator --shards N`` holds no handle on the shards
        ``_spawn_shards`` started until it returns, so a failed announce
        must stop and reap them itself."""
        import argparse
        import io

        from repro.cli import serve

        started = []

        class FakeShard:
            def __init__(self, command, **kwargs):
                index = int(command[command.index("--shard-index") + 1])
                announce = "serving shard at http://127.0.0.1:1\n"
                self.stdout = io.StringIO(announce if index == 0 else "")
                self.events = []
                started.append(self)

            def terminate(self):
                self.events.append("terminate")

            def wait(self, timeout=None):
                self.events.append("wait")
                return 0

            def kill(self):
                self.events.append("kill")

        monkeypatch.setattr(subprocess, "Popen", FakeShard)
        args = argparse.Namespace(collections=["a.jsonl", "b.jsonl"], shards=2)
        with pytest.raises(RuntimeError, match="shard 1 did not announce"):
            serve._spawn_shards(args)
        assert len(started) == 2
        assert [shard.events for shard in started] == [["terminate", "wait"]] * 2

    def test_a_shard_that_writes_after_its_announce_never_blocks(
        self, monkeypatch, capsys
    ):
        """What a shard writes after its announce line (a traceback per
        unhandled error it serves) is read on and forwarded to stderr: a
        pipe left unread would block the shard once it filled up."""
        import argparse

        from repro.cli import serve

        size = 256 * 1024
        script = (
            "import sys\n"
            "print('serving shard at http://127.0.0.1:1', flush=True)\n"
            f"sys.stdout.write(('x' * 1023 + '\\n') * {size // 1024})\n"
        )
        popen = subprocess.Popen
        monkeypatch.setattr(
            subprocess, "Popen",
            lambda command, **kwargs: popen(
                [sys.executable, "-c", script], **kwargs
            ),
        )
        args = argparse.Namespace(collections=["a.jsonl"], shards=1)
        [proc], urls = serve._spawn_shards(args)
        try:
            assert urls == ["http://127.0.0.1:1"]
            assert proc.wait(timeout=10) == 0
            forwarded = ""
            deadline = time.monotonic() + 10
            while forwarded.count("x") < size - size // 1024:
                assert time.monotonic() < deadline, len(forwarded)
                time.sleep(0.01)
                forwarded += capsys.readouterr().err
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_a_usage_error_after_the_spawn_still_stops_the_shards(
        self, monkeypatch, capsys
    ):
        """A usage error raised once the shards run (here a failed attach)
        goes through the one error path, exit 2 and ``error: ...`` on
        stderr, and ``serve coordinator`` still stops the shards."""
        from repro.cli import serve
        from repro.serving import ShardedFleet

        stopped = []
        monkeypatch.setattr(
            serve, "_spawn_shards", lambda args: (["shard 0"], ["http://127.0.0.1:1"])
        )
        monkeypatch.setattr(serve, "_stop_shards", stopped.extend)

        def refuse(fleet, timeout=None):
            raise ValueError("no engine to attach")

        monkeypatch.setattr(ShardedFleet, "attach", refuse)
        argv = ["serve", "coordinator", "--shards", "1", "--collections", "a.jsonl"]
        assert main(argv) == 2
        assert stopped == ["shard 0"]
        assert capsys.readouterr().err == "error: no engine to attach\n"
