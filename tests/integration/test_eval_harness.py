"""Integration tests for the golden-query evaluation harness.

Three guarantees the ``repro eval`` pipeline rests on:

* the committed golden sets regenerate byte-identically from their seed,
* the broker (columnar), a sharded topology and the scalar oracle over
  dict representatives all produce an *identical* report over them, and
* the committed floors file passes against the current code — the same
  gate CI applies, so a floor regression fails here first.
"""

import contextlib
import json
from pathlib import Path

import pytest

from repro.core import get_estimator
from repro.engine import SearchEngine
from repro.evaluation.harness import (
    STRATUM_NAMES,
    build_eval_fleet,
    canonical_json_bytes,
    check_floors,
    golden_manifest,
    load_floors,
    load_golden_strata,
    manifest_payload,
    run_evaluation,
    stratum_payload,
)
from repro.metasearch import MetasearchBroker
from repro.representatives import build_representative, partition_round_robin
from repro.serving import ServingServer, ShardApp, ShardedFleet
from tests.oracle import ScalarOracle

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = Path(__file__).parent / "golden" / "queries"
FLOORS_PATH = Path(__file__).parent / "golden" / "floors.json"

ESTIMATORS = [
    "basic",
    "binary-independence",
    "gloss-hc",
    "gloss-disjoint",
    "subrange",
]


def comparable(result) -> dict:
    """An eval payload minus run identity (config label, timestamp): two
    backends claiming exactness must agree on this, byte for byte."""
    return {
        key: value
        for key, value in result.payload.items()
        if key not in ("config", "generated_at")
    }


@pytest.fixture(scope="module")
def golden():
    return load_golden_strata(GOLDEN_DIR)


@pytest.fixture(scope="module")
def eval_fleet():
    manifest = golden_manifest(GOLDEN_DIR)
    collections = build_eval_fleet(
        int(manifest["seed"]), int(manifest["n_engines"])
    )
    engines = [SearchEngine(c) for c in collections]
    representatives = {e.name: build_representative(e) for e in engines}
    return engines, representatives


def _backends(make_backend, engines, representatives):
    backends = {}
    for name in ESTIMATORS:
        backend = make_backend(get_estimator(name))
        for engine in engines:
            backend.register(engine, representative=representatives[engine.name])
        backends[name] = backend
    return backends


class TestGoldenRegeneration:
    def test_committed_sets_regenerate_byte_identically(self, tmp_path):
        # Satellite guarantee: one --seed reproduces the committed JSON.
        from repro.evaluation.harness import write_golden_strata

        manifest = golden_manifest(GOLDEN_DIR)
        written = write_golden_strata(
            tmp_path,
            seed=int(manifest["seed"]),
            n_engines=int(manifest["n_engines"]),
        )
        for name, path in written.items():
            committed = (GOLDEN_DIR / Path(path).name).read_bytes()
            assert Path(path).read_bytes() == committed, (
                f"{name}: regenerated golden set diverges from committed"
            )

    def test_manifest_covers_all_strata(self):
        manifest = golden_manifest(GOLDEN_DIR)
        assert sorted(manifest["strata"]) == sorted(STRATUM_NAMES)
        assert len(STRATUM_NAMES) >= 4

    def test_committed_files_are_canonical(self, golden):
        # Committed bytes == canonical serialization of their own payload
        # (catches hand edits that would break byte-reproducibility).
        for name, stratum in golden.items():
            committed = (GOLDEN_DIR / f"{name}.json").read_bytes()
            assert committed == canonical_json_bytes(stratum_payload(stratum))

    def test_strata_are_nonempty(self, golden):
        for stratum in golden.values():
            assert stratum.n_queries > 0
            assert stratum.diagnostic_threshold > stratum.threshold


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def columnar_result(self, golden, eval_fleet):
        engines, representatives = eval_fleet
        backends = _backends(
            lambda estimator: MetasearchBroker(estimator=estimator),
            engines,
            representatives,
        )
        return run_evaluation(
            backends, engines, golden, config="columnar",
        )

    def test_dict_matches_columnar(self, golden, eval_fleet, columnar_result):
        # The wall's reference: scalar estimators looped over the dict
        # representatives score exactly like the broker's columnar grid.
        engines, representatives = eval_fleet
        backends = _backends(ScalarOracle, engines, representatives)
        dict_result = run_evaluation(backends, engines, golden, config="dict")
        assert comparable(dict_result) == comparable(columnar_result)
        assert dict_result.detail == columnar_result.detail

    def test_sharded_matches_columnar(self, golden, eval_fleet, columnar_result):
        # The differential gate: a real sharded topology (shard brokers
        # behind in-process HTTP servers, ShardedFleet in front estimating
        # with each estimator from the representatives it read off the
        # shards) must reproduce the columnar report exactly — same
        # per-query rankings, same selected sets, same aggregate scores.
        engines, representatives = eval_fleet
        with contextlib.ExitStack() as stack:
            backends = {}
            for name in ESTIMATORS:
                urls = []
                for index, engine_slice in enumerate(
                    s for s in partition_round_robin(engines, 2) if s
                ):
                    broker = MetasearchBroker()
                    for engine in engine_slice:
                        broker.register(
                            engine, representative=representatives[engine.name]
                        )
                    server = ServingServer(ShardApp(broker, shard_index=index))
                    server.start_background()
                    stack.callback(server.drain, 10.0)
                    urls.append(server.url)
                fleet = ShardedFleet(
                    urls, estimator=get_estimator(name)
                ).attach(timeout=30.0)
                stack.callback(fleet.close)
                backends[name] = fleet
            sharded_result = run_evaluation(
                backends, engines, golden, config="sharded"
            )
        assert comparable(sharded_result) == comparable(columnar_result)
        assert sharded_result.detail == columnar_result.detail

    def test_report_covers_all_estimators_and_strata(self, columnar_result):
        payload = columnar_result.payload
        assert payload["estimators"] == sorted(ESTIMATORS)
        assert sorted(payload["strata"]) == sorted(STRATUM_NAMES)
        for stratum in payload["strata"].values():
            assert sorted(stratum["estimators"]) == sorted(ESTIMATORS)

    def test_committed_floors_pass(self, columnar_result):
        floors = load_floors(FLOORS_PATH)
        violations = check_floors(columnar_result.payload, floors)
        assert violations == [], "\n".join(violations)

    def test_monotonicity_never_fires(self, columnar_result):
        # Threshold monotonicity is structural: any violation anywhere is
        # a bug, not a tuning matter — pin it to zero across the board.
        for stratum in columnar_result.payload["strata"].values():
            for name, scores in stratum["estimators"].items():
                assert scores["tripwires"]["monotonicity_violations"] == 0, name


class TestEvalCli:
    def test_eval_command_end_to_end(self, tmp_path):
        from repro.cli import main

        code = main([
            "eval",
            "--config", "columnar",
            "--golden-dir", str(GOLDEN_DIR),
            "--out-dir", str(tmp_path),
            "--check-floors", str(FLOORS_PATH),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "eval_columnar.json").read_text())
        assert payload["kind"] == "eval_report"
        assert payload["generated_at"]
        # The committed report is the trajectory's quality anchor: the
        # same run today must reproduce it apart from the timestamp.
        committed = json.loads(
            (REPO_ROOT / "results" / "eval_columnar.json").read_text()
        )
        payload.pop("generated_at"), committed.pop("generated_at")
        assert payload == committed
        md = (tmp_path / "eval_columnar.md").read_text()
        assert "Engine-selection evaluation" in md
