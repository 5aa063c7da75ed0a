"""Smoke test of the benchmark harness: ``pytest bench -q``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  Runs the
whole report once at ``--scale smoke`` (4 HTTP engines, a 16-engine "wide"
fleet, one-second windows) and checks the harness, not the numbers: every
workload and metric of ``BENCHMARK.json`` is printed with a unit, the
names are well-formed, the trace files parse with every parent present,
and no ``repro serve`` process is left behind — on success or on SIGINT.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 5


def serve_processes() -> list:
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            command = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if b"repro.cli\0serve" in command:
            found.append(int(pid))
    return found


@pytest.fixture(scope="module")
def report():
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", str(SEED),
         "--seconds", "1", "--scale", "smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    written = json.loads(
        (BENCH / "results" / f"report-{SEED}-run.json").read_text()
    )
    return completed.stdout, written


def test_spec_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_spec_lists_exactly_what_the_code_emits():
    sys.path.insert(0, str(BENCH))
    import run

    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        run.all_per_layer_units()
    )
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        run.END_TO_END_UNITS
    )


def test_every_metric_of_every_workload_is_reported_with_a_unit(report):
    stdout, written = report
    assert set(written["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for key in ("cpus", "python", "numpy", "platform", "commit", "seed"):
        assert key in written["fingerprint"]
    for workload, entry in written["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, workload
        assert entry["null_metrics"] == (
            [] if workload == "live_delta_mix" else ["live.write_p50_ms"]
        ), workload
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                value = entry[section][metric["name"]]
                assert value["unit"] == metric["unit"]
                assert isinstance(value["value"], (int, float))
        for metric in SPEC["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0
        assert entry["per_layer"]["probe.errors"]["value"] == 0
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(
            rf"^{re.escape(metric['name'])}\s+{re.escape(metric['unit'])}\s",
            stdout, re.MULTILINE,
        ), metric["name"]


def test_trace_files_parse_and_every_parent_exists(report):
    for workload in (w["name"] for w in SPEC["workloads"]):
        path = BENCH / "results" / f"trace-{workload}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans, workload
        ids = {span["id"] for span in spans}
        for span in spans:
            assert set(span) == {
                "id", "parent", "request", "name", "start_ns", "end_ns"
            }
            assert span["parent"] is None or span["parent"] in ids
            assert span["end_ns"] >= span["start_ns"]


def test_no_server_outlives_a_run(report):
    assert serve_processes() == []


def test_sigint_reaps_the_server_children():
    process = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sharded_search",
         "--seed", str(SEED), "--seconds", "30", "--scale", "smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while len(serve_processes()) < 2 and time.monotonic() < deadline:
        time.sleep(0.1)
    assert serve_processes(), "the coordinator never started"
    process.send_signal(signal.SIGINT)
    assert process.wait(timeout=60) != 0
    assert process.stdout.read() == b""  # no result line from a killed run
    assert serve_processes() == []
