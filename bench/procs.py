"""Server child processes: spawn through the CLI, watch, measure, reap.

HTTP workloads run the program exactly as an operator would —
``python -m repro.cli serve ...`` with default flags — so this module
knows the CLI's *text* surface only (the ``serving <role> at <url>`` and
``shard <i> at <url>`` announcement lines), never its Python API.

Every server is started in its own session so one ``killpg`` reaps it and
everything it spawned (the coordinator's shard workers); ``stop_all`` is
registered by the runner for normal exit, failures and SIGINT/SIGTERM, so
no ``repro serve`` process outlives a run.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from loadgen import HttpConnection

__all__ = ["ServerProcess", "stop_all", "process_stats", "REPO_ROOT"]

REPO_ROOT = Path(__file__).resolve().parent.parent
_ANNOUNCE = re.compile(r"serving (\w+) at http://([\w.]+):(\d+)")
_SHARD = re.compile(r"shard \d+ at (http://\S+)")
_LIVE: List["ServerProcess"] = []
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _die_with_parent() -> None:
    """In the child, before exec: SIGTERM (a graceful drain, which also
    stops the coordinator's shards) if the benchmark dies without cleaning
    up — the one case ``stop_all`` cannot cover is its own SIGKILL."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class ServerProcess:
    """One ``repro serve <role>`` child (plus whatever it spawns)."""

    def __init__(self, role: str, arguments: Sequence[str]):
        self.role = role
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", role, *arguments],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_child_env(),
            cwd=str(REPO_ROOT),
            start_new_session=True,
            preexec_fn=_die_with_parent,
        )
        _LIVE.append(self)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.shard_urls: List[str] = []
        self.output: List[str] = []

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until ``GET /healthz`` answers 200; returns seconds from
        spawn to that answer (the workload's cold-start time)."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.role} did not announce a URL")
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"{self.role} exited before serving:\n" + "".join(self.output)
                )
            self.output.append(line)
            shard = _SHARD.search(line)
            if shard:
                self.shard_urls.append(shard.group(1))
            match = _ANNOUNCE.search(line)
            if match and match.group(1) == self.role:
                self.host, self.port = match.group(2), int(match.group(3))
        # Keep draining stdout so the child never blocks on a full pipe.
        threading.Thread(target=self._drain, daemon=True).start()
        connection = HttpConnection(self.host, self.port)
        try:
            while True:
                try:
                    if connection.request("GET", "/healthz")[0] == 200:
                        break
                except (OSError, ValueError, IndexError):
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{self.role} never became healthy")
                time.sleep(0.01)
        finally:
            connection.close()
        return time.perf_counter() - self.started

    def _drain(self) -> None:
        for __ in self.process.stdout:
            pass

    def pids(self) -> List[int]:
        """The server and every live descendant (shard workers)."""
        found, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            for task in _listdir(f"/proc/{pid}/task"):
                children = _read(f"/proc/{pid}/task/{task}/children")
                frontier.extend(int(c) for c in children.split())
        return found

    def stop(self, timeout: float = 15.0) -> None:
        """SIGTERM (graceful drain), wait, then kill the whole session."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        if self in _LIVE:
            _LIVE.remove(self)


def stop_all() -> None:
    for server in list(_LIVE):
        server.stop(timeout=5.0)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii", errors="replace") as handle:
            return handle.read()
    except OSError:
        return ""


def _listdir(path: str) -> List[str]:
    try:
        return os.listdir(path)
    except OSError:
        return []


def process_stats(pids: Sequence[int]) -> Dict[str, float]:
    """Summed over ``pids``: peak RSS (MB), CPU seconds, context switches."""
    peak_kb = 0
    ticks = 0
    switches = 0
    for pid in pids:
        for line in _read(f"/proc/{pid}/status").splitlines():
            if line.startswith("VmHWM:"):
                peak_kb += int(line.split()[1])
        stat = _read(f"/proc/{pid}/stat").rpartition(")")[2].split()
        if len(stat) > 12:
            ticks += int(stat[11]) + int(stat[12])  # utime + stime
        for task in _listdir(f"/proc/{pid}/task"):
            for line in _read(f"/proc/{pid}/task/{task}/status").splitlines():
                if "ctxt_switches" in line:
                    switches += int(line.split()[1])
    return {
        "peak_rss_mb": peak_kb / 1024.0,
        "cpu_s": ticks / _CLOCK_TICKS,
        "ctx_switches": float(switches),
    }
