"""The four benchmark workloads.

Each workload owns its seeded inputs, its system under test, one *pass*
(a fixed sequence of operations, closed loop: the caller waits for each
reply) and its correctness gate.  The runner makes a fixed number of
passes.  Why each exists is in ``BENCHMARK.json`` and ``README.md``; the
shapes are ISSUE 11's, cut where an 8-second run on a 2-core box forces it
(README, "Differences from ISSUE 11").
"""

from __future__ import annotations

import collections
import gc
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import adapter
import hostspeed
import loadgen
import procs

__all__ = ["WORKLOADS", "SCALES", "Interval", "PassResult", "make_workload"]

#: Sizes.  ``smoke`` exists for ``test_smoke.py`` only.  ``*_pass_s`` is
#: what one pass took on the box the first baseline was taken on; with
#: ``--seconds`` it fixes the *number* of passes, so that number does not
#: move with the program's speed (README, "The best-pass rule").
SCALES = {
    "full": {
        "http_engines": 16, "http_pool": 48, "http_requests": 64,
        "wide_engines": 256, "wide_pool": 240, "wide_checked": 20,
        "live_engines": 64, "live_pool": 64, "live_ops": 400,
        "http_setups": 3, "wide_setups": 2, "live_setups": 3,
        "gateway_pass_s": 2.8, "sharded_pass_s": 4.2,
        "wide_pass_s": 3.0, "live_pass_s": 2.5,
    },
    "smoke": {
        "http_engines": 4, "http_pool": 8, "http_requests": 8,
        "wide_engines": 16, "wide_pool": 12, "wide_checked": 4,
        "live_engines": 4, "live_pool": 8, "live_ops": 40,
        "http_setups": 1, "wide_setups": 1, "live_setups": 1,
        "gateway_pass_s": 0.4, "sharded_pass_s": 0.4,
        "wide_pass_s": 0.4, "live_pass_s": 0.4,
    },
}

HTTP_CONNECTIONS = 2
LIVE_WRITE_EVERY = 20
LIVE_INITIAL_DOCS = 30
LIVE_SPARE_DOCS = 10


def zipf_sequence(rng: random.Random, pool_size: int, length: int) -> List[int]:
    """A sequence in which pool entry ``r`` (rank = pool position) appears
    ``length / (r + 1) / H`` times — Zipf(1), frequencies rounded by largest
    remainder — in an order drawn from ``rng``.  Seeds therefore differ in
    when a request arrives, not in how often: independent draws moved the
    hit ratio of ``live_delta_mix`` enough to swing its median read
    1.08-1.50 ms over ten seeds."""
    harmonic = sum(1.0 / (rank + 1) for rank in range(pool_size))
    shares = [length / (rank + 1) / harmonic for rank in range(pool_size)]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(pool_size), key=lambda rank: counts[rank] - shares[rank]
    )
    for rank in by_remainder[: length - sum(counts)]:
        counts[rank] += 1
    sequence = [rank for rank, count in enumerate(counts) for __ in range(count)]
    rng.shuffle(sequence)
    return sequence


@dataclass
class Interval:
    """A timed stretch of the run (``perf_counter`` seconds)."""

    started: float
    ended: float
    #: Host-speed samples the caller took inline: not the program's time.
    sampling_s: float = 0.0
    #: False when the time is a kernel timer, not CPU work (HTTP requests
    #: today): such an interval is never divided by the host slowdown.
    cpu_bound: bool = True

    @property
    def seconds(self) -> float:
        return self.ended - self.started - self.sampling_s


@dataclass
class PassResult:
    """What one pass of a workload's fixed sequence cost, as measured."""

    interval: Interval
    latencies_s: List[float]  # OK search/select operations, in sequence order
    attempted: int
    failed: int
    write_latencies_s: List[float] = field(default_factory=list)
    ttfb_s: List[float] = field(default_factory=list)
    response_bytes: List[int] = field(default_factory=list)
    generator_cpu_s: float = 0.0
    engines_invoked: int = 0  # summed over the pass's searches
    samples: list = field(default_factory=list)  # HTTP only: raw client samples

    @property
    def ok_ops(self) -> int:
        return self.attempted - self.failed


class Workload:
    name = ""
    topology = ""  # which replica pipeline re-enacts a request: gateway|sharded|""
    setups_key = ""  # entry of SCALES: how many timed set-ups to run
    pass_key = ""  # entry of SCALES: nominal seconds of one pass

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.sizes = SCALES[scale]
        self.workdir = workdir
        self.host = hostspeed.HostSpeed()

    # The runner calls these in order: prepare, setup (x repeats), warm_up,
    # run_pass (x n), counters, verify, close.
    def prepare(self) -> None: ...

    def setup(self) -> Interval:
        """Bring the system up: inputs ready -> first answer possible."""

    def warm_up(self) -> None: ...
    def run_pass(self, tracer=None, request_base: int = 0) -> PassResult: ...
    def verify(self) -> Tuple[int, int]: ...
    def close(self) -> None: ...

    def trace(self, tracer) -> None:
        """Wrap the workload's own broker (in-process workloads)."""

    @property
    def setup_repeats(self) -> int:
        return self.sizes[self.setups_key]

    def n_passes(self, seconds: float) -> int:
        return max(3, round(seconds / self.sizes[self.pass_key]))

    def slowdown(self, interval: Interval) -> float:
        """How slow the host ran during a CPU-bound interval; 1.0 for one
        that is not."""
        if not interval.cpu_bound:
            return 1.0
        return self.host.slowdown(interval.started, interval.ended)

    def _sampled(self, started: float, ended: float) -> Interval:
        """An interval during which this thread sampled the host inline."""
        return Interval(
            started, ended, sampling_s=self.host.sampled_seconds(started, ended)
        )

    def pids(self) -> List[int]:
        return [os.getpid()]

    def counters(self) -> Dict[str, float]:
        raise NotImplementedError


# -- HTTP workloads ----------------------------------------------------------------


class HttpSearch(Workload):
    """``repro serve gateway|coordinator`` with default flags, loaded by two
    keep-alive connections each replaying a Zipf(1) sequence over a pool of
    distinct ``(query, threshold)`` requests that fits the estimate cache:
    after warm-up every estimate is a cache hit, so ``core.*`` is bypassed
    and the work is framing, wire codec, admission, dispatch, engines and
    merge."""

    role = "gateway"
    extra_arguments: Tuple[str, ...] = ()
    setups_key = "http_setups"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.server: Optional[procs.ServerProcess] = None
        self.connections: List[loadgen.HttpConnection] = []
        self._checked: List[loadgen.Sample] = []

    def prepare(self) -> None:
        model = adapter.corpus_model(self.sizes["http_engines"])
        self.collections = adapter.generate_collections(model)
        self.paths = adapter.save_collections(self.collections, self.workdir)
        engines = adapter.engines_for(self.collections)
        self.oracle = adapter.oracle_broker(
            engines, adapter.representatives_for(engines)
        )
        self.pool = adapter.with_thresholds(
            adapter.query_pool(model, self.sizes["http_pool"])
        )
        self.bodies = [adapter.search_body(q, t) for q, t in self.pool]
        # The same sequences on both topologies: the rng is keyed on the
        # connection, not on the workload's name.
        self.sequences = [
            zipf_sequence(
                random.Random(f"{self.seed}:http:{c}"),
                len(self.pool), self.sizes["http_requests"],
            )
            for c in range(HTTP_CONNECTIONS)
        ]

    def setup(self) -> Interval:
        """Cold start: spawn the CLI server -> first ``/healthz`` 200.  The
        child is CPU-bound (imports, index builds), so this process samples
        the host's speed from a thread meanwhile."""
        self._disconnect()
        if self.server is not None:
            self.server.stop()
        with self.host.sampling():
            self.server = procs.ServerProcess(
                self.role, [*self.extra_arguments, "--collections", *self.paths]
            )
            seconds = self.server.wait_ready()
        self.connections = [
            loadgen.HttpConnection(self.server.host, self.server.port)
            for __ in range(HTTP_CONNECTIONS)
        ]
        return Interval(self.server.started, self.server.started + seconds)

    def warm_up(self) -> None:
        """Each distinct request once; the replies go through the gate."""
        for index, body in enumerate(self.bodies):
            status, reply, sent, first, last = self.connections[0].request(
                "POST", "/search", body
            )
            self._checked.append(
                loadgen.Sample(index, sent, first, last, status, reply)
            )
        # The second connection dials before timing starts, too.
        self.connections[1].request("GET", "/healthz")

    def run_pass(self, tracer=None, request_base: int = 0) -> PassResult:
        wall, per_connection, cpu = loadgen.run_pass(
            self.connections, self.sequences, self.bodies
        )
        ended = time.perf_counter()
        samples = [s for out in per_connection for s in out]
        self._checked.extend(samples)
        good = [s for s in samples if s.ok]
        return PassResult(
            interval=Interval(ended - wall, ended, cpu_bound=False),
            latencies_s=[s.latency_s for s in good],
            attempted=len(samples),
            failed=len(samples) - len(good),
            ttfb_s=[(s.first_ns - s.send_ns) / 1e9 for s in good],
            response_bytes=[len(s.body) for s in good],
            generator_cpu_s=cpu,
            engines_invoked=sum(
                adapter.invoked_count_of_wire(s.body) for s in good
            ),
            samples=samples,
        )

    def verify(self) -> Tuple[int, int]:
        """Every 200 reply seen (warm-up and timed) decodes to the answer of
        an in-process default broker over the same collections."""
        expected = [
            adapter.answer_of(self.oracle.search(q, t, limit=adapter.LIMIT))
            for q, t in self.pool
        ]
        replies = [s for s in self._checked if s.ok]
        wrong = sum(
            adapter.answer_of_wire(s.body) != expected[s.index] for s in replies
        )
        # transport errors and non-200s were already counted by their pass;
        # only warm-up failures are new here.
        warm_failed = sum(
            not s.ok for s in self._checked[: len(self.bodies)]
        )
        return len(replies) + warm_failed, wrong + warm_failed

    def pids(self) -> List[int]:
        return self.server.pids()

    def counters(self) -> Dict[str, float]:
        """Cache counters summed over the server's ``/metrics`` (and its
        shards': the coordinator holds no cache of its own)."""
        urls = [f"http://{self.server.host}:{self.server.port}"]
        urls += self.server.shard_urls
        totals = dict.fromkeys(adapter.PROMETHEUS_COUNTERS, 0.0)
        for url in urls:
            connection = loadgen.HttpConnection.from_url(url)
            try:
                text = connection.request("GET", "/metrics")[1].decode()
            finally:
                connection.close()
            for line in text.splitlines():
                series, __, value = line.rpartition(" ")
                for key, prometheus in adapter.PROMETHEUS_COUNTERS.items():
                    if series == prometheus:
                        totals[key] += float(value)
        return totals

    def _disconnect(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []

    def close(self) -> None:
        self._disconnect()
        if self.server is not None:
            self.server.stop()
            self.server = None


class GatewaySearch(HttpSearch):
    name = "gateway_search"
    topology = "gateway"
    role = "gateway"
    pass_key = "gateway_pass_s"


class ShardedSearch(HttpSearch):
    name = "sharded_search"
    topology = "sharded"
    role = "coordinator"
    pass_key = "sharded_pass_s"

    @property
    def extra_arguments(self):
        return ("--shards", str(min(4, self.sizes["http_engines"])))


# -- in-process workloads ----------------------------------------------------------


class WideEstimateCold(Workload):
    """One caller, ``broker.select`` over a pool of distinct queries on a
    wide columnar fleet: ``pool x engines`` estimate keys are 60x the
    estimate cache, so every pass misses (hit rate 0.000) and all time is
    in the kernels, the columnar gather, cache miss+evict and the
    selection sort — no HTTP, no dispatch."""

    name = "wide_estimate_cold"
    setups_key = "wide_setups"
    pass_key = "wide_pass_s"

    def prepare(self) -> None:
        model = adapter.corpus_model(self.sizes["wide_engines"])
        self.collections = adapter.generate_collections(model)
        self.pool = adapter.with_thresholds(
            adapter.query_pool(model, self.sizes["wide_pool"])
        )
        # a pass asks every query of the pool once, in this run's order
        self.sequence = random.Random(f"{self.seed}:{self.name}").sample(
            range(len(self.pool)), len(self.pool)
        )

    def setup(self) -> Interval:
        self.broker = self.engines = self.representatives = None
        gc.collect()  # peak RSS is one system, not one plus uncollected cycles
        started = time.perf_counter()
        self.broker, self.engines, self.representatives = (
            adapter.build_wide_system(self.collections, self.host.sample)
        )
        self.broker.select(*self.pool[0])  # first answer possible
        return self._sampled(started, time.perf_counter())

    def warm_up(self) -> None:
        """One untimed pass, in the passes' own order: repeating one order
        over a set larger than an LRU cache misses every time, and the
        first timed pass must not be the one that still finds leftovers of
        a different order (it read 7 % faster)."""
        self.run_pass()

    def run_pass(self, tracer=None, request_base: int = 0) -> PassResult:
        select, clock = self.broker.select, time.perf_counter
        sample_host = self.host.sample
        latencies = []
        started = clock()
        for offset, index in enumerate(self.sequence):
            query, threshold = self.pool[index]
            if tracer is not None:
                span = tracer.begin("client.select", request_base + offset)
            before = clock()
            select(query, threshold)
            latencies.append(clock() - before)
            if tracer is not None:
                tracer.end(span)
            sample_host()
        return PassResult(
            interval=self._sampled(started, clock()), latencies_s=latencies,
            attempted=len(self.pool), failed=0,
        )

    def trace(self, tracer) -> None:
        adapter.trace_broker(tracer, self.broker)

    def verify(self) -> Tuple[int, int]:
        """Estimate rows (hence selections) equal the dict-backed scalar
        broker's on the first ``wide_checked`` pool entries."""
        oracle = adapter.oracle_broker(self.engines, self.representatives)
        checked = self.pool[: self.sizes["wide_checked"]]
        wrong = sum(
            self.broker.estimate_all(q, t) != oracle.estimate_all(q, t)
            or self.broker.select(q, t) != oracle.select(q, t)
            for q, t in checked
        )
        return len(checked), wrong

    def counters(self) -> Dict[str, float]:
        return adapter.cache_counters(self.broker)


class LiveDeltaMix(Workload):
    """One caller against a columnar broker over live engines: every 20th
    operation mutates one engine (add a spare document, drop its oldest)
    and syncs its representative delta into the broker; the rest are
    ``broker.search`` drawn Zipf(1) from a pool whose estimate keys are 4x
    the cache.  Readers and writers share the caches and the columnar
    store, so a read-path gain paid for by the write path shows."""

    name = "live_delta_mix"
    setups_key = "live_setups"
    pass_key = "live_pass_s"

    def prepare(self) -> None:
        model = adapter.corpus_model(
            self.sizes["live_engines"],
            docs_per_engine=LIVE_INITIAL_DOCS + LIVE_SPARE_DOCS,
        )
        self.collections = adapter.generate_collections(model)
        self.pool = adapter.with_thresholds(
            adapter.query_pool(model, self.sizes["live_pool"])
        )
        n_ops = self.sizes["live_ops"]
        reads = iter(zipf_sequence(
            random.Random(f"{self.seed}:{self.name}"),
            len(self.pool), n_ops - n_ops // LIVE_WRITE_EVERY,
        ))
        #: pool index of each operation; None is a write
        self.sequence = [
            None if (offset + 1) % LIVE_WRITE_EVERY == 0 else next(reads)
            for offset in range(n_ops)
        ]
        self._next_writer = 0

    def setup(self) -> Interval:
        self.broker = self.lives = self.held = self.spares = None
        gc.collect()  # peak RSS is one system, not one plus uncollected cycles
        started = time.perf_counter()
        self.broker, self.lives, spares = adapter.build_live_system(
            self.collections, LIVE_INITIAL_DOCS, self.host.sample
        )
        self.broker.search(*self.pool[0], limit=adapter.LIMIT)
        interval = self._sampled(started, time.perf_counter())
        # Per engine: documents currently held (oldest first) and the queue
        # of documents to ingest next; a dropped document rejoins the queue,
        # so the churn never runs dry however fast the system gets.
        self.held = [
            collections.deque(adapter.documents_of(c)[:LIVE_INITIAL_DOCS])
            for c in self.collections
        ]
        self.spares = [collections.deque(s) for s in spares]
        return interval

    def warm_up(self) -> None:
        """One untimed pass: every popular request and the write path."""
        self.run_pass()

    def _write(self) -> None:
        k = self._next_writer % len(self.lives)
        self._next_writer += 1
        live, held, spare = self.lives[k], self.held[k], self.spares[k]
        incoming = spare.popleft()
        live.add_documents([incoming])
        held.append(incoming)
        oldest = held.popleft()
        live.remove_documents([oldest.doc_id])
        spare.append(oldest)
        self.broker.sync_representative(live)

    def run_pass(self, tracer=None, request_base: int = 0) -> PassResult:
        search, clock, pool = self.broker.search, time.perf_counter, self.pool
        sample_host = self.host.sample
        reads, writes, invoked = [], [], 0
        started = clock()
        for offset, index in enumerate(self.sequence):
            is_write = index is None
            if tracer is not None:
                span = tracer.begin(
                    "client.write" if is_write else "client.search",
                    request_base + offset,
                )
            before = clock()
            if is_write:
                self._write()
                writes.append(clock() - before)
            else:
                query, threshold = pool[index]
                response = search(query, threshold, limit=adapter.LIMIT)
                reads.append(clock() - before)
                invoked += len(response.invoked)
            if tracer is not None:
                tracer.end(span)
            sample_host()
        return PassResult(
            interval=self._sampled(started, clock()), latencies_s=reads,
            write_latencies_s=writes, attempted=len(self.sequence), failed=0,
            engines_invoked=invoked,
        )

    def trace(self, tracer) -> None:
        adapter.trace_broker(tracer, self.broker, self.lives)

    def verify(self) -> Tuple[int, int]:
        """After all the churn, the broker's estimate rows and search
        answers equal a broker rebuilt from the final corpora."""
        rebuilt = adapter.rebuilt_broker(
            [(live.name, list(held)) for live, held in zip(self.lives, self.held)]
        )
        wrong = 0
        for query, threshold in self.pool:
            same_rows = (
                self.broker.estimate_all(query, threshold)
                == rebuilt.estimate_all(query, threshold)
            )
            same_answer = adapter.answer_of(
                self.broker.search(query, threshold, limit=adapter.LIMIT)
            ) == adapter.answer_of(
                rebuilt.search(query, threshold, limit=adapter.LIMIT)
            )
            wrong += not (same_rows and same_answer)
        return len(self.pool), wrong

    def counters(self) -> Dict[str, float]:
        return adapter.cache_counters(self.broker)


WORKLOADS = {
    cls.name: cls
    for cls in (GatewaySearch, ShardedSearch, WideEstimateCold, LiveDeltaMix)
}


def make_workload(name: str, seed: int, scale: str, results_dir: Path) -> Workload:
    workdir = results_dir / f"tmp-{name}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return WORKLOADS[name](seed, scale, workdir)
