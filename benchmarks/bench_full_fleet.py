"""Full-environment bench — all 53 newsgroup engines, as in the paper.

The paper's data is 53 newsgroup snapshots; its tables evaluate three
merged databases, but the system the introduction motivates is the full
fleet.  This bench registers all 53 synthetic engines with a broker and
measures, across the threshold grid: selection recall/precision against
the exhaustive oracle, and the fraction of engine invocations (and thereby
network/processing cost) the usefulness estimates save versus broadcasting.
"""

import time

from repro.engine import SearchEngine
from repro.evaluation import evaluate_selection
from repro.metasearch import MetasearchBroker
from repro.representatives import build_representative

from _bench_utils import emit

SAMPLE = 400
GRID = (0.2, 0.3, 0.4)

#: Engines and simulated per-call network latency for the dispatch benches.
DISPATCH_FLEET = 16
DISPATCH_DELAY = 0.02


class _LatencyEngine:
    """Wrapper simulating network round-trip time on ``search`` — the cost
    profile the concurrent dispatcher exists to hide."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.delay = delay

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def search(self, query, threshold=0.0):
        time.sleep(self.delay)
        return self.inner.search(query, threshold)


def _latency_broker(engines, representatives, delay, **kwargs):
    broker = MetasearchBroker(cache_size=0, **kwargs)
    for engine, representative in zip(engines, representatives):
        broker.register(
            _LatencyEngine(engine, delay), representative=representative
        )
    return broker


def test_full_fleet_selection(benchmark, corpus_model, query_log):
    broker = MetasearchBroker()
    for group in range(corpus_model.n_groups):
        broker.register(SearchEngine(corpus_model.generate_group(group)))
    queries = query_log[:SAMPLE]

    def select_sample():
        for query in queries[:25]:
            broker.select(query, 0.3)

    benchmark(select_sample)

    lines = [
        "",
        f"=== full fleet: {len(broker)} engines, {len(queries)} queries ===",
        f"{'T':>4} {'exact':>7} {'recall':>8} {'precision':>10} "
        f"{'invoked/bcast':>14}",
    ]
    recalls = []
    for threshold in GRID:
        quality = evaluate_selection(broker, queries, threshold)
        invoked = sum(
            len(broker.select(query, threshold)) for query in queries
        )
        share = invoked / (len(broker) * len(queries))
        recalls.append(quality.recall)
        lines.append(
            f"{threshold:>4.1f} {quality.exact_rate:>7.1%} "
            f"{quality.recall:>8.1%} {quality.precision:>10.1%} "
            f"{share:>14.1%}"
        )
    emit("full_fleet", "\n".join(lines))

    # At fleet scale the estimates must keep selection sharp: high recall
    # of truly useful engines while invoking a small fraction of the fleet.
    assert min(recalls) >= 0.85
    final_share = invoked / (len(broker) * len(queries))
    assert final_share <= 0.5


def test_full_fleet_concurrent_speedup(benchmark, corpus_model, query_log):
    """workers=8 over 16 latency-bound engines beats the serial path.

    Only a fan-out with a deadline to enforce runs on threads (without
    one, in-process engines run on the caller's thread), so the
    concurrent broker has a deadline far past any call: this is the
    check that the pool still buys overlap under a deadline."""
    engines = [
        SearchEngine(corpus_model.generate_group(g)) for g in range(DISPATCH_FLEET)
    ]
    representatives = [build_representative(e) for e in engines]
    serial = _latency_broker(engines, representatives, DISPATCH_DELAY, workers=1)
    concurrent = _latency_broker(
        engines, representatives, DISPATCH_DELAY, workers=8, timeout=30.0
    )
    queries = query_log[:5]

    def broadcast(broker):
        for query in queries:
            broker.search_all(query, 0.3)

    start = time.perf_counter()
    broadcast(serial)
    t_serial = time.perf_counter() - start
    start = time.perf_counter()
    broadcast(concurrent)
    t_concurrent = time.perf_counter() - start
    benchmark.pedantic(broadcast, args=(concurrent,), rounds=2, iterations=1)

    emit(
        "fleet_dispatch",
        "\n".join(
            [
                "",
                f"=== concurrent dispatch: {DISPATCH_FLEET} engines, "
                f"{DISPATCH_DELAY * 1000:.0f}ms simulated RTT, "
                f"{len(queries)} broadcast queries ===",
                f"serial (workers=1) : {t_serial:.2f}s",
                f"workers=8, timeout : {t_concurrent:.2f}s",
                f"speedup            : {t_serial / t_concurrent:.1f}x",
            ]
        ),
    )
    # 8 workers over 16 latency-bound engines must at least halve wall clock.
    assert t_concurrent < t_serial / 2.0


def test_full_fleet_survives_hung_engine(benchmark, corpus_model, query_log):
    """One hung engine: merged results still arrive within the deadline."""
    timeout = 0.5
    engines = [
        SearchEngine(corpus_model.generate_group(g)) for g in range(DISPATCH_FLEET)
    ]
    representatives = [build_representative(e) for e in engines]
    broker = MetasearchBroker(workers=8, timeout=timeout, cache_size=0)
    hung = _LatencyEngine(engines[0], delay=4.0)  # far past the deadline
    broker.register(hung, representative=representatives[0])
    for engine, representative in zip(engines[1:], representatives[1:]):
        broker.register(engine, representative=representative)
    query = query_log[0]

    start = time.perf_counter()
    response = broker.search_all(query, 0.05)
    elapsed = time.perf_counter() - start
    benchmark.pedantic(
        broker.search_all, args=(query, 0.05), rounds=2, iterations=1
    )

    healthy = {h.engine for h in response.hits}
    emit(
        "fleet_degradation",
        "\n".join(
            [
                "",
                f"=== hung-engine degradation: 1/{DISPATCH_FLEET} engines hung, "
                f"timeout {timeout}s ===",
                f"response time      : {elapsed:.2f}s",
                f"merged hits        : {len(response.hits)} "
                f"from {len(healthy)} engines",
                f"failures           : "
                + "; ".join(str(f) for f in response.failures),
            ]
        ),
    )
    assert elapsed < timeout + 0.4  # deadline held despite the hang
    assert [f.engine for f in response.failures] == [engines[0].name]
    assert response.failures[0].kind == "timeout"
    assert response.hits  # healthy engines still answered
    assert engines[0].name not in healthy
