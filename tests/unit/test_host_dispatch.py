"""The broker's one dispatch step over engine hosts.

An engine with a duck-typed ``host`` is never called by itself: the
invoked engines of one host go together, one ``host.dispatch(asks)`` per
round, and each query's report is stitched back in invoked order.  These
hosts are in-process doubles, so the grouping, the stitching and the
failure translation are pinned without a socket.
"""

from typing import NamedTuple

import pytest

from repro.corpus import Query
from repro.engine import SearchHit
from repro.metasearch import DispatchReport, MetasearchBroker
from repro.metasearch.dispatch import SplitCall
from repro.obs import MetricsRegistry
from repro.representatives import DatabaseRepresentative

QUERIES = [Query.from_terms(["rocket"]), Query.from_terms(["orbit"]),
           Query.from_terms(["kiwi"])]


def hits_of(name, query):
    """What engine ``name`` answers ``query``: one hit naming both."""
    return [SearchHit(0.5, f"{name}-{query.terms[0]}", name)]


class Reply:
    """The reply half of a host call: no socket, read at once."""

    def __init__(self, read):
        self.read = read

    def __call__(self):
        return self.read()

    def fileno(self):
        return -1

    def remaining(self):
        return None

    def close(self):
        pass


class FakeHost:
    """A host answering every asked engine with :func:`hits_of`, or
    failing every call; it records each call's asks."""

    def __init__(self, name, fails=False):
        self.name = name
        self.fails = fails
        self.calls = []

    def dispatch(self, asks):
        self.calls.append([(query, names) for query, __, names in asks])

        def read():
            if self.fails:
                raise ConnectionError(f"{self.name} is down")
            return [
                DispatchReport(
                    results={name: hits_of(name, query) for name in names},
                    latencies=dict.fromkeys(names, 0.25),
                )
                for query, __, names in asks
            ]

        return SplitCall(lambda: Reply(read))


class Hosted(NamedTuple):
    name: str
    host: FakeHost


class Local:
    """An in-process engine: a plain call per query."""

    def __init__(self, name):
        self.name = name
        self.searched = []

    def search(self, query, threshold):
        self.searched.append(query)
        return hits_of(self.name, query)


@pytest.fixture
def fleet():
    """Hosts ``h1`` (engines a, c) and ``h2`` (b), and the local engine d,
    on a broker with a registry."""
    hosts = {"h1": FakeHost("h1"), "h2": FakeHost("h2")}
    engines = {
        "a": Hosted("a", hosts["h1"]),
        "b": Hosted("b", hosts["h2"]),
        "c": Hosted("c", hosts["h1"]),
        "d": Local("d"),
    }
    registry = MetricsRegistry()
    broker = MetasearchBroker(workers=2, registry=registry)
    for name, engine in engines.items():
        broker.register(engine, DatabaseRepresentative(name, 3, {}))
    return broker, hosts, engines, registry


class TestHostDispatch:
    def test_a_round_asks_each_host_once_for_all_its_engines(self, fleet):
        broker, hosts, engines, registry = fleet
        invoked = [["c", "d", "a"], ["b"], ["a", "b", "c", "d"]]
        broker.reports(QUERIES, [0.1] * 3, invoked)
        assert hosts["h1"].calls == [[
            (QUERIES[0], ["c", "a"]), (QUERIES[2], ["a", "c"]),
        ]]
        assert hosts["h2"].calls == [[(QUERIES[1], ["b"]), (QUERIES[2], ["b"])]]
        assert engines["d"].searched == [QUERIES[0], QUERIES[2]]
        assert registry.value(
            "broker.scatter.fanouts", labels={"phase": "dispatch"}
        ) == 1
        assert registry.value(
            "broker.scatter.rpcs", labels={"phase": "dispatch"}
        ) == 2

    def test_each_report_is_in_invoked_order(self, fleet):
        broker, __, __, __ = fleet
        invoked = [["c", "d", "b", "a"], ["b", "a"]]
        reports = broker.reports(QUERIES[:2], [0.1] * 2, invoked)
        for query, names, report in zip(QUERIES, invoked, reports):
            assert list(report.results) == names
            assert list(report.latencies) == names
            assert report.results == {
                name: hits_of(name, query) for name in names
            }
            assert not report.failures

    def test_a_failed_host_fails_only_the_engines_asked_of_it(self, fleet):
        broker, hosts, __, registry = fleet
        hosts["h1"].fails = True
        invoked = [["c", "d", "b", "a"], ["b"]]
        first, second = broker.reports(QUERIES[:2], [0.1] * 2, invoked)
        assert [f.engine for f in first.failures] == ["c", "a"]
        for failure in first.failures:
            assert failure.kind == "error"
            assert failure.message.startswith("h1: ConnectionError: h1 is down")
        assert list(first.results) == ["d", "b"]
        assert list(first.latencies) == ["c", "d", "b", "a"]
        assert second.results == {"b": hits_of("b", QUERIES[1])}
        assert not second.failures
        assert registry.value("broker.host.failures") == 1

    def test_the_solo_search_goes_through_the_same_step(self, fleet):
        broker, hosts, __, __ = fleet
        response = broker.search_all(QUERIES[0], 0.1)
        assert response.invoked == ["a", "b", "c", "d"]
        assert [call for host in hosts.values() for call in host.calls] == [
            [(QUERIES[0], ["a", "c"])], [(QUERIES[0], ["b"])],
        ]
        assert not response.failures
        assert sorted(h.engine for h in response.hits) == ["a", "b", "c", "d"]

    def test_a_round_of_local_engines_asks_no_host(self, fleet):
        broker, hosts, __, registry = fleet
        [report] = broker.reports(QUERIES[:1], [0.1], [["d"]])
        assert list(report.results) == ["d"]
        assert all(host.calls == [] for host in hosts.values())
        assert registry.value(
            "broker.scatter.fanouts", labels={"phase": "dispatch"}
        ) == 0
