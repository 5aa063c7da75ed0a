"""Unit tests for the live engine/broker protocol and staleness handling:
:class:`LiveEngineServer` publishes, ``MetasearchBroker.sync_representative``
subscribes, and a broker that has not synced selects from a stale copy.
The engine's whole representative is its full delta, ``delta_since(0)``."""

import sys
import threading

import pytest

from repro.corpus import Document, Query
from repro.fleet import LiveEngineServer
from repro.metasearch import MetasearchBroker


def current(server):
    """The server's whole representative: its full delta's."""
    return server.delta_since(0).as_representative()


def docs(prefix, term_lists):
    return [
        Document(f"{prefix}-{i}", terms=t) for i, t in enumerate(term_lists)
    ]


@pytest.fixture
def server():
    return LiveEngineServer(
        "alpha", docs("a", [["rocket", "orbit"], ["rocket"]])
    )


class TestEngineServer:
    def test_version_tracks_documents(self, server):
        # Version 0 is the empty representative; the initial documents are
        # version 1, and every mutation ticks, whatever it does to the
        # document count.
        assert (server.version, server.n_documents) == (1, 2)
        server.add_documents(docs("b", [["new"], ["newer"]]))
        assert (server.version, server.n_documents) == (2, 4)
        server.remove_documents(["b-0"])
        assert (server.version, server.n_documents) == (3, 3)

    def test_snapshot_carries_version(self, server):
        # The whole representative is the full delta: from version 0 and
        # 0 documents to the live version.
        server.add_documents(docs("b", [["new"]]))
        full = server.delta_since(0)
        assert full.is_full
        assert (full.from_version, full.to_version) == (0, 2)
        assert (full.from_n_documents, full.n_documents) == (0, 3)
        assert full.name == "alpha"
        assert "rocket" in full.as_representative()

    def test_search_sees_new_documents(self, server):
        query = Query.from_terms(["fresh"])
        assert server.search(query, 0.1) == []
        server.add_documents(docs("b", [["fresh"]]))
        assert len(server.search(query, 0.1)) == 1

    def test_snapshot_is_point_in_time(self, server):
        full = server.delta_since(0)
        server.add_documents(docs("b", [["fresh"]]))
        assert "fresh" not in full.as_representative()
        assert "fresh" in current(server)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda server: server.remove_documents(["a-0", "a-0"]),
            lambda server: server.add_documents(
                docs("b", [["new"]]) + docs("b", [["newer"]])
            ),
        ],
        ids=["remove", "add"],
    )
    def test_repeated_id_rejects_the_batch_untouched(self, server, mutate):
        before = (server.version, server.doc_ids, server.delta_since(0))
        with pytest.raises(ValueError):
            mutate(server)
        assert (server.version, server.doc_ids, server.delta_since(0)) == before
        assert current(server).n_documents == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda server: server.add_documents([]),
            lambda server: server.remove_documents(iter(())),
        ],
        ids=["add", "remove"],
    )
    def test_empty_batch_is_no_mutation(self, server, mutate):
        # An empty batch neither bumps the version nor takes a log slot:
        # 64 of them must not compact a real delta away.
        real = server.add_documents(docs("b", [["fresh"]]))
        for __ in range(70):
            delta = mutate(server)
            assert delta == server.delta_since(server.version)
            assert delta.is_empty
        assert server.version == 2
        assert server.delta_since(1) == real

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda server: server.remove_documents("a-0"),
            lambda server: server.add_documents("a-9"),
        ],
        ids=["remove", "add"],
    )
    def test_bare_string_batch_is_a_type_error(self, server, mutate):
        before = (server.version, server.doc_ids, server.delta_since(0))
        with pytest.raises(TypeError, match="not a str"):
            mutate(server)
        assert (server.version, server.doc_ids, server.delta_since(0)) == before

    def test_searches_beside_mutations_see_whole_states(self):
        # Searches walk the postings a mutation edits in place.  Every
        # document holds both query terms once, so a search that saw a
        # half-applied mutation would score some document lower than the
        # rest (or die iterating a dict that changed size).
        server = LiveEngineServer(
            "alpha", docs("a", [["rocket", "orbit", f"x{i}"] for i in range(40)])
        )
        query = Query.from_terms(["rocket", "orbit"])
        stop, errors, seen = threading.Event(), [], set()

        def reader():
            try:
                while not stop.is_set():
                    hits = server.search(query, 0.0)
                    seen.add(len(hits))
                    assert len({hit.similarity for hit in hits}) == 1
            except Exception as exc:  # reported below, with its traceback
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader) for __ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for i in range(500):
                server.add_documents(docs(f"n{i}", [["orbit", "rocket", "y"]]))
                server.remove_documents([server.doc_ids[0]])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        assert seen <= {40, 41}

    def test_empty_server(self):
        server = LiveEngineServer("empty")
        assert server.version == 0
        assert server.n_documents == 0
        assert server.search(Query.from_terms(["x"]), 0.1) == []
        # Version 0 is the empty representative: its full delta is empty.
        assert server.delta_since(None).is_empty
        assert server.delta_since(None).is_full


class TestSubscribingBroker:
    def test_register_takes_snapshot(self, server):
        # The first sync has no base version: the full delta enters the
        # engine and replaces what the broker held (nothing).
        broker = MetasearchBroker()
        report = broker.sync_representative(server)
        assert (report.from_version, report.to_version, report.mode) == (
            0, 1, "full"
        )
        assert broker.representative_version("alpha") == 1
        assert broker.representative_of("alpha").n_documents == 2

    def test_duplicate_registration_rejected(self, server):
        # A *different* server under an existing name is refused (the same
        # object re-registering is a refresh — see TestReRegistration).
        broker = MetasearchBroker()
        broker.sync_representative(server)
        with pytest.raises(ValueError):
            broker.register(LiveEngineServer("alpha", docs("z", [["zest"]])))

    def test_stale_selection_misses_new_content(self, server):
        broker = MetasearchBroker()
        broker.sync_representative(server)
        server.add_documents(docs("b", [["fresh"]]))
        query = Query.from_terms(["fresh"])
        # The stale copy knows nothing about "fresh" ...
        assert broker.select(query, 0.1) == []
        assert broker.true_selection(query, 0.1) == ["alpha"]
        # ... until a sync, which this time is a delta.
        report = broker.sync_representative(server)
        assert (report.from_version, report.to_version) == (1, 2)
        assert broker.select(query, 0.1) == ["alpha"]

    def test_search_uses_live_engines(self, server):
        # Selection is snapshot-based, but invoked engines answer live:
        # a selected engine returns documents the snapshot never saw.
        broker = MetasearchBroker()
        broker.sync_representative(server)
        server.add_documents(docs("b", [["rocket", "rocket", "rocket"]]))
        hits = broker.search(Query.from_terms(["rocket"]), 0.1).hits
        assert any(h.doc_id == "b-0" for h in hits)

    def test_engine_names(self, server):
        broker = MetasearchBroker()
        broker.sync_representative(server)
        broker.sync_representative(
            LiveEngineServer("beta", docs("b", [["sauce"]]))
        )
        assert broker.engine_names == ["alpha", "beta"]


class TestReRegistration:
    def test_same_server_re_register_refreshes_snapshot(self, server):
        broker = MetasearchBroker()
        broker.sync_representative(server)
        server.add_documents(docs("b", [["fresh"]]))
        # An explicit re-registration of the same object with its current
        # representative refreshes immediately, no delta needed.
        full = server.delta_since(0)
        broker.register(
            server,
            representative=full.as_representative(),
            version=full.to_version,
        )
        assert broker.representative_version("alpha") == 2
        assert broker.select(Query.from_terms(["fresh"]), 0.1) == ["alpha"]
        # Already current: the next sync is the empty delta.
        assert broker.sync_representative(server).terms_touched == 0

    def test_different_server_same_name_still_rejected(self, server):
        broker = MetasearchBroker()
        broker.sync_representative(server)
        impostor = LiveEngineServer("alpha", docs("x", [["sauce"]]))
        with pytest.raises(ValueError, match="already registered"):
            broker.register(impostor)
        # The original subscription is untouched.
        assert broker.representative_version("alpha") == 1
        assert broker.select(Query.from_terms(["rocket"]), 0.1) == ["alpha"]
