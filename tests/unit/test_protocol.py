"""Unit tests for the live engine/broker protocol and staleness handling:
:class:`LiveEngineServer` publishes, ``MetasearchBroker.sync_representative``
subscribes, and a broker that has not synced selects from a stale copy."""

import pytest

from repro.corpus import Document, Query
from repro.fleet import LiveEngineServer
from repro.metasearch import MetasearchBroker


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
        # One tick per mutation, whatever it does to the document count.
        assert (server.version, server.n_documents) == (0, 2)
        server.add_documents(docs("b", [["new"], ["newer"]]))
        assert (server.version, server.n_documents) == (1, 4)
        server.remove_documents(["b-0"])
        assert (server.version, server.n_documents) == (2, 3)

    def test_snapshot_carries_version(self, server):
        server.add_documents(docs("b", [["new"]]))
        snapshot = server.snapshot()
        assert snapshot.version == 1
        assert snapshot.name == "alpha"
        assert "rocket" in snapshot.representative

    def test_search_sees_new_documents(self, server):
        query = Query.from_terms(["fresh"])
        assert server.search(query, 0.1) == []
        server.add_documents(docs("b", [["fresh"]]))
        assert len(server.search(query, 0.1)) == 1

    def test_snapshot_is_point_in_time(self, server):
        snapshot = server.snapshot()
        server.add_documents(docs("b", [["fresh"]]))
        assert "fresh" not in snapshot.representative
        assert "fresh" in server.snapshot().representative

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
        before = (server.version, server.doc_ids, server.snapshot())
        with pytest.raises(ValueError):
            mutate(server)
        assert (server.version, server.doc_ids, server.snapshot()) == before
        assert server.snapshot().representative.n_documents == 2

    def test_empty_server(self):
        server = LiveEngineServer("empty")
        assert server.version == 0
        assert server.n_documents == 0
        assert server.search(Query.from_terms(["x"]), 0.1) == []


class TestSubscribingBroker:
    def test_register_takes_snapshot(self, server):
        # The first sync has no base version: a full snapshot re-registers.
        broker = MetasearchBroker()
        assert broker.sync_representative(server) is None
        assert broker.representative_version("alpha") == 0
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
        assert (report.from_version, report.to_version) == (0, 1)
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
        # snapshot refreshes immediately, no delta needed.
        snapshot = server.snapshot()
        broker.register(
            server,
            representative=snapshot.representative,
            version=snapshot.version,
        )
        assert broker.representative_version("alpha") == 1
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
        assert broker.representative_version("alpha") == 0
        assert broker.select(Query.from_terms(["rocket"]), 0.1) == ["alpha"]
