"""Unit tests for the columnar representative store (Section 3 layout)."""

from __future__ import annotations

import io
import threading
import time

import numpy as np
import pytest

from repro.representatives import (
    BrokerVocabulary,
    ColumnarRepresentative,
    DatabaseRepresentative,
    FleetRepresentativeRef,
    FleetRepresentativeStore,
    TermStats,
    partition_round_robin,
)
from repro.representatives.columnar import UNKNOWN_TERM


def make_rep(name="d1", n=100, triplet=False, terms=("apple", "pear", "plum")):
    stats = {}
    for i, term in enumerate(terms):
        mean = 0.2 + 0.1 * i
        stats[term] = TermStats(
            probability=(i + 1) / (len(terms) + 1),
            mean=mean,
            std=0.05 * i,
            max_weight=None if triplet else mean + 0.3,
        )
    return DatabaseRepresentative(name, n_documents=n, term_stats=stats)


class TestBrokerVocabulary:
    def test_intern_is_stable_and_dense(self):
        vocab = BrokerVocabulary()
        assert vocab.intern("apple") == 0
        assert vocab.intern("pear") == 1
        assert vocab.intern("apple") == 0
        assert len(vocab) == 2
        assert "apple" in vocab and "plum" not in vocab
        assert vocab.term_of(1) == "pear"

    def test_id_of_unknown_is_sentinel(self):
        vocab = BrokerVocabulary()
        vocab.intern("apple")
        assert vocab.id_of("ghost") == UNKNOWN_TERM
        ids = vocab.ids_of(["apple", "ghost"])
        assert ids.tolist() == [0, UNKNOWN_TERM]
        # ids_of never interns.
        assert len(vocab) == 1

    def test_nbytes_positive(self):
        vocab = BrokerVocabulary()
        vocab.intern_many(["a", "b", "c"])
        assert vocab.nbytes > 0


class TestColumnarRepresentative:
    def test_from_representative_sorts_by_term_id(self):
        vocab = BrokerVocabulary()
        vocab.intern_many(["zebra", "apple"])  # zebra gets the smaller id
        rep = make_rep(terms=("apple", "zebra"))
        columnar = ColumnarRepresentative.from_representative(rep, vocab)
        assert columnar.term_ids.tolist() == [0, 1]
        assert np.all(np.diff(columnar.term_ids) > 0)
        assert columnar.vocab is vocab

    def test_duck_api_matches_dict_form(self):
        rep = make_rep()
        columnar = ColumnarRepresentative.from_representative(rep)
        assert len(columnar) == len(rep)
        assert columnar.n_documents == rep.n_documents
        assert "apple" in columnar and "ghost" not in columnar
        assert columnar.get("ghost") is None
        assert columnar.get("pear") == rep.get("pear")
        assert dict(columnar.items()) == dict(rep.items())
        assert columnar.document_frequency("apple") == pytest.approx(
            rep.get("apple").probability * rep.n_documents
        )
        assert columnar.document_frequency("ghost") == 0.0

    def test_triplet_mode_round_trips_none(self):
        rep = make_rep(triplet=True)
        columnar = ColumnarRepresentative.from_representative(rep)
        assert not columnar.has_max_weights
        assert columnar.get("apple").max_weight is None
        assert dict(columnar.to_representative().items()) == dict(rep.items())

    def test_as_triplets_withholds_max(self):
        columnar = ColumnarRepresentative.from_representative(make_rep())
        triplets = columnar.as_triplets()
        assert columnar.has_max_weights and not triplets.has_max_weights
        assert triplets.get("apple").max_weight is None
        assert triplets.get("apple").mean == columnar.get("apple").mean

    def test_validation(self):
        vocab = BrokerVocabulary()
        ids = vocab.intern_many(["a", "b"]).astype(np.int64)
        ok = dict(p=np.ones(2), w=np.ones(2), sigma=np.zeros(2), mw=np.ones(2))
        with pytest.raises(ValueError, match="n_documents"):
            ColumnarRepresentative("d", -1, vocab, ids, **ok)
        with pytest.raises(ValueError, match="parallel"):
            ColumnarRepresentative(
                "d", 1, vocab, ids,
                p=np.ones(3), w=np.ones(2), sigma=np.zeros(2), mw=np.ones(2),
            )
        with pytest.raises(ValueError, match="ascending"):
            ColumnarRepresentative("d", 1, vocab, ids[::-1].copy(), **ok)

    def test_nbytes_is_array_budget(self):
        columnar = ColumnarRepresentative.from_representative(make_rep())
        # 3 terms x (int64 id + four float64 stats) = 3 x 40 bytes.
        assert columnar.nbytes == 3 * 5 * 8


class TestNpzPersistence:
    def test_round_trip_through_path(self, tmp_path):
        rep = make_rep()
        path = tmp_path / "rep.npz"
        ColumnarRepresentative.from_representative(rep).save_npz(path)
        restored = ColumnarRepresentative.load_npz(path)
        assert dict(restored.to_representative().items()) == dict(rep.items())
        assert restored.name == rep.name
        assert restored.n_documents == rep.n_documents

    def test_load_interns_into_given_vocab(self):
        buffer = io.BytesIO()
        ColumnarRepresentative.from_representative(make_rep()).save_npz(buffer)
        buffer.seek(0)
        vocab = BrokerVocabulary()
        vocab.intern("unrelated")
        restored = ColumnarRepresentative.load_npz(buffer, vocab)
        assert restored.vocab is vocab
        assert vocab.id_of("apple") != UNKNOWN_TERM

    def test_rejects_foreign_npz(self):
        buffer = io.BytesIO()
        np.savez(buffer, format_version=np.int64(1), kind=np.frombuffer(
            b"something-else", dtype=np.uint8
        ))
        buffer.seek(0)
        with pytest.raises(ValueError, match="not a columnar"):
            ColumnarRepresentative.load_npz(buffer)

    def test_rejects_unknown_version(self):
        buffer = io.BytesIO()
        np.savez(buffer, format_version=np.int64(999))
        buffer.seek(0)
        with pytest.raises(ValueError, match="version"):
            ColumnarRepresentative.load_npz(buffer)


class TestFleetStore:
    def test_add_returns_read_through_ref(self):
        store = FleetRepresentativeStore()
        rep = make_rep("d1")
        ref = store.add(rep)
        assert isinstance(ref, FleetRepresentativeRef)
        assert ref.n_documents == rep.n_documents
        assert len(ref) == len(rep)
        assert ref.get("pear") == rep.get("pear")
        assert ref.get("ghost") is None
        assert "apple" in ref
        assert dict(ref.items()) == dict(rep.items())
        assert ref.has_max_weights
        assert ref.document_frequency("apple") == pytest.approx(
            rep.get("apple").probability * rep.n_documents
        )

    def test_replace_by_name(self):
        store = FleetRepresentativeStore()
        store.add(make_rep("d1", n=10))
        store.add(make_rep("d2", n=20))
        store.add(make_rep("d1", n=30, terms=("kiwi",)))
        assert store.engine_names == ["d1", "d2"]
        assert store.n_documents.tolist() == [30, 20]
        assert store.term_stats("d1", "apple") is None
        assert store.term_stats("d1", "kiwi") is not None

    @staticmethod
    def paused_pack(monkeypatch):
        """Make ``_pack`` wait for ``release`` once it has read the pending
        engines, before it returns; returns ``(entered, release, depths)``,
        ``depths`` recording how many packs were running as each began."""
        entered, release, depths = threading.Event(), threading.Event(), []
        running = []
        pack = FleetRepresentativeStore._pack

        def paused(self):
            running.append(None)
            depths.append(len(running))
            try:
                packed = pack(self)
                entered.set()
                release.wait(timeout=30)
                return packed
            finally:
                running.pop()

        monkeypatch.setattr(FleetRepresentativeStore, "_pack", paused)
        return entered, release, depths

    def test_two_readers_never_pack_at_once(self, monkeypatch):
        store = FleetRepresentativeStore()
        store.add(make_rep("d1"))
        store.add(make_rep("d2", terms=("apple", "kiwi")))
        entered, release, depths = self.paused_pack(monkeypatch)
        ids = store.vocab.ids_of(["apple", "kiwi"])
        readers = [threading.Thread(target=store.gather, args=(ids,))]
        readers[0].start()
        assert entered.wait(timeout=30)
        readers.append(threading.Thread(target=store.gather, args=(ids,)))
        readers[1].start()
        time.sleep(0.05)  # the second reader reaches the pack meanwhile
        release.set()
        for reader in readers:
            reader.join(timeout=30)
        # It waited for the first pack and then found nothing pending.
        assert depths == [1]

    def test_a_pack_never_drops_an_engine_parked_meanwhile(self, monkeypatch):
        store = FleetRepresentativeStore()
        store.add(make_rep("d1"))
        entered, release, __ = self.paused_pack(monkeypatch)
        ids = store.vocab.ids_of(["apple", "kiwi"])
        reader = threading.Thread(target=store.gather, args=(ids,))
        reader.start()
        assert entered.wait(timeout=30)
        writer = threading.Thread(
            target=store.add, args=(make_rep("d2", terms=("kiwi",)),)
        )
        writer.start()
        time.sleep(0.05)  # the writer reaches the store meanwhile
        release.set()
        reader.join(timeout=30)
        writer.join(timeout=30)
        p = store.gather(store.vocab.ids_of(["kiwi"]))[0]
        assert p[store.index_of("d2"), 0] > 0.0

    def test_term_stats_reads_pending_before_pack(self):
        store = FleetRepresentativeStore()
        store.add(make_rep("d1"))
        store.gather(store.vocab.ids_of(["apple"]))  # pack d1
        store.add(make_rep("d1", n=7, terms=("kiwi",)))  # pending again
        stats = store.term_stats("d1", "kiwi")
        assert stats is not None and stats.mean == 0.2
        assert store.term_stats("d1", "apple") is None

    def test_gather_shapes_and_unknowns(self):
        store = FleetRepresentativeStore()
        store.add(make_rep("d1"))
        store.add(make_rep("d2", triplet=True, terms=("apple", "kiwi")))
        ids = store.vocab.ids_of(["apple", "kiwi", "ghost"])
        p, w, sigma, mw = store.gather(ids)
        assert p.shape == w.shape == sigma.shape == mw.shape == (2, 3)
        # d1 lacks kiwi; nobody has ghost (UNKNOWN_TERM id).
        assert p[0, 1] == 0.0 and p[0, 2] == 0.0 and p[1, 2] == 0.0
        assert p[0, 0] > 0 and p[1, 1] > 0
        # Triplet engine reads NaN max weights; quadruplet engine doesn't.
        assert np.isnan(mw[1, 0]) and not np.isnan(mw[0, 0])

    def test_materialize_is_exact(self):
        store = FleetRepresentativeStore()
        rep = make_rep("d1", triplet=False)
        store.add(rep)
        back = store.materialize("d1")
        assert back.n_documents == rep.n_documents
        assert dict(back.items()) == dict(rep.items())

    def test_memory_and_counts(self):
        store = FleetRepresentativeStore()
        store.add(make_rep("d1"))
        store.add(make_rep("d2", terms=("apple",)))
        assert store.total_entries == 4
        assert store.nbytes > 0
        assert store.vocab_nbytes > 0
        assert store.n_terms_of("d2") == 1
        assert "d1" in store and "d3" not in store
        assert len(store) == 2

    def test_binary_mean_w_matches_scalar_iteration_order(self):
        rep = make_rep("d1")
        store = FleetRepresentativeStore()
        store.add(rep)
        expected = float(np.mean([s.mean for __, s in rep.items()]))
        assert store.binary_mean_w.tolist() == [expected]

    def test_total_entries_does_not_pack(self):
        store = FleetRepresentativeStore()
        store.add(make_rep("d1"))
        assert store.total_entries == 3
        assert store._pending  # still waiting for the first read

    def test_a_sync_merges_only_the_engine_it_changed(self, monkeypatch):
        from repro.corpus import Document
        from repro.fleet import LiveEngineServer
        from repro.metasearch import MetasearchBroker

        broker = MetasearchBroker()
        lives = [
            LiveEngineServer(f"e{k}", [
                Document(f"e{k}-d0", ["apple", f"t{k}"]),
                Document(f"e{k}-d1", ["pear", "apple"]),
            ])
            for k in range(64)
        ]
        for live in lives:
            broker.sync_representative(live)
        store = broker.fleet
        ids = store.vocab.ids_of(["apple", "pear"])
        store.gather(ids)
        lives[5].add_documents([Document("e5-d2", ["apple", "kiwi"])])
        broker.sync_representative(lives[5])
        calls = []
        columns_at = FleetRepresentativeStore._columns_at
        monkeypatch.setattr(
            FleetRepresentativeStore, "_columns_at",
            lambda self, index: calls.append(index) or columns_at(self, index),
        )
        store.gather(ids)
        assert len(calls) <= 1


class TestFleetNpz:
    """Fleet bundles: the unit of shipment between coordinator and shards."""

    def fleet(self):
        store = FleetRepresentativeStore()
        store.add(make_rep("d1", n=10))
        store.add(make_rep("d2", n=20, triplet=True, terms=("apple", "kiwi")))
        store.add(make_rep("d3", n=30, terms=("plum",)))
        return store

    def test_round_trip_is_bit_exact(self):
        store = self.fleet()
        buffer = io.BytesIO()
        store.save_npz(buffer)
        buffer.seek(0)
        restored = FleetRepresentativeStore.load_npz(buffer)
        assert restored.engine_names == store.engine_names
        assert restored.n_documents.tolist() == store.n_documents.tolist()
        # binary_mean_w is copied, not recomputed: recomputing over the
        # sorted column order can differ in the last ulp.
        assert restored.binary_mean_w.tolist() == store.binary_mean_w.tolist()
        for name in store.engine_names:
            assert dict(restored.materialize(name).items()) == dict(
                store.materialize(name).items()
            )

    def test_round_trip_through_path(self, tmp_path):
        store = self.fleet()
        path = tmp_path / "fleet.npz"
        store.save_npz(path)
        restored = FleetRepresentativeStore.load_npz(path)
        assert restored.engine_names == store.engine_names

    def test_load_interns_into_given_vocab(self):
        store = self.fleet()
        buffer = io.BytesIO()
        store.save_npz(buffer)
        buffer.seek(0)
        vocab = BrokerVocabulary()
        vocab.intern("zebra")  # pre-existing ids shift every term id
        restored = FleetRepresentativeStore.load_npz(buffer, vocab)
        assert restored.vocab is vocab
        assert dict(restored.materialize("d1").items()) == dict(
            store.materialize("d1").items()
        )

    def test_rejects_representative_bundle(self):
        buffer = io.BytesIO()
        ColumnarRepresentative.from_representative(make_rep()).save_npz(buffer)
        buffer.seek(0)
        with pytest.raises(ValueError, match="fleet"):
            FleetRepresentativeStore.load_npz(buffer)

    def test_empty_fleet_round_trips(self):
        buffer = io.BytesIO()
        FleetRepresentativeStore().save_npz(buffer)
        buffer.seek(0)
        assert FleetRepresentativeStore.load_npz(buffer).engine_names == []

    def test_slice_preserves_binary_mean_w(self):
        store = self.fleet()
        part = store.slice_engines(["d2", "d3"])
        assert part.engine_names == ["d2", "d3"]
        full = {n: v for n, v in zip(store.engine_names, store.binary_mean_w)}
        assert part.binary_mean_w.tolist() == [full["d2"], full["d3"]]
        for name in ("d2", "d3"):
            assert dict(part.materialize(name).items()) == dict(
                store.materialize(name).items()
            )

    def test_slices_cover_the_fleet_disjointly(self):
        store = self.fleet()
        slices = partition_round_robin(store.engine_names, 2)
        assert slices == [["d1", "d3"], ["d2"]]
        parts = [store.slice_engines(names) for names in slices]
        seen = [n for part in parts for n in part.engine_names]
        assert sorted(seen) == store.engine_names


def npz_round_trip(columnar):
    buffer = io.BytesIO()
    columnar.save_npz(buffer)
    buffer.seek(0)
    return ColumnarRepresentative.load_npz(buffer)


class TestBinaryMeanWTravels:
    """``binary_mean_w`` is the mean over the *source's* iteration order;
    every route into and out of a store carries it rather than recomputing
    it over whatever order the columns are in (one ulp off on real data)."""

    @pytest.fixture(scope="class")
    def representatives(self):
        from repro.corpus.synth import NewsgroupModel
        from repro.engine import SearchEngine
        from repro.representatives import build_representative

        model = NewsgroupModel(
            vocab_size=4000, topic_size=120, topic_band=(50, 1500),
            mean_length=80, seed=1999, group_sizes=[30] * 16,
        )
        return [
            build_representative(SearchEngine(model.generate_group(g)))
            for g in range(model.n_groups)
        ]

    def test_npz_route_is_bit_equal_to_dict_route(self, representatives):
        from repro.core import BinaryIndependenceEstimator
        from repro.core.vectorized import fleet_usefulness_grid
        from repro.corpus import Query

        by_dict = FleetRepresentativeStore()
        by_npz = FleetRepresentativeStore()  # what convert-rep's .npz loads
        by_store_npz = FleetRepresentativeStore()  # shared-vocabulary order
        for rep in representatives:
            by_dict.add(rep)
            by_npz.add(
                npz_round_trip(ColumnarRepresentative.from_representative(rep))
            )
        for name in reversed(by_dict.engine_names):
            by_store_npz.add(npz_round_trip(by_dict.columnar_of(name)))
        expected = dict(zip(by_dict.engine_names, by_dict.binary_mean_w))
        for store in (by_npz, by_store_npz):
            assert dict(zip(store.engine_names, store.binary_mean_w)) == expected
        terms = [t for t, __ in list(representatives[0].items())[:3]]
        query = Query(terms=tuple(terms), weights=(1.0, 2.0, 0.5))
        grids = []
        for store in (by_dict, by_npz, by_store_npz):
            nodoc, avgsim = fleet_usefulness_grid(
                BinaryIndependenceEstimator(), store, query, [0.1, 0.2, 0.3]
            )
            grids.append(dict(zip(
                store.engine_names, zip(nodoc.T.tolist(), avgsim.T.tolist())
            )))
        assert grids[0] == grids[1] == grids[2]

    def test_npz_without_the_member_loads_with_column_order_mean(self):
        # Files written before the member existed.
        columnar = ColumnarRepresentative.from_representative(make_rep())
        buffer = io.BytesIO()
        columnar.save_npz(buffer)
        buffer.seek(0)
        with np.load(buffer) as data:
            members = {k: data[k] for k in data.files if k != "binary_mean_w"}
        legacy = io.BytesIO()
        np.savez(legacy, **members)
        legacy.seek(0)
        loaded = ColumnarRepresentative.load_npz(legacy)
        assert loaded == columnar
        assert loaded.binary_mean_w == float(np.mean(loaded.w))

    @staticmethod
    def stamped(value):
        """``make_rep`` columnarized, carrying a mean no recomputation over
        its columns could produce."""
        source = ColumnarRepresentative.from_representative(
            make_rep("d1", terms=("pear", "apple", "plum", "kiwi"))
        )
        return ColumnarRepresentative(
            source.name, source.n_documents, source.vocab, source.term_ids,
            source.p, source.w, source.sigma, source.mw, binary_mean_w=value,
        )

    def test_round_trips_across_vocabularies(self):
        source = FleetRepresentativeStore()
        source.add(self.stamped(0.625))
        vocab = BrokerVocabulary()
        for term in ("plum", "zebra", "kiwi"):  # another id order entirely
            vocab.intern(term)
        target = FleetRepresentativeStore(vocab)
        target.add(source.columnar_of("d1"))
        assert target.binary_mean_w.tolist() == [0.625]
        assert target.columnar_of("d1").binary_mean_w == 0.625
        assert target.columnar_of("d1") == source.columnar_of("d1")
        assert npz_round_trip(target.columnar_of("d1")).binary_mean_w == 0.625

    def test_as_triplets_keeps_it(self):
        assert self.stamped(0.625).as_triplets().binary_mean_w == 0.625

    def test_direct_construction_defaults_to_column_order_mean(self):
        vocab = BrokerVocabulary()
        ids = vocab.intern_many(["a", "b", "c"])
        w = np.array([0.1, 0.2, 0.7])
        columnar = ColumnarRepresentative(
            "x", 10, vocab, ids, w, w, np.zeros(3), w
        )
        assert columnar.binary_mean_w == float(np.mean(w))


class TestPartitionRoundRobin:
    def test_deals_in_index_order(self):
        assert partition_round_robin(["a", "b", "c", "d", "e"], 2) == [
            ["a", "c", "e"],
            ["b", "d"],
        ]

    def test_more_shards_than_items_leaves_empty_slices(self):
        assert partition_round_robin(["a"], 3) == [["a"], [], []]

    def test_single_shard_is_identity(self):
        items = ["a", "b", "c"]
        assert partition_round_robin(items, 1) == [items]

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            partition_round_robin(["a"], 0)
