"""Unit tests for the columnar representative store (Section 3 layout)."""

from __future__ import annotations

import io
import threading
import time

import numpy as np
import pytest

from repro.representatives import (
    BrokerVocabulary,
    DatabaseRepresentative,
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


def one_engine_store(rep, vocab=None):
    store = FleetRepresentativeStore(vocab)
    store.add(rep)
    return store


def npz_bytes(store):
    buffer = io.BytesIO()
    store.save_npz(buffer)
    buffer.seek(0)
    return buffer


def npz_round_trip(store, vocab=None):
    return FleetRepresentativeStore.load_npz(npz_bytes(store), vocab)


def bundle_members(store):
    with np.load(npz_bytes(store)) as data:
        return {key: data[key] for key in data.files}


def bundle_of(members):
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    buffer.seek(0)
    return buffer


class TestColumnarRepresentative:
    """One engine's columns as the store holds them."""

    def test_from_representative_sorts_by_term_id(self):
        vocab = BrokerVocabulary()
        vocab.intern_many(["zebra", "apple"])  # zebra gets the smaller id
        rep = make_rep(terms=("apple", "zebra"))
        store = one_engine_store(rep, vocab)
        assert store.vocab is vocab
        assert store.terms_of("d1") == ["zebra", "apple"]  # id order
        assert list(store.materialize("d1").items()) == [
            ("zebra", rep.get("zebra")), ("apple", rep.get("apple"))
        ]

    def test_duck_api_matches_dict_form(self):
        rep = make_rep()
        back = one_engine_store(rep).materialize("d1")
        assert isinstance(back, DatabaseRepresentative)
        assert back == rep
        assert len(back) == len(rep)
        assert back.n_documents == rep.n_documents
        assert back.get("pear") == rep.get("pear")
        assert back.get("ghost") is None
        assert back.has_max_weights
        assert back.document_frequency("apple") == (
            rep.get("apple").probability * rep.n_documents
        )

    def test_triplet_mode_round_trips_none(self):
        rep = make_rep(triplet=True)
        store = one_engine_store(rep)
        back = store.materialize("d1")
        assert not back.has_max_weights
        assert back.get("apple").max_weight is None
        assert dict(back.items()) == dict(rep.items())
        assert dict(npz_round_trip(store).materialize("d1").items()) == dict(
            rep.items()
        )

    def test_as_triplets_withholds_max(self):
        rep = make_rep()
        store = one_engine_store(rep.as_triplets())
        __, __, __, mw = store.gather(store.vocab.ids_of(["apple"]))
        assert np.isnan(mw).all()
        back = store.materialize("d1")
        assert not back.has_max_weights
        assert back.get("apple").max_weight is None
        assert back.get("apple").mean == rep.get("apple").mean

    def test_validation(self):
        # What the dict form's constructor checks, a file must pass too:
        # a document count >= 0 and one statistic per distinct term.
        members = bundle_members(one_engine_store(make_rep()))
        for column, value, message in (
            ("n_documents", np.array([-1]), "n_documents"),
            ("term_local", np.array([0, 1, 1]), "ascending"),
            ("term_blob", np.frombuffer(b"applepearpear", dtype=np.uint8),
             "distinct"),
        ):
            with pytest.raises(ValueError, match=message):
                FleetRepresentativeStore.load_npz(
                    bundle_of({**members, column: value})
                )

    def test_nbytes_is_array_budget(self):
        store = one_engine_store(make_rep())
        # Three terms: 4 term starts (int64), a uint8 engine row, p and w
        # per entry; apple's sigma is +0.0 but every mw differs from w, so
        # all three entries spill (int32 position, sigma, mw).
        assert store.nbytes == 4 * 8 + 3 * (1 + 8 + 8) + 3 * (4 + 8 + 8)


class TestNpzPersistence:
    """A one-engine bundle: ``convert-rep``'s representative file."""

    def test_round_trip_through_path(self, tmp_path):
        rep = make_rep()
        path = tmp_path / "rep.npz"
        one_engine_store(rep).save_npz(path)
        restored = FleetRepresentativeStore.load_npz(path)
        assert restored.engine_names == [rep.name]
        assert restored.materialize(rep.name) == rep

    def test_load_interns_into_given_vocab(self):
        vocab = BrokerVocabulary()
        vocab.intern("unrelated")
        restored = npz_round_trip(one_engine_store(make_rep()), vocab)
        assert restored.vocab is vocab
        assert vocab.id_of("apple") != UNKNOWN_TERM
        assert restored.materialize("d1") == make_rep()

    def test_rejects_foreign_npz(self):
        buffer = io.BytesIO()
        np.savez(buffer, format_version=np.int64(1), kind=np.frombuffer(
            b"something-else", dtype=np.uint8
        ))
        buffer.seek(0)
        with pytest.raises(ValueError, match="not a columnar"):
            FleetRepresentativeStore.load_npz(buffer)

    def test_rejects_unknown_version(self):
        buffer = io.BytesIO()
        np.savez(buffer, format_version=np.int64(999))
        buffer.seek(0)
        with pytest.raises(ValueError, match="version"):
            FleetRepresentativeStore.load_npz(buffer)


def _negative_term_local(m):
    m["term_local"] = m["term_local"].copy()
    m["term_local"][-1] = -1


def _entry_starts_past_the_end(m):
    m["entry_starts"] = m["entry_starts"] + np.array([0, 0, 0, 2])


def _decreasing_entry_starts(m):
    m["entry_starts"] = np.array([0, 3, 1, 6])


def _more_n_documents_than_names(m):
    m["n_documents"] = np.append(m["n_documents"], 5)


def _term_local_out_of_range(m):
    m["term_local"] = m["term_local"].copy()
    m["term_local"][0] = m["term_offsets"].size - 1


def _short_p(m):
    m["p"] = m["p"][:-1]


def _missing_binary_mean_w(m):
    del m["binary_mean_w"]


def _descending_term_local(m):
    m["term_local"] = m["term_local"].copy()
    m["term_local"][:3] = m["term_local"][:3][::-1]


class TestMalformedBundles:
    """The store's ``.npz`` loader is the only ``.npz`` decoder: a bundle
    edited one member at a time is refused with ``ValueError`` before a
    term is interned, not loaded truncated or failed with ``IndexError``."""

    @pytest.mark.parametrize("mutate", [
        _negative_term_local,
        _entry_starts_past_the_end,
        _decreasing_entry_starts,
        _more_n_documents_than_names,
        _term_local_out_of_range,
        _short_p,
        _missing_binary_mean_w,
        _descending_term_local,
    ])
    def test_a_malformed_bundle_is_a_value_error(self, mutate):
        store = FleetRepresentativeStore()
        store.add(make_rep("d1", terms=("apple", "pear", "plum")))
        store.add(make_rep("d2", terms=("kiwi",)))
        store.add(make_rep("d3", terms=("fig", "lime")))
        members = bundle_members(store)
        mutate(members)
        vocab = BrokerVocabulary()
        with pytest.raises(ValueError):
            FleetRepresentativeStore.load_npz(bundle_of(members), vocab)
        assert len(vocab) == 0


class TestFleetStore:
    def test_add_returns_read_through_ref(self):
        # add returns nothing to hold on to; the store itself reads the
        # just-parked engine through, before (and without) a pack.
        store = FleetRepresentativeStore()
        rep = make_rep("d1")
        assert store.add(rep) is None
        back = store.materialize("d1")
        assert store._pending  # the read did not pack
        assert back.n_documents == rep.n_documents
        assert len(back) == len(rep)
        assert back.get("pear") == rep.get("pear")
        assert back.get("ghost") is None
        assert "apple" in dict(back.items())
        assert dict(back.items()) == dict(rep.items())
        assert back.has_max_weights
        assert back.document_frequency("apple") == pytest.approx(
            rep.get("apple").probability * rep.n_documents
        )

    def test_replace_by_name(self):
        store = FleetRepresentativeStore()
        store.add(make_rep("d1", n=10))
        store.add(make_rep("d2", n=20))
        store.add(make_rep("d1", n=30, terms=("kiwi",)))
        assert store.engine_names == ["d1", "d2"]
        assert store.n_documents.tolist() == [30, 20]
        assert store.materialize("d1") == make_rep("d1", n=30, terms=("kiwi",))
        assert store.terms_of("d1") == ["kiwi"]
        assert store.materialize("d2") == make_rep("d2", n=20)

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
        assert p[store.engine_names.index("d2"), 0] > 0.0

    def test_term_stats_reads_pending_before_pack(self):
        store = FleetRepresentativeStore()
        store.add(make_rep("d1"))
        store.gather(store.vocab.ids_of(["apple"]))  # pack d1
        store.add(make_rep("d1", n=7, terms=("kiwi",)))  # pending again
        back = store.materialize("d1")
        assert store._pending  # read off the pending columns, no repack
        stats = back.get("kiwi")
        assert stats is not None and stats.mean == 0.2
        assert back.get("apple") is None
        assert store.terms_of("d1") == ["kiwi"]

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
        assert store.terms_of("d2") == ["apple"]
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
        # The single-engine file convert-rep wrote before a representative
        # file became a one-engine bundle.
        members = bundle_members(one_engine_store(make_rep()))
        members["kind"] = np.frombuffer(
            b"columnar-representative", dtype=np.uint8
        )
        with pytest.raises(
            ValueError,
            match="not a columnar fleet bundle: 'columnar-representative'",
        ):
            FleetRepresentativeStore.load_npz(bundle_of(members))

    def test_empty_fleet_round_trips(self):
        buffer = io.BytesIO()
        FleetRepresentativeStore().save_npz(buffer)
        buffer.seek(0)
        assert FleetRepresentativeStore.load_npz(buffer).engine_names == []

    def test_slices_cover_the_fleet_disjointly(self):
        store = self.fleet()
        slices = store.partition(2)
        assert slices == [["d1", "d3"], ["d2"]]
        assert slices == partition_round_robin(store.engine_names, 2)
        seen = [n for names in slices for n in names]
        assert sorted(seen) == store.engine_names


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

        terms = [t for t, __ in list(representatives[0].items())[:3]]
        query = Query(terms=tuple(terms), weights=(1.0, 2.0, 0.5))

        def grid_of(store):
            nodoc, avgsim = fleet_usefulness_grid(
                BinaryIndependenceEstimator(), store, query, [0.1, 0.2, 0.3]
            )
            return dict(zip(
                store.engine_names, zip(nodoc.T.tolist(), avgsim.T.tolist())
            ))

        by_dict = FleetRepresentativeStore()
        for rep in representatives:
            by_dict.add(rep)
        expected = dict(zip(by_dict.engine_names, by_dict.binary_mean_w))
        by_npz = {}
        for rep in representatives:
            one = npz_round_trip(one_engine_store(rep))  # convert-rep's file
            assert one.binary_mean_w.tolist() == [expected[rep.name]]
            by_npz.update(grid_of(one))
        # A whole-fleet bundle loaded into a vocabulary of another order.
        vocab = BrokerVocabulary()
        vocab.intern_many([
            by_dict.vocab.term_of(t) for t in reversed(range(len(by_dict.vocab)))
        ])
        by_store_npz = npz_round_trip(by_dict, vocab)
        assert dict(
            zip(by_store_npz.engine_names, by_store_npz.binary_mean_w)
        ) == expected
        assert grid_of(by_dict) == by_npz == grid_of(by_store_npz)

    @staticmethod
    def stamped(value):
        """A one-engine bundle of ``make_rep`` carrying a mean no
        recomputation over its columns could produce."""
        members = bundle_members(one_engine_store(
            make_rep("d1", terms=("pear", "apple", "plum", "kiwi"))
        ))
        members["binary_mean_w"] = np.array([value])
        return bundle_of(members)

    def test_round_trips_across_vocabularies(self):
        source = FleetRepresentativeStore.load_npz(self.stamped(0.625))
        assert source.binary_mean_w.tolist() == [0.625]
        vocab = BrokerVocabulary()
        for term in ("plum", "zebra", "kiwi"):  # another id order entirely
            vocab.intern(term)
        target = npz_round_trip(source, vocab)
        assert target.binary_mean_w.tolist() == [0.625]
        assert target.materialize("d1") == source.materialize("d1")
        assert npz_round_trip(target).binary_mean_w.tolist() == [0.625]


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
