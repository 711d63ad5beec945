"""EpochStore: publication protocol, history, snapshot isolation."""

import pytest

from repro.mining.index import ConceptIndex, field_key
from repro.obs import MetricsRegistry, activated
from repro.stream import EpochStore

from tests.serve.corpus import make_consumer, make_pairs, reference_index


def _small_index(n=3):
    """A tiny live index with ``n`` documents."""
    index = ConceptIndex()
    for i in range(n):
        index.add_keys(
            f"d{i}", [field_key("city", "seattle")], timestamp=i
        )
    return index


class TestPublication:
    """The write side: publish, stamps, monotonicity, history."""

    def test_current_before_first_publish_raises(self):
        """An empty store refuses to answer."""
        with pytest.raises(LookupError):
            EpochStore().current()

    def test_publish_stamps_epoch_and_dense_seq(self):
        """Epochs carry the offset; seq counts publications densely."""
        store = EpochStore()
        store.publish(_small_index(), -1)
        store.publish(_small_index(), 6)
        snapshot = store.current()
        assert snapshot.epoch == 6
        assert snapshot.seq == 1
        assert store.epochs() == [-1, 6]

    def test_epoch_regression_rejected(self):
        """Offsets must be monotonic across publications."""
        store = EpochStore()
        store.publish(_small_index(), 10)
        with pytest.raises(ValueError):
            store.publish(_small_index(), 4)

    def test_republish_same_epoch_replaces_in_place(self):
        """A same-epoch re-publish swaps the snapshot, not the history."""
        store = EpochStore()
        store.publish(_small_index(2), 5)
        store.publish(_small_index(3), 5)
        assert len(store) == 1
        assert store.current().stats()["documents"] == 3
        assert store.current().seq == 1  # still a distinct publication

    def test_bounded_history_evicts_oldest(self):
        """Old epochs fall out; current is always retained."""
        store = EpochStore(history=2)
        for epoch in (0, 1, 2, 3):
            store.publish(_small_index(), epoch)
        assert store.epochs() == [2, 3]
        assert store.at(3).epoch == 3
        with pytest.raises(KeyError):
            store.at(0)

    def test_invalid_history_rejected(self):
        """A history bound below 1 is a configuration error."""
        with pytest.raises(ValueError):
            EpochStore(history=0)

    def test_publish_records_metrics(self):
        """Publication bumps the counter and the current-epoch gauges."""
        metrics = MetricsRegistry()
        store = EpochStore()
        with activated(None, metrics):
            store.publish(_small_index(3), 7)
        snap = metrics.snapshot()
        assert snap["counters"]["epoch.published"] == 1
        assert snap["gauges"]["epoch.current"] == 7
        assert snap["gauges"]["epoch.documents"] == 3


class TestSnapshotStats:
    """EpochSnapshot.stats merges index counters with the stamps."""

    def test_stats_carry_stamps(self):
        """The stats body exposes epoch and seq alongside the counts."""
        store = EpochStore()
        store.publish(_small_index(3), 9)
        stats = store.current().stats()
        assert stats["epoch"] == 9
        assert stats["seq"] == 0
        assert stats["documents"] == 3
        assert stats["concepts"] == 1


class TestConsumerIntegration:
    """The consumer publishes at init, every commit, and restore."""

    def test_initial_publication_is_empty_epoch(self):
        """Before any batch, readers see the empty epoch -1."""
        epochs = EpochStore()
        make_consumer(make_pairs(), epochs=epochs)
        snapshot = epochs.current()
        assert snapshot.epoch == -1
        assert len(snapshot.index) == 0

    @pytest.mark.parametrize("redeliver", [0, 4])
    def test_every_commit_publishes_committed_offset(self, redeliver):
        """After each batch the current epoch equals the committed offset,
        and the snapshot matches the batch-built reference index."""
        pairs = make_pairs(redeliver=redeliver)
        epochs = EpochStore(history=None)
        consumer = make_consumer(pairs, epochs=epochs)
        while consumer.step():
            snapshot = epochs.current()
            assert snapshot.epoch == consumer.committed_offset
            reference = reference_index(pairs, snapshot.epoch)
            assert snapshot.index.stats() == reference.stats()
            assert snapshot.index.concept_keys() == (
                reference.concept_keys()
            )
            for key in reference.concept_keys():
                assert snapshot.index.documents_with(key) == (
                    reference.documents_with(key)
                )

    def test_published_snapshot_survives_later_ingestion(self):
        """A snapshot taken at epoch e never changes as the stream
        moves on — the copy-on-write isolation contract."""
        pairs = make_pairs()
        epochs = EpochStore(history=None)
        consumer = make_consumer(pairs, epochs=epochs)
        assert consumer.step()
        first = epochs.current()
        frozen_stats = first.stats()
        frozen_postings = {
            key: first.index.documents_with(key)
            for key in first.index.concept_keys()
        }
        while consumer.step():
            pass
        assert epochs.current().epoch > first.epoch
        assert first.stats() == frozen_stats
        for key, docs in frozen_postings.items():
            assert first.index.documents_with(key) == docs
