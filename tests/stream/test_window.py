"""WindowedAnalytics: window snapshots == batch mining.

The central claim of the streaming subsystem: after any sequence of
deliveries (including upserts, late arrivals and evictions), every
snapshot is *bit-identical* to running the batch mining function over
an index holding exactly the window's documents.  The expected window
membership is computed here independently (last-write-wins per doc_id,
then buckets within ``[max - W + 1, max]``), so the test does not trust
the window's bucket-range read.
"""

import random

import pytest

from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex, concept_key, field_key
from repro.mining.relfreq import relative_frequency
from repro.mining.trends import emerging_concepts, trend_series
from repro.stream import (
    AssocSpec,
    RelFreqSpec,
    WindowedAnalytics,
    index_to_state,
)
from tests.stream.reference import ReferenceWindow, window_snapshots

CITIES = ["seattle", "boston", "denver", "miami"]
CARS = ["suv", "compact", "luxury"]
TOPICS = ["billing", "coverage", "roaming"]

WINDOW = 3

ASSOC = AssocSpec(("field", "city"), ("field", "car"))
RELFREQ = RelFreqSpec(
    (field_key("car", "suv"),), ("field", "city"), min_focus_count=1
)


def _keys(rng):
    keys = {
        field_key("city", rng.choice(CITIES)),
        field_key("car", rng.choice(CARS)),
    }
    if rng.random() < 0.7:
        keys.add(concept_key("topic", rng.choice(TOPICS)))
    return keys


def _deliveries(seed, n=150):
    """(doc_id, keys, timestamp) with upserts and late arrivals."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        timestamp = i // 12
        if rng.random() < 0.1 and i > 10:
            # Re-deliver an earlier document with fresh keys (upsert).
            doc_id = rng.randrange(max(1, i - 20), i)
        else:
            doc_id = i
        if rng.random() < 0.08:
            timestamp = max(0, timestamp - rng.randrange(1, 6))  # late
        out.append((doc_id, _keys(rng), timestamp))
    return out


def _expected_window(deliveries, window_buckets):
    """Independent window model: last write wins, then floor filtering.

    A late delivery never enters the window.  A late re-delivery of a
    live document still replaces it, as it does in the index, and so
    takes it out of the window.
    """
    live = {}
    max_bucket = None
    for doc_id, keys, timestamp in deliveries:
        live[doc_id] = (keys, timestamp)
        if max_bucket is None or timestamp > max_bucket:
            max_bucket = timestamp
    if max_bucket is None:
        return {}
    floor = max_bucket - window_buckets + 1
    return {
        doc_id: (keys, timestamp)
        for doc_id, (keys, timestamp) in live.items()
        if timestamp >= floor
    }


def _batch_index(expected):
    index = ConceptIndex()
    for doc_id, (keys, timestamp) in expected.items():
        index.add_keys(doc_id, keys, timestamp=timestamp)
    return index


def _feed(deliveries):
    """(window, index): each delivery upserts the index, then commits."""
    index = ConceptIndex()
    window = WindowedAnalytics(
        WINDOW, assoc_specs=[ASSOC], relfreq_specs=[RELFREQ]
    )
    for doc_id, keys, timestamp in deliveries:
        index.add_keys(
            doc_id, keys, timestamp=timestamp, on_duplicate="replace"
        )
        window.ingest(index, {doc_id: timestamp})
    return window, index


def _assert_tables_identical(actual, expected):
    assert actual.row_values == expected.row_values
    assert actual.col_values == expected.col_values
    # AssociationCell is a frozen dataclass: == is exact, including
    # the interval-bounded strength floats (bit-identical claim).
    assert actual.cells() == expected.cells()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
class TestBatchEquivalence:
    def test_membership_matches_independent_model(self, seed):
        deliveries = _deliveries(seed)
        window, _ = _feed(deliveries)
        expected = _expected_window(deliveries, WINDOW)
        assert sorted(window.index.document_ids) == sorted(expected)
        for doc_id, (keys, timestamp) in expected.items():
            assert window.index.keys_of(doc_id) == set(keys)
            assert window.index.timestamp_of(doc_id) == timestamp

    def test_assoc_snapshot_bit_identical(self, seed):
        deliveries = _deliveries(seed)
        window, _ = _feed(deliveries)
        batch = _batch_index(_expected_window(deliveries, WINDOW))
        _assert_tables_identical(
            window.assoc_snapshot(0),
            associate(batch, ASSOC.row_dimension, ASSOC.col_dimension),
        )

    def test_relfreq_snapshot_bit_identical(self, seed):
        deliveries = _deliveries(seed)
        window, _ = _feed(deliveries)
        batch = _batch_index(_expected_window(deliveries, WINDOW))
        assert window.relfreq_snapshot(0) == relative_frequency(
            batch, RELFREQ.focus_keys, RELFREQ.candidate_dimension,
            min_focus_count=RELFREQ.min_focus_count,
        )

    def test_trend_snapshots_bit_identical(self, seed):
        deliveries = _deliveries(seed)
        window, _ = _feed(deliveries)
        batch = _batch_index(_expected_window(deliveries, WINDOW))
        # Forced buckets reach past both window edges: evicted buckets
        # and buckets not yet seen must come back zero-filled.
        newest = max(timestamp for _, _, timestamp in deliveries)
        forced = list(range(newest - 2 * WINDOW, newest + 3))
        for buckets in (None, forced):
            for dimension in (
                ("field", "city"), ("field", "car"), ("concept", "topic")
            ):
                for key in batch.keys_of_dimension(dimension):
                    assert window.trend_snapshot(
                        key, buckets=buckets
                    ) == trend_series(batch, key, buckets=buckets)
                assert window.emerging_snapshot(
                    dimension, buckets=buckets, min_total=1
                ) == emerging_concepts(
                    batch, dimension, buckets=buckets, min_total=1
                )

    def test_state_round_trip_preserves_everything(self, seed):
        deliveries = _deliveries(seed)
        window, index = _feed(deliveries)
        restored = WindowedAnalytics(
            WINDOW, assoc_specs=[ASSOC], relfreq_specs=[RELFREQ]
        ).restore_state(window.to_state(), index)
        assert restored.to_state() == window.to_state()
        assert window_snapshots(restored) == window_snapshots(window)

    def test_snapshots_equal_the_reference_window(self, seed):
        """Re-deliveries in their own bucket: == the private-index window.

        At-least-once re-delivery repeats a message in the bucket it
        was first delivered in, so a live document is never
        re-delivered below the floor here (that edge has its own test).
        """
        bucket_of = {}
        deliveries = []
        for doc_id, keys, timestamp in _deliveries(seed):
            timestamp = bucket_of.setdefault(doc_id, timestamp)
            deliveries.append((doc_id, keys, timestamp))
        index = ConceptIndex()
        window = WindowedAnalytics(
            WINDOW, assoc_specs=[ASSOC], relfreq_specs=[RELFREQ]
        )
        reference = ReferenceWindow(
            WINDOW, assoc_specs=[ASSOC], relfreq_specs=[RELFREQ]
        )
        for doc_id, keys, timestamp in deliveries:
            index.add_keys(
                doc_id, keys, timestamp=timestamp, on_duplicate="replace"
            )
            window.ingest(index, {doc_id: timestamp})
            reference.ingest(doc_id, keys, timestamp)
            assert window_snapshots(window) == window_snapshots(reference)


def _window_of(*deliveries, window_buckets=2):
    """(window, index) after ``(doc_id, value, bucket)`` deliveries."""
    index = ConceptIndex()
    window = WindowedAnalytics(window_buckets)
    for doc_id, value, bucket in deliveries:
        index.add_keys(
            doc_id, {field_key("a", value)}, timestamp=bucket,
            on_duplicate="replace",
        )
        window.ingest(index, {doc_id: bucket})
    return window, index


class TestWindowMechanics:
    def test_eviction_drops_old_buckets(self):
        window, _ = _window_of((0, "x", 0), (1, "x", 1), (2, "y", 3))
        assert sorted(window.index.document_ids) == [2]
        assert window.window_floor == 2
        # Dimension values of evicted docs disappear entirely.
        assert window.index.values_of_dimension(("field", "a")) == ["y"]

    def test_late_arrival_outside_window(self):
        window, index = _window_of((0, "x", 5), (1, "y", 2))
        assert len(window) == 1
        assert window.index.document_ids == [0]
        assert window.buckets == [5]
        assert 1 in index  # the index keeps it; the window range skips it

    def test_upsert_replaces_keys_and_timestamp(self):
        window, _ = _window_of((0, "x", 1), (0, "y", 2), window_buckets=5)
        assert len(window) == 1
        assert window.index.keys_of(0) == {field_key("a", "y")}
        assert window.trend_snapshot(field_key("a", "x")) == []
        assert window.trend_snapshot(field_key("a", "y")) == [(2, 1)]

    def test_missing_timestamp_rejected(self):
        window = WindowedAnalytics(2)
        with pytest.raises(ValueError, match="no timestamp"):
            window.ingest(ConceptIndex(), {0: None})

    def test_restore_rejects_mismatched_window(self):
        window, index = _window_of((0, "x", 0))
        other = WindowedAnalytics(3)
        with pytest.raises(ValueError, match="configured for 3"):
            other.restore_state(window.to_state(), index)

    def test_empty_window_snapshot_raises_like_batch(self):
        window = WindowedAnalytics(2, assoc_specs=[ASSOC])
        with pytest.raises(ValueError, match="empty window"):
            window.assoc_snapshot(0)


class TestOneIndex:
    """The window owns no documents: it reads the index it is given."""

    def test_window_holds_no_index_of_its_own(self):
        window, index = _window_of((0, "x", 0), (1, "y", 1))
        owned = [
            value for value in vars(window).values()
            if isinstance(value, ConceptIndex)
        ]
        assert owned == [index]
        assert window.index.is_snapshot

    def test_checkpoint_block_is_width_and_cursor(self):
        window, _ = _window_of((0, "x", 4), (1, "y", 7), window_buckets=3)
        assert window.to_state() == {"window_buckets": 3, "max_bucket": 7}

    def test_legacy_window_block_restores(self):
        """A block with the old document list and counters still loads."""
        window, index = _window_of((0, "x", 4), (1, "y", 7),
                                   window_buckets=3)
        legacy = dict(
            window.to_state(), late_dropped=2, evicted=5,
            documents=[{"doc_id": 9, "keys": [["field", "a", "q"]],
                        "timestamp": 7}],
        )
        restored = WindowedAnalytics(3).restore_state(legacy, index)
        assert restored.to_state() == window.to_state()
        assert window_snapshots(restored) == window_snapshots(window)
        assert restored.index.document_ids == [1]

    def test_view_follows_later_index_writes(self):
        window, index = _window_of((0, "x", 1), (1, "y", 2))
        before = window.index
        index.add_keys(2, {field_key("a", "w")}, timestamp=2)
        window.ingest(index, {2: 2})
        assert window.index.document_ids == [0, 1, 2]
        assert before.document_ids == [0, 1]


class TestOneViewPerWrite:
    """Reads between two writes share one bucket-range view."""

    def _counting_between(self, patch):
        views = []
        between = ConceptIndex.between

        def counting(self, lo, hi):
            views.append((lo, hi))
            return between(self, lo, hi)

        patch.setattr(ConceptIndex, "between", counting)
        return views

    def test_one_commit_then_five_reads_builds_one_view(self):
        index = ConceptIndex()
        window = WindowedAnalytics(
            WINDOW, assoc_specs=[ASSOC], relfreq_specs=[RELFREQ]
        )
        for doc_id, keys, timestamp in _deliveries(3, n=30):
            index.add_keys(
                doc_id, keys, timestamp=timestamp, on_duplicate="replace"
            )
            window.ingest(index, {doc_id: timestamp})
        with pytest.MonkeyPatch.context() as patch:
            views = self._counting_between(patch)
            assert len(window) > 0
            window.assoc_snapshot(0)
            window.relfreq_snapshot(0)
            window.trend_snapshot(field_key("car", "suv"))
            window.emerging_snapshot(("field", "city"))
            assert window.buckets
        floor = window.window_floor
        assert views == [(floor, floor + WINDOW - 1)]

    @pytest.mark.parametrize("write", ["add", "replace", "remove"])
    def test_write_after_a_read_gives_a_fresh_view(self, write):
        window, index = _window_of(
            (0, "x", 1), (1, "y", 2), (2, "z", 2), window_buckets=2
        )
        before = index_to_state(window.index)
        if write == "add":
            index.add_keys(3, {field_key("a", "w")}, timestamp=2)
        elif write == "replace":
            index.add_keys(
                1, {field_key("a", "v")}, timestamp=2,
                on_duplicate="replace",
            )
        else:
            index.remove(2)
        after = index_to_state(window.index)
        assert after != before
        assert after == index_to_state(index.between(1, 2))


class TestAssocSpecOptions:
    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            AssocSpec(("field", "city"), ("field", "car"),
                      confidence=confidence)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="bayes"):
            AssocSpec(("field", "city"), ("field", "car"),
                      interval_method="bayes")
