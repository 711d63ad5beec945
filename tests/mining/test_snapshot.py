"""Copy-on-write snapshots: frozen views survive every live mutation.

Satellite of the serving subsystem: epoch snapshots share postings
sets with the live index (publication is O(distinct keys) pointer
copies, no deep copy), so the hazard to pin down is a *shared-set
mutation* — a replace-path upsert or a remove on the live index that
writes into a set a published snapshot still references.  These tests
drive exactly those paths and assert the snapshot never moves.
"""

import pytest

from repro.mining.index import ConceptIndex, concept_key, field_key


def _fill(index):
    """Three documents over two dimensions, with timestamps."""
    index.add_keys(
        "a",
        [field_key("city", "boston"), concept_key("issue", "billing")],
        timestamp=0,
    )
    index.add_keys(
        "b",
        [field_key("city", "boston"), concept_key("issue", "outage")],
        timestamp=1,
    )
    index.add_keys(
        "c",
        [field_key("city", "denver"), concept_key("issue", "billing")],
        timestamp=1,
    )
    return index


@pytest.fixture(params=[0, 3])
def live(request):
    """A filled live index after ``param`` replace-path re-deliveries.

    0 is freshly filled; 3 re-delivers every document once, so each
    postings set has been through the replace path before capture.
    """
    index = _fill(ConceptIndex())
    for doc_id in index.document_ids[:request.param]:
        index.add_keys(
            doc_id,
            index.keys_of(doc_id),
            timestamp=index.timestamp_of(doc_id),
            on_duplicate="replace",
        )
    return index


class TestFrozenView:
    """Snapshots expose reads and refuse writes."""

    def test_snapshot_reads_equal_live_at_capture(self, live):
        """A fresh snapshot agrees with the live index everywhere."""
        view = live.snapshot()
        assert len(view) == len(live)
        assert view.concept_keys() == live.concept_keys()
        assert view.stats() == live.stats()
        for key in live.concept_keys():
            assert view.documents_with(key) == live.documents_with(key)
        for doc_id in live.document_ids:
            assert view.keys_of(doc_id) == live.keys_of(doc_id)
            assert view.timestamp_of(doc_id) == live.timestamp_of(doc_id)

    def test_snapshot_refuses_writes(self, live):
        """add_keys and remove on a snapshot raise RuntimeError."""
        view = live.snapshot()
        with pytest.raises(RuntimeError):
            view.add_keys("z", [field_key("city", "boston")])
        with pytest.raises(RuntimeError):
            view.remove("a")
        assert view.is_snapshot
        assert not live.is_snapshot

    def test_snapshot_of_snapshot_is_itself(self, live):
        """Snapshotting a frozen view is the identity."""
        view = live.snapshot()
        assert view.snapshot() is view


class TestCopyOnWriteIsolation:
    """Live mutations never reach a published snapshot."""

    def test_new_document_invisible_to_snapshot(self, live):
        """An insert after capture touches only the live index."""
        view = live.snapshot()
        live.add_keys("d", [field_key("city", "boston")], timestamp=2)
        assert "d" in live and "d" not in view
        assert live.count(field_key("city", "boston")) == 3
        assert view.count(field_key("city", "boston")) == 2

    def test_replace_upsert_does_not_alter_snapshot(self, live):
        """The replace path (remove + re-add of shared keys) is the
        sharing hazard this contract exists for."""
        view = live.snapshot()
        before = {
            key: view.documents_with(key)
            for key in view.concept_keys()
        }
        live.add(
            "a",
            fields={"city": "denver"},
            timestamp=5,
            on_duplicate="replace",
        )
        assert live.documents_with(field_key("city", "denver")) == (
            {"a", "c"}
        )
        for key, docs in before.items():
            assert view.documents_with(key) == docs
        assert view.keys_of("a") == {
            field_key("city", "boston"), concept_key("issue", "billing"),
        }
        assert view.timestamp_of("a") == 0

    def test_remove_does_not_alter_snapshot(self, live):
        """Un-indexing a document leaves the captured postings whole."""
        view = live.snapshot()
        live.remove("b")
        assert "b" not in live
        assert "b" in view
        assert view.documents_with(field_key("city", "boston")) == (
            {"a", "b"}
        )

    def test_snapshot_postings_views_are_stable_objects(self, live):
        """Even the non-copying postings_view of a snapshot is frozen:
        a live write replaces the live set instead of mutating the
        shared one."""
        view = live.snapshot()
        key = field_key("city", "boston")
        shared = view.postings_view(key)
        live.add_keys("e", [key], timestamp=9)
        assert shared == {"a", "b"}
        assert view.postings_view(key) == {"a", "b"}

    def test_successive_snapshots_are_independent(self, live):
        """Each publication freezes its own point in time."""
        first = live.snapshot()
        live.add_keys("d", [field_key("city", "austin")], timestamp=3)
        second = live.snapshot()
        live.remove("a")
        assert len(first) == 3
        assert len(second) == 4
        assert len(live) == 3
        assert "a" in first and "a" in second and "a" not in live


class TestBucketRange:
    """``between``: a frozen view of the documents in a bucket range."""

    @staticmethod
    def _rebuilt(index, lo, hi):
        """The in-range documents re-added, in order, to a new index."""
        rebuilt = ConceptIndex(keep_documents=index.keeps_documents)
        for doc_id in index.document_ids:
            timestamp = index.timestamp_of(doc_id)
            if timestamp is not None and lo <= timestamp <= hi:
                rebuilt.add_keys(
                    doc_id, index.keys_of(doc_id), timestamp=timestamp,
                    text=(index.text_of(doc_id)
                          if index.keeps_documents else None),
                )
        return rebuilt

    @pytest.mark.parametrize("bounds", [(0, 0), (1, 1), (0, 1), (2, 9)])
    def test_view_equals_index_of_its_documents(self, live, bounds):
        view = live.between(*bounds)
        rebuilt = self._rebuilt(live, *bounds)
        assert view.document_ids == rebuilt.document_ids
        assert view.concept_keys() == rebuilt.concept_keys()
        for key in rebuilt.concept_keys():
            assert view.postings_view(key) == rebuilt.postings_view(key)
        for dimension in (("field", "city"), ("concept", "issue")):
            assert view.values_of_dimension(dimension) == (
                rebuilt.values_of_dimension(dimension)
            )
        assert view.stats() == rebuilt.stats()

    def test_texts_and_untimed_documents(self):
        index = _fill(ConceptIndex(keep_documents=True))
        index.add_keys("u", [field_key("city", "boston")], text="untimed")
        view = index.between(1, 1)
        assert view.keeps_documents
        assert view.document_ids == ["b", "c"]
        assert "u" not in view
        assert view.text_of("b") == index.text_of("b")

    def test_view_is_frozen_and_isolated(self, live):
        view = live.between(0, 1)
        with pytest.raises(RuntimeError):
            view.add_keys("z", [field_key("city", "boston")], timestamp=0)
        assert view.is_snapshot
        live.add_keys("d", [field_key("city", "boston")], timestamp=1)
        live.remove("b")
        assert view.documents_with(field_key("city", "boston")) == (
            {"a", "b"}
        )
        assert "d" not in view


class TestStats:
    """The cheap structural counters (health endpoint satellite)."""

    def test_single_index_stats(self):
        """documents / concepts of the index."""
        index = _fill(ConceptIndex())
        assert index.stats() == {"documents": 3, "concepts": 4}

    def test_concept_keys_sorted(self):
        """concept_keys is the sorted distinct key list."""
        index = _fill(ConceptIndex())
        keys = index.concept_keys()
        assert keys == sorted(keys)
        assert field_key("city", "boston") in keys
