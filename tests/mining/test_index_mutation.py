"""ConceptIndex mutation: remove and duplicate-delivery policies.

The streaming consumer leans on these invariants — ``remove`` must
leave no posting, dimension-value or text residue, and
``on_duplicate="replace"`` must be indistinguishable from never having
indexed the first delivery.
"""

import pytest

from repro.mining.index import ConceptIndex, field_key


def _add(index, doc_id, fields, timestamp=None, **kwargs):
    index.add(doc_id, fields=fields, timestamp=timestamp, **kwargs)


class TestRemove:
    def test_document_fully_forgotten(self):
        index = ConceptIndex()
        _add(index, 0, {"city": "boston", "car": "suv"}, timestamp=1)
        _add(index, 1, {"city": "boston"}, timestamp=2)
        index.remove(0)
        assert len(index) == 1
        assert 0 not in index
        assert index.document_ids == [1]
        assert index.count(field_key("city", "boston")) == 1
        assert index.documents_with(field_key("city", "boston")) == {1}

    def test_last_posting_erases_dimension_value(self):
        index = ConceptIndex()
        _add(index, 0, {"city": "boston", "car": "suv"})
        _add(index, 1, {"city": "denver"})
        index.remove(0)
        assert index.values_of_dimension(("field", "city")) == ["denver"]
        # "car" lost its only value: the dimension itself disappears.
        assert index.values_of_dimension(("field", "car")) == []
        assert index.count(field_key("car", "suv")) == 0
        assert index.documents_with(field_key("car", "suv")) == set()

    def test_remove_unknown_document_raises(self):
        index = ConceptIndex()
        with pytest.raises(KeyError):
            index.remove(42)

    def test_stored_text_removed_with_document(self):
        index = ConceptIndex(keep_documents=True)
        index.add_keys(0, {field_key("city", "boston")}, text="hello")
        index.remove(0)
        with pytest.raises(KeyError):
            index.text_of(0)

    def test_add_remove_equals_never_added(self):
        reference = ConceptIndex()
        _add(reference, 0, {"city": "boston"}, timestamp=1)

        index = ConceptIndex()
        _add(index, 0, {"city": "boston"}, timestamp=1)
        _add(index, 1, {"city": "denver", "car": "luxury"}, timestamp=2)
        index.remove(1)

        assert index.document_ids == reference.document_ids
        for dimension in (("field", "city"), ("field", "car")):
            assert index.values_of_dimension(
                dimension
            ) == reference.values_of_dimension(dimension)
            assert index.keys_of_dimension(
                dimension
            ) == reference.keys_of_dimension(dimension)


class TestOnDuplicate:
    def test_default_raises(self):
        index = ConceptIndex()
        _add(index, 0, {"city": "boston"})
        with pytest.raises(ValueError):
            _add(index, 0, {"city": "denver"})

    def test_unknown_policy_rejected(self):
        index = ConceptIndex()
        with pytest.raises(ValueError, match="on_duplicate"):
            _add(index, 0, {"city": "boston"}, on_duplicate="maybe")

    def test_skip_keeps_first_delivery(self):
        index = ConceptIndex()
        _add(index, 0, {"city": "boston"}, timestamp=1)
        _add(index, 0, {"city": "denver"}, timestamp=9,
             on_duplicate="skip")
        assert index.keys_of(0) == {field_key("city", "boston")}
        assert index.timestamp_of(0) == 1

    def test_replace_takes_last_delivery(self):
        index = ConceptIndex()
        _add(index, 0, {"city": "boston"}, timestamp=1)
        _add(index, 0, {"city": "denver"}, timestamp=9,
             on_duplicate="replace")
        assert index.keys_of(0) == {field_key("city", "denver")}
        assert index.timestamp_of(0) == 9
        assert index.values_of_dimension(("field", "city")) == ["denver"]

    def test_replace_equals_single_add(self):
        reference = ConceptIndex()
        _add(reference, 0, {"city": "denver"}, timestamp=9)

        index = ConceptIndex()
        _add(index, 0, {"city": "boston", "car": "suv"}, timestamp=1)
        _add(index, 0, {"city": "denver"}, timestamp=9,
             on_duplicate="replace")

        assert index.document_ids == reference.document_ids
        assert index.keys_of(0) == reference.keys_of(0)
        for dimension in (("field", "city"), ("field", "car")):
            assert index.values_of_dimension(
                dimension
            ) == reference.values_of_dimension(dimension)

    def test_replace_moves_document_to_insertion_tail(self):
        index = ConceptIndex()
        _add(index, 0, {"city": "boston"})
        _add(index, 1, {"city": "denver"})
        _add(index, 0, {"city": "miami"}, on_duplicate="replace")
        assert index.document_ids == [1, 0]


class TestPostingsAliasing:
    """The copying public read and the non-copying hot-loop read."""

    @pytest.fixture
    def index(self):
        index = ConceptIndex()
        for doc_id, car in enumerate(["suv", "suv", "van", "suv"]):
            _add(index, doc_id, {"car": car})
        return index

    def test_documents_with_still_copies(self, index):
        key = field_key("car", "suv")
        copied = index.documents_with(key)
        copied.add(999)
        assert 999 not in index.documents_with(key)
        assert index.count(key) == 3

    def test_postings_view_does_not_copy(self, index):
        key = field_key("car", "suv")
        assert index.postings_view(key) is index.postings_view(key)
        assert index.postings_view(key) is index._postings[key]

    def test_postings_view_missing_key_is_empty(self, index):
        assert index.postings_view(("field", "x", "y")) == frozenset()

    def test_missing_document_errors(self, index):
        with pytest.raises(KeyError):
            index.keys_of(99)
        with pytest.raises(KeyError):
            index.timestamp_of(99)
        with pytest.raises(KeyError, match="not indexed"):
            index.remove(99)
