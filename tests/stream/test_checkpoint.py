"""Checkpoint layer: index state round trips and atomic files."""

import json

import pytest

from repro.mining.index import ConceptIndex, concept_key, field_key
from repro.store.integrity import encode_stamped
from repro.stream import Checkpointer, index_from_state, index_to_state
from repro.stream.checkpoint import CHECKPOINT_VERSION


def _populated_index(keep_documents=False):
    index = ConceptIndex(keep_documents=keep_documents)
    index.add_keys(
        0, {field_key("city", "boston"), concept_key("topic", "billing")},
        timestamp=3, text="first call" if keep_documents else None,
    )
    index.add_keys(
        1, {field_key("city", "denver")},
        timestamp=None, text="second call" if keep_documents else None,
    )
    return index


class TestIndexState:
    @pytest.mark.parametrize("keep_documents", [False, True])
    def test_round_trip_is_lossless(self, keep_documents):
        index = _populated_index(keep_documents)
        rebuilt = index_from_state(index_to_state(index))
        assert index_to_state(rebuilt) == index_to_state(index)
        assert rebuilt.document_ids == index.document_ids
        assert rebuilt.keeps_documents == keep_documents
        for doc_id in index.document_ids:
            assert rebuilt.keys_of(doc_id) == index.keys_of(doc_id)
            assert rebuilt.timestamp_of(doc_id) == index.timestamp_of(
                doc_id
            )
        if keep_documents:
            assert rebuilt.text_of(0) == "first call"

    def test_state_is_json_safe(self):
        state = index_to_state(_populated_index(keep_documents=True))
        assert json.loads(json.dumps(state)) == state


class TestCheckpointer:
    def test_save_load_round_trip(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "ck.json")
        checkpointer.save({"offset": 7, "payload": [1, 2]})
        loaded = checkpointer.load()
        assert loaded["offset"] == 7
        assert loaded["payload"] == [1, 2]
        assert loaded["version"] == CHECKPOINT_VERSION

    def test_load_returns_none_when_missing(self, tmp_path):
        assert Checkpointer(tmp_path / "absent.json").load() is None

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_bytes(encode_stamped({"version": 99, "offset": 0}))
        with pytest.raises(ValueError, match="format version 99"):
            Checkpointer(path).load()

    def test_save_is_atomic_over_previous_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpointer = Checkpointer(path)
        checkpointer.save({"offset": 1})
        # Simulate a crash mid-write of the *next* checkpoint: a torn
        # temp file must never shadow the last complete checkpoint.
        (tmp_path / "ck.json.tmp").write_text('{"offset": 2, "ver')
        assert checkpointer.load()["offset"] == 1
        checkpointer.save({"offset": 3})
        assert checkpointer.load()["offset"] == 3
        assert not (tmp_path / "ck.json.tmp").exists()

    def test_exists_and_clear(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "ck.json")
        assert not checkpointer.exists()
        checkpointer.save({"offset": 0})
        assert checkpointer.exists()
        checkpointer.clear()
        assert not checkpointer.exists()
        assert checkpointer.load() is None
        checkpointer.clear()  # idempotent on a missing file
