"""Checkpoint compatibility: versioning and checkpoints of older builds.

Version-3 checkpoints written by a consumer on the retired hash-sharded
index carry an ``index.layout`` key.  The two fixtures under
``fixtures/`` were written by the 2-shard and the single-index
consumers of :func:`_build` (with ``shards=2`` / ``shards=0`` on the
index stage) under a fatal fault after the fifth committed batch, so
each holds the state committed at offset 27 of the 53-record stream.
Both must restore into today's consumer and resume to exactly the
state of an uninterrupted run.
"""

import json
import random
import shutil
from pathlib import Path

import pytest

from repro.engine import Document
from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex, concept_key, field_key
from repro.mining.stage import ConceptIndexStage
from repro.store.integrity import encode_stamped
from repro.stream import (
    AssocSpec,
    Checkpointer,
    MemorySource,
    RelFreqSpec,
    StreamConsumer,
    WindowedAnalytics,
    index_from_state,
    index_to_state,
)
from repro.stream.checkpoint import CHECKPOINT_VERSION
from tests.stream.reference import window_snapshots

FIXTURES = Path(__file__).parent / "fixtures"
TWO_SHARDS = FIXTURES / "v3_two_shards.ck.json"
SINGLE_INDEX = FIXTURES / "v3_single_index.ck.json"
#: Offset and committed batches the fixtures were saved at.
FIXTURE_OFFSET = 27
FIXTURE_BATCHES = 4

CITIES = ["seattle", "boston", "denver"]
CARS = ["suv", "compact", "luxury"]
CITY = ("field", "city")
CAR = ("field", "car")


def _fill(index):
    index.add_keys(
        0, {field_key("city", "boston"), concept_key("topic", "billing")},
        timestamp=3,
    )
    index.add_keys(1, {field_key("city", "denver")}, timestamp=None)
    index.add_keys(5, {concept_key("topic", "billing")}, timestamp=4)
    return index


class TestShardedIndexState:
    def test_single_state_has_no_layout_key(self):
        state = index_to_state(_fill(ConceptIndex()))
        assert "layout" not in state

    def test_v1_state_restores_as_single_index(self):
        # A single-index checkpoint payload carries no layout key.
        state = index_to_state(_fill(ConceptIndex()))
        rebuilt = index_from_state(state)
        assert isinstance(rebuilt, ConceptIndex)
        assert index_to_state(rebuilt) == state


class TestVersioning:
    def test_current_version_is_three_and_old_not_read(self, tmp_path):
        assert CHECKPOINT_VERSION == 3
        path = tmp_path / "ck.json"
        path.write_bytes(encode_stamped({"version": 2, "offset": 12}))
        with pytest.raises(ValueError, match="format version 2"):
            Checkpointer(path).load()

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_bytes(encode_stamped({"version": 99, "offset": 0}))
        with pytest.raises(ValueError, match="format version 99"):
            Checkpointer(path).load()


def _make_pairs(n=53, seed=6):
    """Deterministic (timestamp, document) arrivals; fresh each call."""
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        fields = {
            "city": rng.choice(CITIES),
            "car": rng.choice(CARS),
        }
        document = Document(
            doc_id=i, channel="test", text=f"call {i}",
            artifacts={"index_fields": fields},
        )
        pairs.append((i // 9, document))
    return pairs


def _build(checkpoint_path=None):
    """The consumer the fixtures were written by, on today's index."""
    return StreamConsumer(
        MemorySource(_make_pairs()),
        [ConceptIndexStage(on_duplicate="replace")],
        window=WindowedAnalytics(
            3,
            assoc_specs=[AssocSpec(CITY, CAR)],
            relfreq_specs=[RelFreqSpec((field_key("car", "suv"),), CITY)],
        ),
        checkpointer=(
            Checkpointer(checkpoint_path) if checkpoint_path else None
        ),
        batch_docs=7,
        checkpoint_interval=2,
    )


def _restored(fixture, tmp_path):
    """A fresh consumer restored from a copy of ``fixture``."""
    path = tmp_path / "ck.json"
    shutil.copyfile(fixture, path)
    consumer = _build(path)
    assert consumer.restore()
    return consumer


class TestLegacyCheckpoints:
    def test_fixtures_are_v3_with_and_without_layout(self):
        sharded = json.loads(TWO_SHARDS.read_text())
        single = json.loads(SINGLE_INDEX.read_text())
        assert sharded["version"] == single["version"] == 3
        assert sharded["index"]["layout"] == {
            "kind": "sharded", "shards": 2,
        }
        assert "layout" not in single["index"]
        assert sharded["offset"] == single["offset"] == FIXTURE_OFFSET

    @pytest.mark.parametrize("fixture", [TWO_SHARDS, SINGLE_INDEX],
                             ids=["two-shards", "single-index"])
    def test_restore_equals_uninterrupted_prefix(self, fixture, tmp_path):
        restored = _restored(fixture, tmp_path)
        prefix = _build()
        prefix.run(max_batches=FIXTURE_BATCHES, checkpoint_at_end=False)
        assert restored.committed_offset == prefix.committed_offset
        assert restored.index.document_ids == prefix.index.document_ids
        assert index_to_state(restored.index) == index_to_state(
            prefix.index
        )
        assert restored.window.to_state() == prefix.window.to_state()
        assert window_snapshots(restored.window) == window_snapshots(
            prefix.window
        )
        assert associate(restored.index, CITY, CAR) == associate(
            prefix.index, CITY, CAR
        )
        assert restored.window.assoc_snapshot(0) == (
            prefix.window.assoc_snapshot(0)
        )

    @pytest.mark.parametrize("fixture", [TWO_SHARDS, SINGLE_INDEX],
                             ids=["two-shards", "single-index"])
    def test_resumed_run_equals_uninterrupted(self, fixture, tmp_path):
        resumed = _restored(fixture, tmp_path)
        resumed.run()
        reference = _build()
        reference.run()
        assert resumed.index.document_ids == reference.index.document_ids
        assert index_to_state(resumed.index) == index_to_state(
            reference.index
        )
        assert resumed.window.to_state() == reference.window.to_state()
        assert window_snapshots(resumed.window) == window_snapshots(
            reference.window
        )
        assert resumed.committed_offset == reference.committed_offset
        assert associate(resumed.index, CITY, CAR) == associate(
            reference.index, CITY, CAR
        )

    def test_single_index_state_loads_unchanged(self):
        payload = Checkpointer(SINGLE_INDEX).load()
        rebuilt = index_from_state(payload["index"])
        assert index_to_state(rebuilt) == payload["index"]

    def test_sharded_layout_key_is_ignored(self):
        payload = Checkpointer(TWO_SHARDS).load()
        rebuilt = index_from_state(payload["index"])
        state = index_to_state(rebuilt)
        assert "layout" not in state
        expected = dict(payload["index"])
        del expected["layout"]
        assert state == expected
