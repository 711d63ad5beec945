"""Versioned sharded checkpoints: layouts, migration, crash/resume."""

import json
import random

import pytest

from repro.engine import Document, FunctionStage
from repro.faults import FaultPlan, FaultSpec, InjectedFault, injecting
from repro.mining.index import ConceptIndex, concept_key, field_key
from repro.mining.sharded import ShardedConceptIndex, shard_count_of
from repro.mining.stage import ConceptIndexStage
from repro.store.integrity import encode_stamped
from repro.stream import (
    AssocSpec,
    Checkpointer,
    MemorySource,
    StreamConsumer,
    WindowedAnalytics,
    index_from_state,
    index_to_state,
)
from repro.stream.checkpoint import CHECKPOINT_VERSION

CITIES = ["seattle", "boston", "denver"]
CARS = ["suv", "compact", "luxury"]


def _fill(index):
    index.add_keys(
        0, {field_key("city", "boston"), concept_key("topic", "billing")},
        timestamp=3,
    )
    index.add_keys(1, {field_key("city", "denver")}, timestamp=None)
    index.add_keys(5, {concept_key("topic", "billing")}, timestamp=4)
    return index


class TestShardedIndexState:
    def test_sharded_state_records_layout(self):
        state = index_to_state(_fill(ShardedConceptIndex(3)))
        assert state["layout"] == {"kind": "sharded", "shards": 3}
        assert json.loads(json.dumps(state)) == state

    def test_single_state_has_no_layout_key(self):
        # Single-index snapshots stay byte-identical to version 1, so
        # old readers can still load them.
        state = index_to_state(_fill(ConceptIndex()))
        assert "layout" not in state

    def test_sharded_round_trip_is_lossless(self):
        index = _fill(ShardedConceptIndex(3))
        rebuilt = index_from_state(index_to_state(index))
        assert isinstance(rebuilt, ShardedConceptIndex)
        assert rebuilt.n_shards == 3
        assert index_to_state(rebuilt) == index_to_state(index)
        assert rebuilt.document_ids == index.document_ids

    def test_v1_state_restores_as_single_index(self):
        # A single-index checkpoint payload carries no layout key.
        state = index_to_state(_fill(ConceptIndex()))
        rebuilt = index_from_state(state)
        assert isinstance(rebuilt, ConceptIndex)
        assert shard_count_of(rebuilt) == 0

    @pytest.mark.parametrize("shards", [0, 1, 2, 4])
    def test_shards_override_reshards_losslessly(self, shards):
        single = _fill(ConceptIndex())
        rebuilt = index_from_state(index_to_state(single), shards=shards)
        assert shard_count_of(rebuilt) == shards
        assert rebuilt.document_ids == single.document_ids
        for doc_id in single.document_ids:
            assert rebuilt.keys_of(doc_id) == single.keys_of(doc_id)
        key = concept_key("topic", "billing")
        assert rebuilt.documents_with(key) == single.documents_with(key)

    def test_override_can_flatten_a_sharded_snapshot(self):
        sharded = _fill(ShardedConceptIndex(4))
        rebuilt = index_from_state(index_to_state(sharded), shards=0)
        assert isinstance(rebuilt, ConceptIndex)
        assert rebuilt.document_ids == sharded.document_ids


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


def _build(shards, checkpoint_path=None):
    """A fresh consumer with the requested index layout."""
    return StreamConsumer(
        MemorySource(_make_pairs()),
        [ConceptIndexStage(on_duplicate="replace", shards=shards)],
        window=WindowedAnalytics(
            3,
            assoc_specs=[AssocSpec(("field", "city"), ("field", "car"))],
        ),
        checkpointer=(
            Checkpointer(checkpoint_path) if checkpoint_path else None
        ),
        batch_docs=7,
        checkpoint_interval=2,
    )


def _crashing(event, crash_at):
    """Arm a fatal fault at the consumer's ``event`` commit boundary.

    It fires on the ``crash_at``-th hit and on every later one.
    """
    plan = FaultPlan(
        seed=0,
        specs=[
            FaultSpec(
                point=f"stream.{event}", kind="fatal", after=crash_at - 1
            )
        ],
    )
    return injecting(plan.injector())


class TestShardedConsumer:
    def test_sharded_run_checkpoints_its_layout(self, tmp_path):
        consumer = _build(3, tmp_path / "ck.json")
        consumer.run()
        saved = Checkpointer(tmp_path / "ck.json").load()
        assert saved["version"] == CHECKPOINT_VERSION
        assert saved["index"]["layout"]["shards"] == 3

    def test_crash_resume_bit_identical_with_shards(self, tmp_path):
        reference = _build(3)
        reference.run()

        crashed = _build(3, tmp_path / "ck.json")
        with _crashing("batch-committed", 3), pytest.raises(InjectedFault):
            crashed.run()
        resumed = _build(3, tmp_path / "ck.json")
        assert resumed.restore()
        resumed.run()

        assert index_to_state(resumed.index) == index_to_state(
            reference.index
        )
        assert resumed.window.to_state() == reference.window.to_state()
        assert resumed.committed_offset == reference.committed_offset

    def test_window_snapshots_identical_across_layouts(self):
        single = _build(0)
        single.run()
        sharded = _build(4)
        sharded.run()
        assert sharded.window.to_state() == single.window.to_state()
        table = sharded.window.assoc_snapshot(0)
        expected = single.window.assoc_snapshot(0)
        assert table.cells() == expected.cells()

    def test_pre_sharding_checkpoint_restores_into_shards(
        self, tmp_path
    ):
        # A checkpoint written by a single-index consumer restores
        # into a consumer upgraded to shards: the configured stage
        # layout is authoritative.
        path = tmp_path / "ck.json"
        old = _build(0, path)
        old.run()
        payload = json.loads(path.read_text())
        assert "layout" not in payload["index"]

        upgraded = _build(3, path)
        assert upgraded.restore()
        assert isinstance(upgraded.index, ShardedConceptIndex)
        assert upgraded.index.n_shards == 3
        upgraded.run()

        reference = _build(3)
        reference.run()
        state = index_to_state(upgraded.index)
        assert state == index_to_state(reference.index)
        assert state["layout"]["shards"] == 3
        assert upgraded.window.to_state() == reference.window.to_state()

    def test_sharded_checkpoint_restores_into_single(self, tmp_path):
        # And the downgrade direction: a sharded snapshot flattens
        # into a single-index consumer.
        path = tmp_path / "ck.json"
        _build(4, path).run()
        downgraded = _build(0, path)
        assert downgraded.restore()
        assert isinstance(downgraded.index, ConceptIndex)
        downgraded.run()
        reference = _build(0)
        reference.run()
        assert index_to_state(downgraded.index) == index_to_state(
            reference.index
        )
