"""StreamConsumer: delivery semantics, backpressure, crash/resume.

The crash/resume test is the subsystem's acceptance bar: killing the
consumer at *any* batch boundary (including immediately after a
checkpoint write) and resuming from the last checkpoint must yield a
main index, window state and funnel counters bit-identical to an
uninterrupted run.  Every consumer under test is built from scratch —
fresh documents from a locally seeded RNG, fresh stages, fresh window —
so state can only flow through the stream and the checkpoint file.
"""

import random

import pytest

from repro.engine import Document, FunctionStage
from repro.faults import FaultPlan, FaultSpec, InjectedFault, injecting
from repro.mining.index import field_key
from repro.mining.stage import ConceptIndexStage
from repro.stream import (
    AssocSpec,
    Checkpointer,
    MemorySource,
    RelFreqSpec,
    StreamConsumer,
    WindowedAnalytics,
    index_to_state,
)
from tests.stream.reference import window_snapshots

CITIES = ["seattle", "boston", "denver"]
CARS = ["suv", "compact", "luxury"]

N_DOCS = 61  # not a multiple of batch_docs: exercises a ragged tail
BATCH_DOCS = 7
CHECKPOINT_INTERVAL = 2


def _make_pairs(n=N_DOCS, seed=5):
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


def _filter(document):
    """Drop a deterministic subset to exercise funnel accounting."""
    if document.doc_id % 13 == 9:
        document.discard("filter", "synthetic noise")


def _build(checkpoint_path=None):
    """A fresh consumer over a freshly generated stream."""
    return StreamConsumer(
        MemorySource(_make_pairs()),
        [
            FunctionStage("filter", _filter, pure=True),
            ConceptIndexStage(on_duplicate="replace"),
        ],
        window=WindowedAnalytics(
            3,
            assoc_specs=[AssocSpec(("field", "city"), ("field", "car"))],
            relfreq_specs=[
                RelFreqSpec((field_key("car", "suv"),), ("field", "city"))
            ],
        ),
        checkpointer=(
            Checkpointer(checkpoint_path) if checkpoint_path else None
        ),
        batch_docs=BATCH_DOCS,
        checkpoint_interval=CHECKPOINT_INTERVAL,
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


def _assert_same_final_state(resumed, reference):
    """Bit-identical index, window and funnel counters."""
    assert index_to_state(resumed.index) == index_to_state(
        reference.index
    )
    assert resumed.window.to_state() == reference.window.to_state()
    assert window_snapshots(resumed.window) == window_snapshots(
        reference.window
    )
    assert resumed.committed_offset == reference.committed_offset
    assert resumed.report.processed == reference.report.processed
    assert resumed.report.discarded == reference.report.discarded
    assert resumed.report.upserts == reference.report.upserts
    assert resumed.report.batches == reference.report.batches
    table = resumed.window.assoc_snapshot(0)
    expected = reference.window.assoc_snapshot(0)
    assert table.cells() == expected.cells()


class TestCrashResume:
    @pytest.mark.parametrize("crash_at", [1, 2, 4, 7, 9])
    def test_crash_after_commit_resumes_bit_identical(
        self, tmp_path, crash_at
    ):
        reference = _build()
        reference.run()

        crashed = _build(tmp_path / "ck.json")
        with _crashing("batch-committed", crash_at), pytest.raises(
            InjectedFault
        ):
            crashed.run()

        resumed = _build(tmp_path / "ck.json")
        restored = resumed.restore()
        # The failpoint fires after the commit but before the interval
        # checkpoint, so the first checkpoint lands only once a batch
        # *beyond* the interval has committed; before that the consumer
        # must simply start over.
        assert restored == (crash_at > CHECKPOINT_INTERVAL)
        assert resumed.report.restored == restored
        resumed.run()
        _assert_same_final_state(resumed, reference)

    @pytest.mark.parametrize("crash_at", [1, 3])
    def test_crash_right_after_checkpoint_write(self, tmp_path, crash_at):
        """Dying with the checkpoint freshly on disk must not
        double-count the batches it covers."""
        reference = _build()
        reference.run()

        crashed = _build(tmp_path / "ck.json")
        with _crashing("checkpoint-written", crash_at), pytest.raises(
            InjectedFault
        ):
            crashed.run()

        resumed = _build(tmp_path / "ck.json")
        assert resumed.restore()
        resumed.run()
        _assert_same_final_state(resumed, reference)

    def test_double_crash_then_resume(self, tmp_path):
        """A resumed consumer can itself crash and be resumed again."""
        reference = _build()
        reference.run()

        first = _build(tmp_path / "ck.json")
        with _crashing("batch-committed", 5), pytest.raises(InjectedFault):
            first.run()

        second = _build(tmp_path / "ck.json")
        assert second.restore()
        with _crashing("batch-committed", 2), pytest.raises(InjectedFault):
            second.run()

        third = _build(tmp_path / "ck.json")
        assert third.restore()
        third.run()
        _assert_same_final_state(third, reference)


class TestDeliverySemantics:
    def test_seek_back_redelivery_is_skipped(self):
        reference = _build()
        reference.run()

        consumer = _build()
        consumer.run(max_batches=3, checkpoint_at_end=False)
        # The source replays everything from the start (at-least-once
        # delivery): already-committed offsets must be skipped, not
        # re-counted.
        consumer.source.seek(0)
        consumer.run()
        assert consumer.report.skipped > 0
        assert consumer.report.processed == reference.report.processed
        assert index_to_state(consumer.index) == index_to_state(
            reference.index
        )
        assert consumer.window.to_state() == reference.window.to_state()
        assert window_snapshots(consumer.window) == window_snapshots(
            reference.window
        )

    def test_duplicate_doc_id_at_fresh_offset_upserts(self):
        source = MemorySource()
        source.append(
            Document(doc_id=0, channel="test", text="v1",
                     artifacts={"index_fields": {"city": "boston"}}),
            timestamp=0,
        )
        source.append(
            Document(doc_id=0, channel="test", text="v2",
                     artifacts={"index_fields": {"city": "denver"}}),
            timestamp=1,
        )
        consumer = StreamConsumer(
            source,
            [ConceptIndexStage(on_duplicate="replace")],
            window=WindowedAnalytics(4),
            batch_docs=1,
        )
        consumer.run()
        assert consumer.report.upserts == 1
        assert len(consumer.index) == 1
        assert consumer.index.values_of_dimension(("field", "city")) == [
            "denver"
        ]
        assert len(consumer.window) == 1

    def test_record_timestamp_becomes_document_timestamp(self):
        source = MemorySource()
        source.append(
            Document(doc_id=0, channel="test", text="x",
                     artifacts={"index_fields": {"city": "boston"}}),
            timestamp=42,
        )
        consumer = StreamConsumer(
            source, [ConceptIndexStage(on_duplicate="replace")],
            batch_docs=1,
        )
        consumer.run()
        assert consumer.index.timestamp_of(0) == 42

    def test_live_appends_between_runs(self):
        source = MemorySource(_make_pairs(10))
        consumer = StreamConsumer(
            source,
            [
                FunctionStage("filter", _filter, pure=True),
                ConceptIndexStage(on_duplicate="replace"),
            ],
            batch_docs=4,
        )
        consumer.run()
        assert consumer.report.processed + consumer.report.discarded == 10
        source.append(
            Document(doc_id=101, channel="test", text="late",
                     artifacts={"index_fields": {"city": "miami"}}),
            timestamp=9,
        )
        assert consumer.step()
        assert 101 in consumer.index


class TestBackpressure:
    def test_prefetch_never_exceeds_queue_capacity(self):
        consumer = _build()
        capacity = consumer.queue_capacity * consumer.batch_docs
        while consumer.step():
            outstanding = (
                consumer.source.position
                - (consumer.committed_offset + 1)
            )
            assert 0 <= outstanding <= capacity


class TestConstruction:
    def test_requires_an_index_stage(self):
        with pytest.raises(ValueError, match="no ConceptIndexStage"):
            StreamConsumer(
                MemorySource(),
                [FunctionStage("filter", _filter, pure=True)],
            )

    def test_rejects_raising_index_stage(self):
        with pytest.raises(ValueError, match="at-least-once"):
            StreamConsumer(
                MemorySource(), [ConceptIndexStage(on_duplicate="raise")]
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_docs": 0},
            {"queue_capacity": 0},
            {"checkpoint_interval": 0},
        ],
    )
    def test_rejects_degenerate_tuning(self, kwargs):
        with pytest.raises(ValueError):
            StreamConsumer(
                MemorySource(),
                [ConceptIndexStage(on_duplicate="replace")],
                **kwargs,
            )

    def test_checkpoint_requires_checkpointer(self):
        consumer = StreamConsumer(
            MemorySource(), [ConceptIndexStage(on_duplicate="replace")]
        )
        with pytest.raises(RuntimeError, match="no checkpointer"):
            consumer.checkpoint()
        with pytest.raises(RuntimeError, match="no checkpointer"):
            consumer.restore()

    def test_restore_without_checkpoint_file(self, tmp_path):
        consumer = _build(tmp_path / "never-written.json")
        assert consumer.restore() is False
        assert consumer.report.restored is False

    def test_restore_rejects_windowless_checkpoint(self, tmp_path):
        plain = StreamConsumer(
            MemorySource(_make_pairs(10)),
            [ConceptIndexStage(on_duplicate="replace")],
            checkpointer=Checkpointer(tmp_path / "ck.json"),
            batch_docs=4,
        )
        plain.run()
        windowed = _build(tmp_path / "ck.json")
        with pytest.raises(ValueError, match="no window state"):
            windowed.restore()
