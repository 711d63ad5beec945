"""Tests for the PipelineRunner: batching, funnel accounting,
instrumentation, and the parallel-determinism guarantee."""

import pytest

from repro.engine import (
    Document,
    FunctionStage,
    MapStage,
    PipelineRunner,
    Stage,
)
from repro.exec import ProcessBackend


class AddOne(MapStage):
    """value <- value + 1 (pure, per-document)."""

    name = "add-one"

    def process_document(self, document):
        """Increment the running value artifact."""
        document.put("value", document.get("value", document.doc_id) + 1)


class DropOdd(MapStage):
    """Discard documents with odd ids."""

    name = "drop-odd"

    def process_document(self, document):
        """Discard odd doc ids with a recorded reason."""
        if document.doc_id % 2:
            document.discard(self.stage_name, "odd")


class BatchSpy(Stage):
    """Records the batch sizes it was handed."""

    name = "spy"
    pure = False

    def __init__(self):
        self.sizes = []

    def process(self, batch):
        """Record and pass through."""
        self.sizes.append(len(batch))
        return batch


def _docs(n):
    return [Document(doc_id=i) for i in range(n)]


def _square(document):
    """Module-level, so a stage built on it pickles into workers."""
    document.put("square", document.get("value") ** 2)


class TestRunBasics:
    def test_documents_flow_in_order(self):
        result = PipelineRunner([AddOne()]).run(_docs(5))
        assert [d.doc_id for d in result.documents] == list(range(5))
        assert result.artifact_column("value") == [1, 2, 3, 4, 5]

    def test_empty_corpus(self):
        result = PipelineRunner([AddOne()]).run([])
        assert result.documents == []
        assert result.report.total_in == 0
        assert result.report.total_out == 0

    def test_provenance_appended_per_stage(self):
        result = PipelineRunner([AddOne(), DropOdd()]).run(_docs(2))
        assert result.documents[0].provenance == ("add-one", "drop-odd")
        assert result.discarded[0].provenance == ("add-one", "drop-odd")

    def test_stage_names_must_be_unique(self):
        with pytest.raises(ValueError):
            PipelineRunner([AddOne(), AddOne()])

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            PipelineRunner([AddOne()], batch_size=0)


class TestBatching:
    def test_batches_bounded_by_batch_size(self):
        spy = BatchSpy()
        PipelineRunner([spy], batch_size=4).run(_docs(10))
        assert spy.sizes == [4, 4, 2]

    def test_discards_shrink_downstream_batches(self):
        spy = BatchSpy()
        PipelineRunner([DropOdd(), spy], batch_size=100).run(_docs(10))
        assert spy.sizes == [5]

    def test_stage_must_return_full_batch(self):
        class Truncates(Stage):
            """Illegally drops documents instead of flagging them."""

            name = "bad"

            def process(self, batch):
                """Return a shorter batch."""
                return batch[:-1]

        with pytest.raises(ValueError, match="same length"):
            PipelineRunner([Truncates()]).run(_docs(3))


class TestFunnelAccounting:
    def test_per_stage_counters(self):
        result = PipelineRunner(
            [AddOne(), DropOdd(), FunctionStage("sink", lambda d: None)],
            batch_size=3,
        ).run(_docs(10))
        report = result.report
        assert report.total_in == 10
        assert report.total_out == 5
        add = report.stage("add-one")
        assert (add.docs_in, add.docs_out, add.discarded) == (10, 10, 0)
        drop = report.stage("drop-odd")
        assert (drop.docs_in, drop.docs_out, drop.discarded) == (10, 5, 5)
        sink = report.stage("sink")
        assert (sink.docs_in, sink.docs_out) == (5, 5)

    def test_discarded_documents_carry_stage_and_reason(self):
        result = PipelineRunner([DropOdd()]).run(_docs(4))
        assert [d.doc_id for d in result.discarded] == [1, 3]
        assert all(d.discard_stage == "drop-odd" for d in result.discarded)
        assert all(d.discard_reason == "odd" for d in result.discarded)

    def test_unknown_stage_lookup_raises(self):
        report = PipelineRunner([AddOne()]).run(_docs(1)).report
        with pytest.raises(KeyError):
            report.stage("ghost")


class TestInstrumentation:
    def test_injected_clock_drives_wall_time(self):
        ticks = iter(range(100))
        runner = PipelineRunner(
            [AddOne()], clock=lambda: float(next(ticks))
        )
        report = runner.run(_docs(3)).report
        # One tick before / after the stage and around the run.
        assert report.stage("add-one").wall_time == pytest.approx(1.0)
        assert report.wall_time == pytest.approx(3.0)

    def test_report_serialises_to_plain_dicts(self):
        import json

        report = PipelineRunner([DropOdd()], batch_size=2).run(
            _docs(5)
        ).report
        payload = report.to_json_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["total_in"] == 5
        assert payload["stages"][0]["stage"] == "drop-odd"
        assert payload["stages"][0]["discarded"] == 2
        assert payload["stages"][0]["batches"] == 3

    def test_render_text_mentions_every_stage(self):
        report = PipelineRunner([AddOne(), DropOdd()]).run(
            _docs(4)
        ).report
        text = report.render_text()
        assert "add-one" in text
        assert "drop-odd" in text
        assert "total" in text


class TestParallelDeterminism:
    def _run(self, workers, n=37, batch_size=4):
        stages = [
            AddOne(),
            FunctionStage("square", _square, pure=True),
            DropOdd(),
        ]
        if workers == 0:
            return PipelineRunner(stages, batch_size=batch_size).run(
                _docs(n)
            )
        with ProcessBackend(workers) as backend:
            return PipelineRunner(
                stages, batch_size=batch_size, backend=backend
            ).run(_docs(n))

    def test_parallel_output_bit_identical_to_serial(self):
        serial = self._run(workers=0)
        parallel = self._run(workers=4)
        assert serial.documents == parallel.documents
        assert serial.discarded == parallel.discarded

    def test_parallel_marks_pure_stages_only(self):
        impure_spy = BatchSpy()
        stages = [AddOne(), impure_spy]
        with ProcessBackend(4) as backend:
            report = PipelineRunner(
                stages, batch_size=2, backend=backend
            ).run(_docs(8)).report
        assert report.stage("add-one").parallel
        assert not report.stage("spy").parallel

    def test_single_batch_stays_serial(self):
        with ProcessBackend(4) as backend:
            report = PipelineRunner(
                [AddOne()], batch_size=100, backend=backend
            ).run(_docs(8)).report
        assert not report.stage("add-one").parallel
