"""Observability is write-only: traced runs == untraced runs.

The acceptance bar for the obs layer — activating a tracer and a
metrics registry around the engine, the stream consumer, the linking
hot paths, the annotation engine (the call-center study), the
association finalize or the cleaning pipeline must not change a single
output bit.  Also pins the span hierarchy
(pipeline:run -> stage -> batch, stream:batch above them; batches that
ran in worker processes leave no span) and the zero-row funnel
guarantee for fully-discarded / fully-skipped micro-batches.
"""

import itertools
import random
from dataclasses import asdict

import pytest

from repro.annotation import build_car_rental_engine
from repro.annotation.matcher import AnnotationEngine
from repro.annotation.patterns import PatternSet
from repro.cleaning import CleaningPipeline
from repro.core import BIVoCConfig, run_insight_analysis
from repro.core.usecases.churn import run_churn_study
from repro.engine import Document, FunctionStage, MapStage, PipelineRunner
from repro.exec import make_backend
from repro.faults import FaultPlan, FaultSpec, InjectedFault, injecting
from repro.linking.fagin import fagin_merge
from repro.linking.single import EntityLinker
from repro.mining.assoc2d import associate
from repro.mining.index import field_key
from repro.mining.stage import ConceptIndexStage
from repro.obs import MetricsRegistry, Tracer, activated
from repro.store.schema import Schema
from repro.stream import checkpoint as checkpoint_module
from repro.stream import (
    AssocSpec,
    Checkpointer,
    MemorySource,
    RelFreqSpec,
    StreamConsumer,
    WindowedAnalytics,
    index_to_state,
)
from tests.annotation.test_compiled_patterns import (
    annotated_texts,
    callcenter_corpus,
)
from tests.cleaning.corpus import (
    counting_evaluations,
    counting_searches,
    telecom_corpus,
)
from tests.linking.test_similarity_kernels import churn_corpus
from tests.stream.reference import window_snapshots


class AddOne(MapStage):
    """value <- doc_id + 1 (pure, per-document)."""

    name = "add-one"

    def process_document(self, document):
        """Record a derived artifact."""
        document.put("value", document.doc_id + 1)


class DropOdd(MapStage):
    """Discard documents with odd ids."""

    name = "drop-odd"

    def process_document(self, document):
        """Discard odd doc ids with a recorded reason."""
        if document.doc_id % 2:
            document.discard(self.stage_name, "odd")


def _docs(n):
    return [Document(doc_id=i) for i in range(n)]


def _spans_by_name(tracer):
    by_name = {}
    for span in tracer.finished():
        by_name.setdefault(span.name, []).append(span)
    return by_name


class TestEngineEquivalence:
    @pytest.mark.parametrize("workers", [0, 4])
    def test_traced_outputs_bit_identical(self, workers):
        def build(backend):
            return PipelineRunner(
                [AddOne(), DropOdd()], batch_size=4, backend=backend
            )

        with make_backend("process", workers) as backend:
            untraced = build(backend).run(_docs(23))
            with activated(Tracer(), MetricsRegistry()):
                traced = build(backend).run(_docs(23))
        assert traced.documents == untraced.documents
        assert traced.discarded == untraced.discarded
        # Reports agree on everything except instrumentation extras.
        for mine, theirs in zip(
            traced.report.stages, untraced.report.stages
        ):
            assert mine.name == theirs.name
            assert mine.docs_in == theirs.docs_in
            assert mine.docs_out == theirs.docs_out
            assert mine.discarded == theirs.discarded
            assert mine.batches == theirs.batches
        assert untraced.report.metrics is None
        assert traced.report.metrics["counters"]["engine.runs"] == 1

    @pytest.mark.parametrize("workers", [0, 4])
    def test_stage_batch_nesting(self, workers):
        tracer = Tracer()
        with activated(tracer, MetricsRegistry()), \
                make_backend("process", workers) as backend:
            PipelineRunner(
                [AddOne(), DropOdd()], batch_size=4, backend=backend
            ).run(_docs(10))
        by_name = _spans_by_name(tracer)
        (run,) = by_name["pipeline:run"]
        assert run.parent_id is None
        stages = by_name["stage:add-one"] + by_name["stage:drop-odd"]
        assert all(s.parent_id == run.span_id for s in stages)
        if workers > 1:
            # Batches ran in worker processes, out of the tracer's
            # reach: the stage spans say so and no batch span exists.
            assert all(s.tags["parallel"] for s in stages)
            assert all(s.tags["backend"] == "process" for s in stages)
            assert "batch" not in by_name
        else:
            stage_ids = {s.span_id for s in stages}
            batches = by_name["batch"]
            assert len(batches) == 6  # 3 batches per stage
            assert all(b.parent_id in stage_ids for b in batches)

    def test_hot_path_nests_under_ambient_span(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        lists = [
            [("a", 0.9), ("b", 0.5)],
            [("b", 0.8), ("a", 0.4)],
        ]
        untraced = fagin_merge(lists, k=1)
        with activated(tracer, metrics):
            with tracer.span("stage:record-link") as stage:
                traced = fagin_merge(lists, k=1)
        assert traced == untraced
        (merge,) = _spans_by_name(tracer)["fagin:fa"]
        assert merge.parent_id == stage.span_id
        assert merge.tags["lists"] == 2
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["linking.fagin.fa.merges"] == 1


# ----------------------------------------------------------------------
# stream: traced crash/resume == untraced uninterrupted
# ----------------------------------------------------------------------

CITIES = ["seattle", "boston", "denver"]
CARS = ["suv", "compact", "luxury"]


def _make_pairs(n=40, seed=5):
    """Deterministic (timestamp, document) arrivals; fresh each call."""
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        fields = {"city": rng.choice(CITIES), "car": rng.choice(CARS)}
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


def _build(checkpoint_path=None, checkpointer=None, clock=None):
    """A fresh consumer over a freshly generated stream."""
    if checkpoint_path:
        checkpointer = Checkpointer(checkpoint_path)
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
        checkpointer=checkpointer,
        batch_docs=7,
        checkpoint_interval=2,
        clock=clock,
    )


class _FileRecorder(Checkpointer):
    """Records each saved file and how many documents it listed."""

    def __init__(self, path):
        """Checkpoint to ``path``, recording into :attr:`saved`."""
        super().__init__(path)
        self.saved = []

    def save(self, state):
        """Save, then keep the document count and the file's bytes."""
        super().save(state)
        with open(self.path, "rb") as handle:
            data = handle.read()
        self.saved.append((len(state["index"]["documents"]), data))
        return self


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


class TestStreamEquivalence:
    @pytest.mark.parametrize("crash_at", [1, 3, 5])
    def test_traced_crash_resume_matches_untraced_uninterrupted(
        self, tmp_path, crash_at
    ):
        """The property the checkpoint format must preserve: tracing a
        crashed-and-resumed consumer leaves its final state identical
        to an untraced consumer that never crashed."""
        reference = _build()
        reference.run()

        tracer = Tracer()
        with activated(tracer, MetricsRegistry()):
            crashed = _build(tmp_path / "ck.json")
            with _crashing("batch-committed", crash_at), pytest.raises(
                InjectedFault
            ):
                crashed.run()
            resumed = _build(tmp_path / "ck.json")
            resumed.restore()
            resumed.run()
        _assert_same_final_state(resumed, reference)
        by_name = _spans_by_name(tracer)
        assert len(by_name["stream:batch"]) >= crash_at
        assert "stream:checkpoint" in by_name
        if crash_at > 2:  # a checkpoint landed before the crash
            assert "stream:restore" in by_name
        # Every stream:batch span contains a nested pipeline run.
        batch_ids = {s.span_id for s in by_name["stream:batch"]}
        runs = by_name["pipeline:run"]
        assert all(r.parent_id in batch_ids for r in runs)

    def test_traced_checkpoints_match_untraced(self, tmp_path):
        """The checkpoint counters are write-only: every file stays ``==``.

        On a fixed clock each traced checkpoint file is byte-identical
        to the untraced one, and the counters equal what the patched
        fragment encoder saw: one encoding per document first listed,
        every later listing reused.
        """
        def run(name, restore_at):
            checkpointer = _FileRecorder(tmp_path / name)
            consumer = _build(
                checkpointer=checkpointer,
                clock=itertools.count(0, 0.25).__next__,
            )
            consumer.run(max_batches=restore_at, checkpoint_at_end=False)
            assert consumer.restore()
            consumer.run()
            return checkpointer.saved

        encoded = []
        encode = checkpoint_module.canonical_json
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                checkpoint_module, "canonical_json",
                lambda value: encoded.append(value) or encode(value),
            )
            untraced = run("untraced.ck.json", 3)
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            traced = run("traced.ck.json", 3)
        assert traced == untraced
        counters = metrics.snapshot()["counters"]
        listed = sum(count for count, _ in untraced)
        assert counters["stream.checkpoint.documents.encoded"] == len(encoded)
        assert counters["stream.checkpoint.documents.reused"] == (
            listed - len(encoded)
        ) > 0
        # The restored index's documents are new entries: encoded again.
        assert len(encoded) > untraced[-1][0]

    def test_traced_uninterrupted_matches_untraced(self, tmp_path):
        reference = _build()
        reference.run()
        with activated(Tracer(), MetricsRegistry()):
            traced = _build(tmp_path / "ck.json")
            traced.run()
        _assert_same_final_state(traced, reference)
        # The checkpoint file itself is identical modulo wall time,
        # which lives only inside the report block.
        state = Checkpointer(tmp_path / "ck.json").load()
        assert state["offset"] == reference.committed_offset
        assert state["index"] == index_to_state(reference.index)
        assert state["window"] == reference.window.to_state()
        assert window_snapshots(traced.window) == window_snapshots(
            reference.window
        )


class TestMiningEquivalence:
    def test_traced_associate_matches_untraced(self):
        """The interval counter is write-only: tables stay ``==``."""
        consumer = _build()
        consumer.run()
        dimensions = (("field", "city"), ("field", "car"))
        untraced = associate(consumer.index, *dimensions)
        untraced_window = consumer.window.assoc_snapshot(0)
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            traced = associate(consumer.index, *dimensions)
            traced_window = consumer.window.assoc_snapshot(0)
        assert traced == untraced
        assert traced_window == untraced_window
        # One increment per finalize, by cells + rows + cols.
        expected = sum(
            (len(table.row_values) + 1) * (len(table.col_values) + 1) - 1
            for table in (traced, traced_window)
        )
        counters = metrics.snapshot()["counters"]
        assert counters["mining.associate.intervals"] == expected
        assert counters["mining.analytics"] == 2


class TestCleaningEquivalence:
    def test_traced_cleaning_matches_untraced(self):
        """The spelling counters are write-only: cleaning stays ``==``."""
        messages = telecom_corpus(2).messages

        def clean():
            pipeline = CleaningPipeline()
            return [
                pipeline.clean(message.raw_text, channel=message.channel)
                for message in messages
            ], pipeline.stats

        with pytest.MonkeyPatch.context() as patch:
            searches = counting_searches(patch)
            evaluations = counting_evaluations(patch)
            untraced = clean()
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            traced = clean()
        assert traced == untraced
        # One search per distinct lowered word, one evaluation per
        # pooled candidate, counted as the patched kernels saw them.
        assert len(searches) == len(set(searches)) > 0
        counters = metrics.snapshot()["counters"]
        assert counters["cleaning.spelling.searches"] == len(searches)
        assert counters["cleaning.spelling.evaluations"] == len(evaluations)


class TestLinkingEquivalence:
    def test_traced_churn_study_matches_untraced(self):
        """The ranked-list counters are write-only: the study stays ``==``.

        Each counter equals what patched kernels saw in the untraced
        run: one scored list per candidate search, one entry per
        candidate scored, and every other list requested reused.
        """
        corpus = churn_corpus(1)

        def outputs(result):
            return (
                result.total_messages, result.linked_messages,
                result.unlinked_fraction, result.train_messages,
                result.train_churner_fraction, result.detection_rate,
                asdict(result.cleaning_stats),
                asdict(result.message_report),
                result.flagged_customers, result.test_churners,
            )

        searched, requested = [], []
        with pytest.MonkeyPatch.context() as patch:
            candidates_for = EntityLinker._candidates_for
            attributes_of_type = Schema.attributes_of_type

            def counting_candidates(self, *args):
                found = candidates_for(self, *args)
                searched.append(len(found))
                return found

            def counting_attributes(self, *args):
                found = attributes_of_type(self, *args)
                requested.append(len(found))
                return found

            patch.setattr(EntityLinker, "_candidates_for", counting_candidates)
            patch.setattr(Schema, "attributes_of_type", counting_attributes)
            untraced = outputs(run_churn_study(corpus, channel="email"))
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            traced = outputs(run_churn_study(corpus, channel="email"))
        assert traced == untraced
        counters = metrics.snapshot()["counters"]
        assert counters["linking.lists.scored"] == len(searched) > 0
        assert counters["linking.lists.entries"] == sum(searched)
        assert counters["linking.lists.reused"] == (
            sum(requested) - len(searched)
        ) > 0


#: Pattern-pass windows tried over the seed-1 call-center corpus's full,
#: agent and opening texts (96 calls, 288 texts).
SEED1_THREE_TEXT_ATTEMPTS = 1_866


def counting_annotation(patch):
    """Patch the engine and pattern set; returns (annotated, attempts)."""
    annotated, attempts = [], []
    annotate, attempt = AnnotationEngine.annotate, PatternSet._attempt

    def counting_annotate(self, text, *args, **kwargs):
        annotated.append(text)
        return annotate(self, text, *args, **kwargs)

    def counting_attempt(self, *args):
        attempts.append(args[:2])
        return attempt(self, *args)

    patch.setattr(AnnotationEngine, "annotate", counting_annotate)
    patch.setattr(PatternSet, "_attempt", counting_attempt)
    return annotated, attempts


class TestAnnotationEquivalence:
    def test_traced_callcenter_study_matches_untraced(self):
        """The annotation counters are write-only: the study stays ``==``.

        ``annotation.documents`` counts the patched engine's
        ``annotate`` calls and ``annotation.patterns.attempts`` the
        patched pattern set's ``_attempt`` calls, in the untraced run.
        """
        corpus = callcenter_corpus(1)
        config = BIVoCConfig(use_asr=False, link_mode="content")

        def outputs(study):
            analysis = study.analysis
            return (
                analysis.calls, index_to_state(analysis.index),
                analysis.link_attempts, analysis.link_successes,
                analysis.stats, study.intent_table,
                study.utterance_tables, study.location_vehicle_table,
            )

        with pytest.MonkeyPatch.context() as patch:
            annotated, attempts = counting_annotation(patch)
            untraced = outputs(run_insight_analysis(corpus, config))
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            traced = outputs(run_insight_analysis(corpus, config))
        assert traced == untraced
        counters = metrics.snapshot()["counters"]
        assert counters["annotation.documents"] == len(annotated) == 96
        assert counters["annotation.patterns.attempts"] == len(attempts) > 0

    def test_three_text_set_attempts(self):
        """Each call's full, agent and opening text: 1,866 attempts."""
        texts = annotated_texts(callcenter_corpus(1))
        engine = build_car_rental_engine()
        with pytest.MonkeyPatch.context() as patch:
            annotated, attempts = counting_annotation(patch)
            untraced = [engine.annotate(text) for text in texts]
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            traced = [engine.annotate(text) for text in texts]
        assert traced == untraced
        counters = metrics.snapshot()["counters"]
        assert counters["annotation.documents"] == len(annotated) == 288
        assert counters["annotation.patterns.attempts"] == len(attempts)
        assert len(attempts) == SEED1_THREE_TEXT_ATTEMPTS


class TestZeroRowFunnel:
    def test_fully_discarding_run_keeps_downstream_stage_rows(self):
        """A batch in which every document is discarded must still
        produce a row for every stage (zero out-count, not absence)."""

        class DropAll(MapStage):
            """Discards everything."""

            name = "drop-all"

            def process_document(self, document):
                """Discard unconditionally."""
                document.discard(self.stage_name, "all")

        report = PipelineRunner(
            [DropAll(), AddOne()], batch_size=4
        ).run(_docs(9)).report
        drop = report.stage("drop-all")
        assert (drop.docs_in, drop.docs_out, drop.discarded) == (9, 0, 9)
        downstream = report.stage("add-one")
        assert (downstream.docs_in, downstream.docs_out) == (0, 0)
        assert report.total_out == 0

    def test_fully_skipped_micro_batch_still_emits_stage_rows(
        self, tmp_path
    ):
        """Re-delivering only already-committed offsets must produce
        zero-count stage rows, not an empty stage report (regression:
        the consumer used to skip the stage graph for such batches)."""
        consumer = _build(tmp_path / "ck.json")
        consumer.run()

        resumed = _build(tmp_path / "ck.json")
        assert resumed.restore()
        resumed.source.seek(0)
        assert resumed.step()  # a micro-batch of pure re-deliveries
        report = resumed.stage_report()
        assert [s.name for s in report.stages] == ["filter", "index"]
        for stats in report.stages:
            assert (stats.docs_in, stats.docs_out) == (0, 0)
        assert resumed.report.skipped > 0
