"""Tests for the use cases rebuilt on the staged pipeline engine:
per-stage instrumentation, the parallel-determinism guarantee, and the
empty-bodied-email regression.

The use cases run the call-centre graph inline and the churn study at
the runner's default batch size, so the fan-out oracles hand the real
stage graphs to a :class:`PipelineRunner` with small batches and a
process backend themselves, and compare it with the inline run."""

import pytest

from repro.cleaning.pipeline import CleaningPipeline
from repro.cleaning.stage import CleaningStage
from repro.core.config import BIVoCConfig
from repro.core.pipeline import BIVoCSystem, call_documents
from repro.core.usecases.churn import (
    build_churn_stages,
    churn_documents,
    churn_driver_engine,
    link_evidence_text,
    run_churn_study,
)
from repro.engine import PipelineRunner
from repro.exec import ProcessBackend
from repro.mining.stage import ConceptIndexStage
from repro.stream.checkpoint import index_to_state
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.telecom import Message, TelecomConfig, generate_telecom

from tests.core.reference import ReferenceDriverAnnotateStage


@pytest.fixture(scope="module")
def car_corpus():
    return generate_car_rental(
        CarRentalConfig(
            n_agents=10,
            n_days=3,
            calls_per_agent_per_day=4,
            n_customers=100,
            seed=11,
        )
    )


@pytest.fixture(scope="module")
def telecom_corpus():
    return generate_telecom(TelecomConfig(scale=0.03, n_customers=1500))


def _run_call_graph(corpus, config, backend=None):
    """The call-centre stage graph over ``corpus`` in batches of 8:
    ``(result, index_state)``."""
    stages = BIVoCSystem(config).build_call_stages(corpus)
    result = PipelineRunner(stages, batch_size=8, backend=backend).run(
        call_documents(corpus)
    )
    return result, index_to_state(stages[-1].index)


def _assert_fan_out_equals_inline(corpus, config, workers):
    """The graph on a ``workers``-wide pool engages it and is ``==``
    the inline run; returns the parallel stage report."""
    serial, serial_index = _run_call_graph(corpus, config)
    with ProcessBackend(workers) as backend:
        parallel, parallel_index = _run_call_graph(
            corpus, config, backend
        )
    # With >1 batch and pure stages, the executor actually engaged.
    assert any(s.parallel for s in parallel.report.stages)
    assert parallel.documents == serial.documents
    assert parallel.discarded == serial.discarded
    assert parallel_index == serial_index
    return parallel.report


class TestCallCenterStageGraph:
    def test_stage_report_covers_fig3_flow(self, car_corpus):
        system = BIVoCSystem(
            BIVoCConfig(use_asr=False, link_mode="content")
        )
        analysis = system.process_call_center(car_corpus)
        report = analysis.stage_report
        assert [s.name for s in report.stages] == [
            "turn-split",
            "compose",
            "record-link",
            "annotate",
            "derive",
            "index",
        ]
        n = len(car_corpus.transcripts)
        assert report.total_in == n
        assert report.total_out == n
        for stats in report.stages:
            assert stats.docs_in == n
            assert stats.discarded == 0
            assert stats.wall_time >= 0.0

    def test_asr_graph_swaps_ingest_stage(self, car_corpus):
        system = BIVoCSystem(
            BIVoCConfig(use_asr=True, link_mode="metadata")
        )
        analysis = system.process_call_center(car_corpus)
        assert analysis.stage_report.stages[0].name == "transcribe"
        assert not analysis.stage_report.stages[0].parallel

    def test_parallel_identical_to_serial(self, car_corpus):
        _assert_fan_out_equals_inline(
            car_corpus, BIVoCConfig(use_asr=False, link_mode="content"), 4
        )

    def test_parallel_asr_identical_to_serial(self, car_corpus):
        """The impure transcribe stage must stay serial under workers,
        keeping the shared noise channel's draw order — and therefore
        the transcripts — bit-identical."""
        report = _assert_fan_out_equals_inline(
            car_corpus, BIVoCConfig(use_asr=True, link_mode="content"), 3
        )
        assert report.stages[0].name == "transcribe"
        assert not report.stages[0].parallel


class TestChurnStageGraph:
    def test_stage_report_matches_funnel(self, telecom_corpus):
        result = run_churn_study(telecom_corpus, channel="email")
        report = result.stage_report
        assert [s.name for s in report.stages] == [
            "clean",
            "entity-link",
            "label",
            "featurize",
        ]
        clean = report.stage("clean")
        assert clean.docs_in == result.total_messages
        assert clean.discarded == (
            result.cleaning_stats.total - result.cleaning_stats.kept
        )
        # Unlinked messages are kept, not discarded (paper reports the
        # unlinkable fraction): downstream stages see every survivor.
        assert report.stage("entity-link").discarded == 0
        assert report.total_out == clean.docs_out

    def test_parallel_identical_to_serial(self, telecom_corpus):
        def run(backend=None):
            return PipelineRunner(
                build_churn_stages(telecom_corpus),
                batch_size=16,
                backend=backend,
            ).run(churn_documents(telecom_corpus, "sms"))

        serial = run()
        with ProcessBackend(4) as backend:
            parallel = run(backend)
        assert any(s.parallel for s in parallel.report.stages)
        assert parallel.documents == serial.documents
        assert parallel.discarded == serial.discarded


class TestChurnDriverIndex:
    """The study's driver index: the shared annotate stage over
    documents that carry their index row == the retired stage that
    staged the row itself."""

    @pytest.fixture(scope="class")
    def small_corpus(self):
        return generate_telecom(
            TelecomConfig(scale=0.01, n_customers=400, seed=1)
        )

    @pytest.mark.parametrize("channel", ["email", "sms", "both"])
    def test_equals_reference(self, small_corpus, channel):
        result = run_churn_study(
            small_corpus, channel=channel, driver_index=True
        )
        names = [s.name for s in result.stage_report.stages]
        assert names[-2:] == ["annotate", "index"]
        reference_index = ConceptIndexStage()
        PipelineRunner([
            CleaningStage(CleaningPipeline(spell_correct=False)),
            ReferenceDriverAnnotateStage(churn_driver_engine()),
            reference_index,
        ]).run(churn_documents(small_corpus, channel))
        assert len(result.driver_index) > 0
        assert index_to_state(result.driver_index) == index_to_state(
            reference_index.index
        )

    def test_rows_staged_only_for_the_index(self, small_corpus):
        plain = churn_documents(small_corpus, "both")
        rows = churn_documents(small_corpus, "both", driver_index=True)
        assert all(set(d.artifacts) == {"message"} for d in plain)
        for document in rows:
            message = document.artifacts["message"]
            assert document.artifacts == {
                "message": message,
                "index_fields": {"channel": document.channel},
                "timestamp": message.month,
            }


class TestEmptyBodiedEmailRegression:
    """`_prepare_messages` used to crash with IndexError on
    ``raw_text.splitlines()[0]`` for an empty-bodied email."""

    def test_link_evidence_guards_empty_raw_text(self):
        assert link_evidence_text("email", "cleaned", "") == "cleaned"

    def test_link_evidence_keeps_header_line(self):
        evidence = link_evidence_text(
            "email", "body text", "From: jane doe\nbody text"
        )
        assert evidence == "body text From: jane doe"

    def test_non_email_channels_unchanged(self):
        assert link_evidence_text("sms", "short txt", "") == "short txt"

    def test_study_survives_empty_bodied_email(self, telecom_corpus):
        corpus = telecom_corpus
        hollow = Message(
            message_id=10_000_000,
            channel="email",
            month=0,
            raw_text="",
            clean_text="",
            sender_entity_id=None,
            from_churner=False,
        )
        corpus.emails.append(hollow)
        try:
            result = run_churn_study(corpus, channel="email")
        finally:
            corpus.emails.remove(hollow)
        assert result.total_messages >= 1
