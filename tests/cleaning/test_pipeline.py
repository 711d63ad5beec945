"""Integration tests for the assembled cleaning pipeline."""

import hashlib

import pytest

from repro.cleaning.pipeline import CleaningPipeline
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.notes import AgentNoteGenerator
from repro.synth.telecom import TelecomConfig, generate_telecom


@pytest.fixture(scope="module")
def corpus():
    return generate_telecom(TelecomConfig(scale=0.004, n_customers=300))


@pytest.fixture(scope="module")
def pipeline():
    return CleaningPipeline()


class TestCleaningPipeline:
    def test_spam_discarded_with_reason(self, corpus, pipeline):
        spam = [m for m in corpus.emails if m.is_spam][:10]
        for message in spam:
            result = pipeline.clean(message.raw_text, channel="email")
            assert result.discarded
            assert result.reason == "spam"

    def test_non_english_sms_discarded(self, corpus, pipeline):
        foreign = [m for m in corpus.sms if m.is_non_english][:10]
        for message in foreign:
            result = pipeline.clean(message.raw_text, channel="sms")
            assert result.discarded
            assert result.reason == "non-english"

    def test_customer_email_cleaned_not_discarded(self, corpus, pipeline):
        linked = [
            m for m in corpus.emails if m.sender_entity_id is not None
        ][:20]
        kept = [
            pipeline.clean(m.raw_text, channel="email") for m in linked
        ]
        assert sum(1 for r in kept if not r.discarded) >= 18

    def test_agent_voice_absent_from_cleaned_email(self, corpus, pipeline):
        linked = next(
            m
            for m in corpus.emails
            if m.sender_entity_id is not None
            and "wrote:" in m.raw_text
        )
        result = pipeline.clean(linked.raw_text, channel="email")
        assert "look into your issue" not in result.text

    def test_sms_lingo_normalised(self, pipeline):
        result = pipeline.clean("pls confrm my bal", channel="sms")
        assert not result.discarded
        assert "please" in result.text
        assert "confirm" in result.text

    def test_unknown_channel_rejected(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.clean("hello", channel="fax")

    def test_empty_message_discarded(self, pipeline):
        result = pipeline.clean("", channel="sms")
        assert result.discarded
        assert result.reason == "empty"

    def test_stats_funnel_accumulates(self, corpus):
        pipeline = CleaningPipeline()
        for message in corpus.sms[:100]:
            pipeline.clean(message.raw_text, channel="sms")
        stats = pipeline.stats
        assert stats.total == 100
        assert stats.kept + stats.spam + stats.non_english + stats.empty == (
            100
        )
        assert stats.kept_fraction > 0.8

    def test_spell_correction_optional(self):
        pipeline = CleaningPipeline(spell_correct=False)
        result = pipeline.clean("my comlpaint is pending", channel="sms")
        assert "comlpaint" in result.text

    def test_clean_many(self, pipeline):
        results = pipeline.clean_many(["hello there", "hi"], channel="sms")
        assert len(results) == 2

    def test_false_discard_rate_bounded(self, corpus):
        """Legitimate noisy SMS should rarely be thrown away."""
        pipeline = CleaningPipeline()
        customer_sms = [
            m for m in corpus.sms if m.sender_entity_id is not None
        ][:300]
        discarded = sum(
            1
            for m in customer_sms
            if pipeline.clean(m.raw_text, channel="sms").discarded
        )
        assert discarded / len(customer_sms) < 0.10


class TestNotesChannel:
    #: sha256 of the seed-1 call-center notes cleaned on the notes
    #: channel, one cleaned text per line.
    SEED1_NOTES_DIGEST = (
        "aa17d19e267f492869a74d2feb7b3e211cbc06dbcb25c8f6b7b314be4ac8adb4"
    )

    @staticmethod
    def notes():
        corpus = generate_car_rental(CarRentalConfig(
            n_agents=12, n_days=2, calls_per_agent_per_day=4,
            n_customers=160, seed=1,
        ))
        return AgentNoteGenerator(seed=1).notes_for_corpus(corpus)

    def test_cleaning_notes_adds_no_attributes(self):
        pipeline = CleaningPipeline()
        before = set(vars(pipeline))
        pipeline.clean("cust wants 2 book a car", channel="notes")
        assert set(vars(pipeline)) == before

    def test_notes_output_unchanged(self):
        pipeline = CleaningPipeline()
        cleaned = "\n".join(
            pipeline.clean(note.text, channel="notes").text
            for note in self.notes()
        )
        assert pipeline.stats.kept == 96
        digest = hashlib.sha256(cleaned.encode()).hexdigest()
        assert digest == self.SEED1_NOTES_DIGEST
