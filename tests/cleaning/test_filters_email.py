"""Tests for the language filter, spam filter and email segmentation."""

import pytest

from repro.cleaning.email import parse_email, segment_customer_text
from repro.cleaning.langfilter import LanguageFilter
from repro.cleaning.spamfilter import SpamFilter, train_default_spam_filter
from tests.cleaning.corpus import telecom_corpus

RAW_EMAIL = """\
from: john smith <john.smith42@example.com>
to: care@telco.example
subject: billing complaint

dear customer care
my bill is too high and i feel robbed when paying it
my registered number is 5558675309
regards
john smith

> on month 3 customer care wrote:
> dear john smith thank you for contacting us
> we will look into your issue at the earliest

this email and any attachments are confidential and intended solely for the addressee
download our new mobile app for exclusive offers"""


class TestLanguageFilter:
    @pytest.fixture(scope="class")
    def language_filter(self):
        return LanguageFilter()

    def test_english_message_passes(self, language_filter):
        assert language_filter.is_english(
            "please confirm the receipt of payment"
        )

    def test_hindi_fragments_rejected(self, language_filter):
        assert not language_filter.is_english(
            "jaldi karo paisa wapas karo bahut kharab"
        )

    def test_mixed_message_scored(self, language_filter):
        score = language_filter.english_score(
            "my problem is not solved jaldi karo"
        )
        assert 0.0 < score < 1.0

    def test_numbers_only_pass(self, language_filter):
        assert language_filter.is_english("500 12345")

    def test_spam_vocabulary_is_english(self, language_filter):
        assert language_filter.is_english(
            "congratulations you have won a lottery claim now"
        )

    def test_empty_passes(self, language_filter):
        assert language_filter.is_english("")

    def test_filters_share_one_vocabulary(self, language_filter):
        """The word sets are built once per process, not per filter."""
        other = LanguageFilter()
        assert other._vocabulary is language_filter._vocabulary
        assert other._foreign is language_filter._foreign
        assert isinstance(other._vocabulary, frozenset)
        texts = [message.raw_text for message in telecom_corpus(1).messages]
        assert [other.english_score(text) for text in texts] == [
            language_filter.english_score(text) for text in texts
        ]


class TestSpamFilter:
    @pytest.fixture(scope="class")
    def spam_filter(self):
        return train_default_spam_filter()

    def test_spam_detected(self, spam_filter):
        assert spam_filter.is_spam(
            "congratulations you have won a lottery of 90000 dollars "
            "claim now"
        )

    def test_ham_passes(self, spam_filter):
        assert not spam_filter.is_spam(
            "my bill is too high please check my account"
        )

    def test_score_in_unit_interval(self, spam_filter):
        for text in ("lottery now", "please help with my bill", ""):
            assert 0.0 <= spam_filter.spam_score(text) <= 1.0

    def test_unfitted_filter_raises(self):
        with pytest.raises(RuntimeError):
            SpamFilter().spam_score("anything")

    def test_fit_validates_classes(self):
        with pytest.raises(ValueError):
            SpamFilter().fit(["a", "b"], [True, True])

    def test_fit_validates_alignment(self):
        with pytest.raises(ValueError):
            SpamFilter().fit(["a"], [True, False])

    def test_fit_reads_labels_as_booleans(self):
        # Two distinct label strings are still one class: both are True.
        with pytest.raises(ValueError, match="both classes"):
            SpamFilter().fit(["win cash", "my bill"], ["spam", "ham"])


class TestEmailSegmentation:
    def test_headers_extracted(self):
        parts = parse_email(RAW_EMAIL)
        assert "john.smith42@example.com" in parts.headers["from"]
        assert parts.headers["subject"] == "billing complaint"

    def test_customer_voice_kept(self):
        text = segment_customer_text(RAW_EMAIL)
        assert "my bill is too high" in text
        assert "registered number is 5558675309" in text

    def test_agent_voice_segregated(self):
        parts = parse_email(RAW_EMAIL)
        assert "thank you for contacting us" in parts.agent_text
        assert "thank you for contacting us" not in parts.customer_text

    def test_disclaimer_removed(self):
        text = segment_customer_text(RAW_EMAIL)
        assert "confidential" not in text

    def test_promo_footer_removed(self):
        text = segment_customer_text(RAW_EMAIL)
        assert "mobile app" not in text

    def test_greeting_and_signature_removed(self):
        text = segment_customer_text(RAW_EMAIL)
        assert not text.startswith("dear")
        assert not text.endswith("john smith")

    def test_plain_text_no_structure(self):
        assert segment_customer_text("just a plain note") == (
            "just a plain note"
        )

    def test_empty_email(self):
        assert segment_customer_text("") == ""
