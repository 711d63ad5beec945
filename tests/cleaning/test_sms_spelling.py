"""Tests for SMS normalisation and spell correction."""

import pytest

from repro.cleaning.sms import SmsNormalizer, default_lingo_table
from repro.cleaning.spelling import SpellCorrector


class TestSmsNormalizer:
    @pytest.fixture(scope="class")
    def normalizer(self):
        return SmsNormalizer()

    def test_common_lingo_expanded(self, normalizer):
        assert normalizer.normalize("pls confrm rcpt") == (
            "please confirm receipt"
        )

    def test_u_and_ur(self, normalizer):
        assert normalizer.normalize("thx 4 ur help") == (
            "thanks for your help"
        )

    def test_digit_shorthand_context_sensitive(self, normalizer):
        assert normalizer.normalize("go 2 the shop") == "go to the shop"
        assert normalizer.normalize("paid 2 dollars") == "paid 2 dollars"
        assert normalizer.normalize("rs 2") == "rs 2"

    def test_no_is_never_expanded(self, normalizer):
        assert normalizer.normalize("no signal at home") == (
            "no signal at home"
        )

    def test_unknown_tokens_pass_through(self, normalizer):
        assert normalizer.normalize("xyzzy stays") == "xyzzy stays"

    def test_domain_term_extension(self):
        normalizer = SmsNormalizer()
        normalizer.add_domain_term("10000sms", "sms pack")
        assert normalizer.normalize("deactivate 10000sms") == (
            "deactivate sms pack"
        )

    def test_case_insensitive(self, normalizer):
        assert normalizer.normalize("PLS help") == "please help"

    def test_default_table_drops_ambiguous(self):
        assert "no" not in default_lingo_table()

    def test_empty(self, normalizer):
        assert normalizer.normalize("") == ""


class TestSpellCorrector:
    @pytest.fixture(scope="class")
    def corrector(self):
        return SpellCorrector()

    def test_known_words_unchanged(self, corrector):
        assert corrector.correct_word("balance") == "balance"

    def test_single_typo_corrected(self, corrector):
        assert corrector.correct_word("balanse") == "balance"

    def test_transposition_corrected(self, corrector):
        assert corrector.correct_word("comlpaint") == "complaint"

    def test_deletion_corrected(self, corrector):
        assert corrector.correct_word("custmer") == "customer"

    def test_short_tokens_left_alone(self, corrector):
        assert corrector.correct_word("teh") == "teh"  # below min_length

    def test_numbers_left_alone(self, corrector):
        assert corrector.correct_word("2013") == "2013"

    def test_sentence_correction(self, corrector):
        assert corrector.correct("my comlpaint about the balanse") == (
            "my complaint about the balance"
        )

    def test_hopeless_tokens_pass_through(self, corrector):
        assert corrector.correct_word("qqqqqqqqzzzz") == "qqqqqqqqzzzz"

    def test_custom_corpus(self):
        corrector = SpellCorrector(corpus=["gprs roaming activation"])
        assert corrector.correct_word("gprss") == "gprs"

    def test_frequency_breaks_ties(self):
        corrector = SpellCorrector(
            corpus=["rare rare common common common common"]
        )
        # "rarre"/"commn" style typos resolve to the more frequent word
        # when distances tie; here just assert the corrections hold.
        assert corrector.correct_word("commn") == "common"

    def test_empty_corpus_is_an_empty_vocabulary(self):
        corrector = SpellCorrector(corpus=[])
        assert corrector.vocabulary == set()
        assert not corrector.known("balance")
        assert corrector.correct("my comlpaint about the balanse") == (
            "my comlpaint about the balanse"
        )
