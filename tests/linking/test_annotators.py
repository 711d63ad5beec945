"""Tests for the typed-token annotators."""

import pytest

from repro.linking.annotators import (
    AmountAnnotator,
    AnnotatorSuite,
    CardAnnotator,
    DateAnnotator,
    NameAnnotator,
    PhoneAnnotator,
    build_default_annotators,
)
from repro.store.schema import AttributeType


class TestNameAnnotator:
    def test_adjacent_name_words_grouped(self):
        tokens = NameAnnotator().annotate("my name is john smith thanks")
        assert any(t.value == "john smith" for t in tokens)

    def test_lone_surname(self):
        tokens = NameAnnotator().annotate("this is smith calling")
        assert any(t.value == "smith" for t in tokens)

    def test_no_names(self):
        assert NameAnnotator().annotate("the rate is too high") == []

    def test_case_insensitive(self):
        tokens = NameAnnotator().annotate("MY NAME IS JOHN SMITH")
        assert any("john" in t.value for t in tokens)

    def test_typed_as_name(self):
        for token in NameAnnotator().annotate("john smith"):
            assert token.attr_type is AttributeType.NAME


class TestPhoneAnnotator:
    def test_written_digits(self):
        tokens = PhoneAnnotator().annotate("call me at 5558675309 please")
        assert any(t.value == "5558675309" for t in tokens)

    def test_spoken_digit_words(self):
        text = "my number is five five five eight six seven five three"
        tokens = PhoneAnnotator().annotate(text)
        assert any(t.value == "55586753" for t in tokens)

    def test_short_runs_ignored(self):
        assert PhoneAnnotator().annotate("i have two three cars") == []

    def test_interrupted_runs_split(self):
        text = "five five five stop eight six seven five three zero nine"
        tokens = PhoneAnnotator().annotate(text)
        values = {t.value for t in tokens}
        assert "8675309" in values
        assert "555" not in values  # below min_digits


class TestDateAnnotator:
    def test_iso_date(self):
        tokens = DateAnnotator().annotate("born 1972-04-08 in boston")
        assert any(t.value == "1972-04-08" for t in tokens)

    def test_spoken_date(self):
        text = "my date of birth is april eight nineteen seventy two"
        tokens = DateAnnotator().annotate(text)
        assert any(t.value == "1972-04-08" for t in tokens)

    def test_spoken_date_compound_day(self):
        text = "born on march twenty three nineteen eighty"
        tokens = DateAnnotator().annotate(text)
        assert any(t.value == "1980-03-23" for t in tokens)

    def test_month_without_year_ignored(self):
        assert DateAnnotator().annotate("i will come in april maybe") == []


class TestAmountAnnotator:
    def test_currency_prefix(self):
        tokens = AmountAnnotator().annotate("payment of rs. 500 received")
        assert any(t.value == "500" for t in tokens)

    def test_dollar_suffix(self):
        tokens = AmountAnnotator().annotate("it costs 42 dollars per day")
        assert any(t.value == "42" for t in tokens)

    def test_spoken_amount(self):
        tokens = AmountAnnotator().annotate("just forty two dollars")
        assert any(t.value == "42" for t in tokens)


class TestCardAnnotator:
    def test_sixteen_digit_card(self):
        tokens = CardAnnotator().annotate("card 4111 1111 1111 1111 charged")
        assert any(t.value == "4111111111111111" for t in tokens)

    def test_ten_digit_phone_not_card(self):
        # A bare 10-digit phone number must not be typed as a card.
        tokens = CardAnnotator().annotate("call 5558675309")
        assert tokens == []


class TestAnnotatorSuite:
    def test_default_suite_extracts_multiple_types(self):
        suite = build_default_annotators()
        text = (
            "my name is john smith my number is 5558675309 and my date "
            "of birth is 1972-04-08"
        )
        types = {t.attr_type for t in suite.annotate(text)}
        assert {
            AttributeType.NAME,
            AttributeType.PHONE,
            AttributeType.DATE,
        } <= types

    def test_tokens_of_type(self):
        suite = build_default_annotators()
        names = suite.tokens_of_type("john smith said hi", AttributeType.NAME)
        assert names and all(
            t.attr_type is AttributeType.NAME for t in names
        )

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            AnnotatorSuite([])


def one_pass_per_annotator(suite, text):
    """The suite's tokens with every annotator tokenizing for itself."""
    tokens = []
    for annotator in suite.annotators:
        tokens.extend(annotator.annotate(text))
    return tokens


#: Texts where lowering and tokenizing do not commute, or nearly so.
NON_ASCII_TEXTS = [
    "İSTANBUL john smith 5558675309 March 3 2009 forty two dollars",
    "my name is JOHN SMİTH, call 555 867 5309",
    "Straße mary walker rs 500 K 2009-03-04",
    "café jon smyth five five five one two three four",
    "İİ smith march twenty one nineteen ninety",
]


class TestSharedTokenization:
    """One tokenization of an ASCII text serves every annotator.

    The oracle: the suite's tokens ``==`` each annotator run on its own
    over the real corpora (seeds 1-3) and non-ASCII texts.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_corpus_texts(self, seed):
        from repro.synth.noise import NoiseConfig, TextNoiser
        from tests.linking.test_similarity_kernels import (
            callcenter_corpus,
            churn_corpus,
            customer_calls,
            message_texts,
        )

        texts = message_texts(churn_corpus(seed))
        calls = callcenter_corpus(seed)
        for noiser in (None, TextNoiser(NoiseConfig.for_sms(), seed=seed)):
            texts += [text for text, _, _ in customer_calls(calls, noiser)]
        suite = build_default_annotators()
        for text in texts:
            assert suite.annotate(text) == one_pass_per_annotator(
                suite, text
            ), text
        assert any(suite.annotate(text) for text in texts)

    @pytest.mark.parametrize("text", NON_ASCII_TEXTS)
    def test_non_ascii_texts(self, text):
        suite = build_default_annotators()
        assert not text.isascii()
        assert suite.annotate(text) == one_pass_per_annotator(suite, text)

    def test_ascii_text_is_tokenized_once(self, monkeypatch):
        from repro.linking import annotators

        calls = []
        tokenize = annotators.tokenize

        def counting(*args, **kwargs):
            calls.append(args)
            return tokenize(*args, **kwargs)

        monkeypatch.setattr(annotators, "tokenize", counting)
        suite = build_default_annotators()
        tokens = suite.annotate("John Smith, 5558675309, forty two dollars")
        assert len(calls) == 1
        assert [token.source for token in tokens] == [
            "name", "phone", "amount",
        ]
        # Where lowering splits a character, each annotator tokenizes
        # for itself, as it did on its own.
        assert tokenize("İ", lower=True) != tokenize("İ".lower())
        del calls[:]
        suite.annotate(NON_ASCII_TEXTS[0])
        assert len(calls) == 4
