"""The one trigger pass of the typed-token annotators, against the reference.

The oracle: :class:`~repro.linking.annotators.AnnotatorSuite` finds
every annotator's trigger words in one pass over the lowered tokens and
runs the digit regexes only on a text that holds a digit.  Its typed
tokens (value, type, source and order) ``==`` those of
:class:`~tests.linking.reference.ReferenceAnnotatorSuite`, whose name,
phone, date and amount annotators each scan every token and run every
regex.  That holds with and without the caller's tokens, on car-rental
customer texts (seeds 1-3, clean and noised for SMS and email), churn
emails and SMS (seeds 1-3), non-ASCII, empty and single-token texts,
hand-built digit texts and generated texts.  Each annotator run on its
own also ``==`` its reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linking import annotators as annotators_module
from repro.linking.annotators import (
    AmountAnnotator,
    AnnotatorSuite,
    DateAnnotator,
    NameAnnotator,
    PhoneAnnotator,
    TypedToken,
    build_default_annotators,
)
from repro.store.schema import AttributeType
from repro.synth.noise import NoiseConfig, TextNoiser
from repro.util.tokenize import tokenize
from tests.linking.reference import (
    ReferenceAmountAnnotator,
    ReferenceDateAnnotator,
    ReferenceNameAnnotator,
    ReferencePhoneAnnotator,
    reference_annotators,
)
from tests.linking.test_annotators import NON_ASCII_TEXTS
from tests.linking.test_similarity_kernels import (
    callcenter_corpus,
    churn_corpus,
    customer_calls,
    message_texts,
)

SEEDS = (1, 2, 3)

#: Texts whose digits the regexes read: ISO dates, currency and suffix
#: amounts, cards, long digit runs and spoken runs cut by a word.
DIGIT_TEXTS = [
    "born 1972-04-08 in boston",
    "dates 2009-03-04 and 1999-12-31, not 2009-3-4 or 12009-03-04",
    "paid $42.50 and $ 1,200 today",
    "payment of rs. 500 received, RS 2,013 due, inr 75.5 owed",
    "INR1500 then Rs.20",
    "it costs 42 dollars per day or 3,000 rupees a week",
    "just forty two dollars",
    "dollars first then five dollars",
    "card 4111 1111 1111 1111 charged",
    "card 4111-1111-1111-1111 and 4111111111111111",
    "call 5558675309 or 555-867-5309 please",
    "account 12345678901234 and 1234567890123456789",
    "five five five stop eight six seven five three zero nine",
    "five five five five five five five five five five five five five",
    "one two three four five six seven eight nine zero one two three",
    "april eight nineteen seventy two or march 3 2009",
    "may 12 1980 june thirty one two thousand five",
    "december twenty nineteen ninety nine and july 4 19",
    "john smith 42 dollars 2009-03-04 5558675309",
]

#: Texts of one token, or none at all.
SHORT_TEXTS = ["", " ", "john", "JOHN", "five", "april", "dollars", "42",
               "5558675309", "2009-03-04", "$", "!"]

#: A vocabulary dense in trigger words, number words and digits.
VOCABULARY = [
    "john", "smith", "mary", "walker", "five", "one", "zero", "nine",
    "two", "thousand", "nineteen", "seventy", "twenty", "april", "march",
    "may", "dollars", "rupees", "rs", "$", "inr", "42", "2009", "3",
    "2009-03-04", "5558675309", "4111", "1,200", "42.50", "the", "is",
    "-", ",", ".", "My", "NAME", "Five",
]


def pairs(name_words=None):
    """Each program annotator with its reference, built alike."""
    return [
        (NameAnnotator(name_words), ReferenceNameAnnotator(name_words)),
        (PhoneAnnotator(), ReferencePhoneAnnotator()),
        (DateAnnotator(), ReferenceDateAnnotator()),
        (AmountAnnotator(), ReferenceAmountAnnotator()),
    ]


def assert_like_reference(texts, suite=None, reference=None):
    """Suite and per-annotator tokens ``==`` the reference on ``texts``."""
    suite = suite or build_default_annotators()
    reference = reference or reference_annotators()
    annotator_pairs = pairs()
    for text in texts:
        expected = reference.annotate(text)
        assert suite.annotate(text) == expected, text
        assert suite.annotate(text, tokenize(text, lower=True)) == (
            expected
        ), text
        for annotator, reference_annotator in annotator_pairs:
            assert annotator.annotate(text) == (
                reference_annotator.annotate(text)
            ), (annotator.source, text)


def car_rental_texts(seed):
    """Customer texts of a seed's calls: clean, SMS- and email-noised."""
    corpus = callcenter_corpus(seed)
    texts = [text for text, _, _ in customer_calls(corpus)]
    for config in (NoiseConfig.for_sms(), NoiseConfig.for_email()):
        noiser = TextNoiser(config, seed=seed)
        texts += [text for text, _, _ in customer_calls(corpus, noiser)]
    return texts


class TestOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_car_rental_customer_texts(self, seed):
        texts = car_rental_texts(seed)
        assert_like_reference(texts)
        sources = {
            token.source
            for text in texts
            for token in build_default_annotators().annotate(text)
        }
        assert {"name", "phone", "date"} <= sources

    @pytest.mark.parametrize("seed", SEEDS)
    def test_churn_messages(self, seed):
        assert_like_reference(message_texts(churn_corpus(seed)))

    def test_non_ascii_empty_and_single_token_texts(self):
        assert_like_reference(NON_ASCII_TEXTS + SHORT_TEXTS)

    def test_digit_texts(self):
        assert_like_reference(DIGIT_TEXTS)
        reference = reference_annotators()
        sources = {
            token.source
            for text in DIGIT_TEXTS
            for token in reference.annotate(text)
        }
        assert sources == {"name", "phone", "date", "amount", "card"}

    def test_same_line_up_as_the_reference(self):
        suite, reference = build_default_annotators(), reference_annotators()
        assert [a.source for a in suite.annotators] == [
            a.source for a in reference.annotators
        ]

    def test_shared_words_reach_every_annotator(self):
        """A word two annotators declare is a trigger for both."""
        suite = build_default_annotators(name_words=["may", "june", "smith"])
        reference = reference_annotators(name_words=["may", "june", "smith"])
        texts = ["may twelve nineteen eighty smith", "june may smith one"]
        assert_like_reference(texts, suite, reference)
        assert {t.source for t in suite.annotate(texts[0])} == {
            "name", "date"
        }

    def test_plugged_in_annotator_runs_over_the_text(self):
        """An annotator without ``annotate_at`` gets the text as is."""

        class Shouting:
            source = "shout"

            def annotate(self, text):
                return [
                    TypedToken(word, AttributeType.NAME, self.source)
                    for word in text.split()
                    if word.isupper()
                ]

        text = "JOHN smith called 5558675309 about MAY"
        suite = AnnotatorSuite([Shouting(), PhoneAnnotator()])
        assert suite.annotate(text) == Shouting().annotate(text) + (
            ReferencePhoneAnnotator().annotate(text)
        )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(VOCABULARY), max_size=30),
           st.sampled_from([" ", "  ", "-", ""]))
    def test_generated_texts(self, words, separator):
        assert_like_reference([separator.join(words)])


class TestDigitGate:
    def test_no_digit_text_skips_the_regexes(self, monkeypatch):
        """A text without a digit never reaches a digit regex."""
        suite = build_default_annotators()
        searched = []
        monkeypatch.setattr(
            annotators_module, "_DIGIT_RUN_RE",
            Recording(annotators_module._DIGIT_RUN_RE, searched),
        )
        for annotator in suite.annotators:
            for name in ("_CARD_RE", "_ISO_RE", "_CURRENCY_RE", "_SUFFIX_RE"):
                if hasattr(annotator, name):
                    monkeypatch.setattr(
                        annotator, name, Recording(getattr(annotator, name),
                                                   searched),
                    )
        suite.annotate("john smith five five five one two forty dollars")
        assert searched == []
        suite.annotate("john smith 5558675309 on 2009-03-04 for $42")
        assert len(searched) == 5


class Recording:
    """A compiled pattern that notes each ``finditer`` call."""

    def __init__(self, pattern, calls):
        self.pattern = pattern
        self.calls = calls

    def finditer(self, text):
        self.calls.append(self.pattern.pattern)
        return self.pattern.finditer(text)

