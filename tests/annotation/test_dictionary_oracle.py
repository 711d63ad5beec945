"""The bucketed dictionary pass against the entry-by-entry reference.

The oracle: ``DomainDictionary.match`` (bucket items that keep each
entry's span, and no per-token lowering of tokens that are already
lower-case, as the engine's are) equals
:func:`~tests.annotation.reference.reference_dictionary_match`, which
lowers every token and splits each surface it tries, concept list for
concept list.  It runs the real car-rental dictionary over the seed 1-3
call-center full texts, clean and channel-noised; the churn-driver
dictionary over telecom messages; and hand-made cases for spans cut
off at the end of the tokens, upper-case, mixed-case and non-ASCII
input, tuples and iterators, and empty input.
"""

import pytest

from repro.annotation import DictionaryEntry, DomainDictionary
from repro.annotation.domains import build_car_rental_dictionary
from repro.core.usecases.churn import churn_driver_engine
from repro.synth.noise import NoiseConfig, TextNoiser
from repro.util.tokenize import tokenize
from tests.annotation.reference import reference_dictionary_match
from tests.annotation.test_compiled_patterns import (
    SEEDS,
    annotated_texts,
    callcenter_corpus,
)
from tests.cleaning.corpus import telecom_corpus


def assert_same_as_reference(dictionary, texts):
    """Raw and lowered tokens of every text match as the reference."""
    assert texts
    found = 0
    for text in texts:
        raw = tokenize(text)
        lowered = tokenize(text, lower=True)
        expected = reference_dictionary_match(dictionary, raw)
        assert dictionary.match(raw) == expected, text
        assert dictionary.match(lowered) == expected, text
        found += len(expected)
    assert found, "the oracle texts hold no dictionary concept"


@pytest.fixture(scope="module")
def full_texts():
    """seed -> the full text of each call of its call-center study."""
    return {
        seed: annotated_texts(callcenter_corpus(seed))[::3]
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def car_rental():
    return build_car_rental_dictionary()


class TestCarRentalOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_texts(self, car_rental, full_texts, seed):
        assert len(full_texts[seed]) == 96
        assert_same_as_reference(car_rental, full_texts[seed])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("channel", ["sms", "email"])
    def test_noised_full_texts(self, car_rental, full_texts, seed, channel):
        config = getattr(NoiseConfig, f"for_{channel}")()
        noiser = TextNoiser(config, seed=seed)
        texts = [noiser.apply(text) for text in full_texts[seed]]
        assert texts != full_texts[seed]
        assert_same_as_reference(car_rental, texts)


class TestChurnDriverOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_telecom_messages(self, seed):
        dictionary = churn_driver_engine().dictionary
        messages = telecom_corpus(seed).messages
        texts = [m.raw_text for m in messages]
        texts += [m.clean_text for m in messages]
        assert_same_as_reference(dictionary, texts)


class TestHandMadeCases:
    @pytest.fixture(scope="class")
    def dictionary(self):
        return DomainDictionary([
            DictionaryEntry("master card", "credit card", "payment"),
            DictionaryEntry("card", "card", "payment"),
            DictionaryEntry("child seat", "child seat", "feature"),
            DictionaryEntry("child  seat booster", "booster", "feature"),
            DictionaryEntry("NY", "new york", "place"),
        ])

    @pytest.mark.parametrize("text", [
        "pay by master",
        "a child",
        "a child seat booster",
        "child seat",
        "child seat boost",
        "master master card card",
        "ny child seat ny",
    ])
    def test_spans_cut_off_at_the_end(self, dictionary, text):
        tokens = text.split()
        assert dictionary.match(tokens) == reference_dictionary_match(
            dictionary, tokens
        )

    def test_upper_case_input(self, dictionary):
        tokens = "PAY BY MASTER CARD IN NY".split()
        concepts = dictionary.match(tokens)
        assert concepts == reference_dictionary_match(dictionary, tokens)
        assert [c.surface for c in concepts] == ["master card", "ny"]

    def test_mixed_case_and_non_ascii_input(self, dictionary):
        for text in ["Master card", "master CARD", "ΣΑΣ master card",
                     "İ master card", "CHILD seat booster"]:
            tokens = text.split()
            assert dictionary.match(tokens) == reference_dictionary_match(
                dictionary, tokens
            ), text

    def test_tuple_and_generator_input(self, dictionary):
        tokens = "pay by master card".split()
        expected = reference_dictionary_match(dictionary, tokens)
        assert dictionary.match(tuple(tokens)) == expected
        assert dictionary.match(iter(tokens)) == expected

    def test_empty_input(self, dictionary):
        assert dictionary.match([]) == []
        assert dictionary.match(()) == []
        assert reference_dictionary_match(dictionary, []) == []

    def test_longest_surface_wins(self, dictionary):
        concepts = dictionary.match("a child seat booster".split())
        assert [(c.canonical, c.start, c.end) for c in concepts] == [
            ("booster", 1, 4),
        ]
