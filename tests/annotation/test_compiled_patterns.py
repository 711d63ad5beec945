"""The compiled pattern pass against the naive reference, and its work.

The oracle: ``AnnotationEngine.annotate`` (a :class:`PatternSet`
dispatch table with lazily tagged PoS) equals
:func:`~tests.annotation.reference.reference_annotate` (every pattern
at every start over eager tags), concept list for concept list, order
included.  It runs the real car-rental and telecom engines over the
call-center texts (each call's full text, agent text and customer
opening) and over channel-noised copies of them, plus a hand-made
pattern set that covers every kind of pattern head.

The work gate: on the seed-1 call-center corpus the compiled pass
tries at most 1% of the (pattern, start) windows the reference tries.
"""

import hashlib
import json

import pytest

from repro.annotation import (
    AnnotationEngine,
    DictionaryEntry,
    DomainDictionary,
    PosTagger,
    build_car_rental_engine,
    build_telecom_engine,
    parse_pattern,
)
from repro.annotation.domains import build_car_rental_patterns
from repro.annotation.patterns import PatternSet
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.noise import NoiseConfig, TextNoiser
from repro.synth.telecom import TelecomConfig, generate_telecom
from repro.util.turns import split_speakers
from tests.annotation.reference import reference_annotate, reference_windows

SEEDS = (1, 2, 3)

#: Reference windows over the seed-1 call-center corpus (96 calls, each
#: as full text, agent text and customer opening).
SEED1_REFERENCE_WINDOWS = 587_412


def callcenter_corpus(seed):
    """The benchmark's call-center corpus: 96 calls, 160 customers."""
    return generate_car_rental(CarRentalConfig(
        n_agents=12, n_days=2, calls_per_agent_per_day=4,
        n_customers=160, seed=seed,
    ))


def annotated_texts(corpus):
    """The full, agent and opening text of every call, in call order.

    These are the three texts each call of an insight study was
    annotated as before the study annotated the full text alone; the
    pattern oracle and the window pin keep testing all three.  The
    joins are :class:`~repro.core.pipeline.ComposeTextStage`'s.
    """
    texts = []
    for transcript in corpus.transcripts:
        customer_parts, agent_parts = split_speakers(transcript.turns)
        customer_text = " ".join(customer_parts)
        agent_text = " ".join(agent_parts)
        texts += [
            f"{customer_text} {agent_text}",
            agent_text,
            " ".join(customer_parts[:2]),
        ]
    return texts


@pytest.fixture(scope="module")
def study_texts():
    """seed -> the full, agent and opening texts of its study."""
    return {seed: annotated_texts(callcenter_corpus(seed)) for seed in SEEDS}


@pytest.fixture(scope="module")
def car_rental():
    return build_car_rental_engine()


def assert_same_as_reference(engine, texts):
    assert texts
    for text in texts:
        compiled = engine.annotate(text, doc_id="d", metadata={"k": 1})
        reference = reference_annotate(
            engine, text, doc_id="d", metadata={"k": 1}
        )
        assert compiled.concepts == reference.concepts, text
        assert compiled == reference


class TestCarRentalOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_study_texts(self, car_rental, study_texts, seed):
        texts = study_texts[seed]
        assert len(texts) == 3 * 96
        assert_same_as_reference(car_rental, texts)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("channel", ["sms", "email"])
    def test_noised_study_texts(self, car_rental, study_texts, seed,
                                channel):
        config = getattr(NoiseConfig, f"for_{channel}")()
        noiser = TextNoiser(config, seed=seed)
        texts = [noiser.apply(text) for text in study_texts[seed]]
        assert texts != study_texts[seed]
        assert_same_as_reference(car_rental, texts)

    def test_hits_every_pattern_category(self, car_rental, study_texts):
        """The oracle texts exercise the pattern pass, not just misses."""
        categories = {
            concept.category
            for text in study_texts[1]
            for concept in car_rental.annotate(text).concepts
            if concept.source == "pattern"
        }
        assert {"intent", "value selling"} <= categories


class TestTelecomOracle:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_telecom(TelecomConfig(
            scale=0.002, n_customers=300, seed=5,
        ))

    @pytest.mark.parametrize("channel", ["emails", "sms"])
    def test_messages(self, corpus, channel):
        engine = build_telecom_engine()
        texts = [
            text
            for message in getattr(corpus, channel)
            for text in (message.raw_text, message.clean_text)
        ]
        assert_same_as_reference(engine, texts)
        assert any(engine.annotate(text).concepts for text in texts)


def hand_made_engine():
    """Every head kind, a capture, category tails and same-span ties."""
    dictionary = DomainDictionary([
        DictionaryEntry("seven seater", "suv", "vehicle"),
        DictionaryEntry("boston", "boston", "place"),
        DictionaryEntry("ny", "new york", "place"),
        DictionaryEntry("good rate", "good rate", "offer"),
    ])
    patterns = [
        parse_pattern("* + rude", "someone rude", "tone"),
        parse_pattern("<place> + NOUN", "place noun", "assoc"),
        parse_pattern("<vehicle> + <vehicle>", "whole vehicle", "assoc"),
        parse_pattern("VERB + the + NOUN", "verb phrase", "action"),
        parse_pattern("good|great|wonderful + rate|price", "nice", "offer"),
        parse_pattern("ADJ + rate", "adjective rate", "offer"),
        parse_pattern("please + VERB", "request", "request",
                      capture="VERB"),
        parse_pattern("was + NEG + *", "negated", "tone"),
        parse_pattern("to + <place>", "destination", "assoc"),
        parse_pattern(" + ".join(["the"] + ["*"] * 10 + ["end"]),
                      "too wide", "wide"),
        parse_pattern("he|she + rude", "pronoun rude", "tone"),
    ]
    return AnnotationEngine(dictionary=dictionary, patterns=patterns)


HAND_MADE_TEXTS = [
    "",
    "rude",
    "was he rude ?",
    "please confirm the booking",
    "boston office and ny airport",
    "i need a seven seater to boston",
    "a good rate and a great price and a wonderful rate",
    "the agent was not rude at all",
    "book the car to ny",
    "please please help",
    "the end",
]


class TestHandMadeOracle:
    @pytest.mark.parametrize("text", HAND_MADE_TEXTS)
    def test_text(self, text):
        assert_same_as_reference(hand_made_engine(), [text])

    def test_every_pattern_hits_somewhere(self):
        engine = hand_made_engine()
        hit = {
            concept.category + ":" + concept.surface
            for text in HAND_MADE_TEXTS
            for concept in engine.annotate(text).concepts
        }
        for expected in (
            "tone:he rude", "assoc:boston office", "assoc:seven seater",
            "action:book the car", "offer:great price",
            "request:please confirm", "tone:was not rude",
            "assoc:to boston",
        ):
            assert expected in hit

    def test_same_span_ties_keep_dictionary_then_pattern_order(self):
        doc = hand_made_engine().annotate("a good rate")
        tied = [(c.source, c.canonical) for c in doc.concepts]
        assert tied == [
            ("dictionary", "good rate"),
            ("pattern", "nice"),
            ("pattern", "adjective rate"),
        ]

    def test_ties_follow_pattern_order_not_head_kind(self):
        """A wildcard head listed first precedes a token head on a tie."""
        doc = hand_made_engine().annotate("was he rude ?")
        assert [c.canonical for c in doc.concepts] == [
            "someone rude", "pronoun rude"
        ]

    def test_capture_takes_the_matched_token(self):
        doc = hand_made_engine().annotate("please please help")
        requests = [c for c in doc.concepts if c.category == "request"]
        assert [(c.canonical, c.start) for c in requests] == [("help", 1)]

    def test_pattern_wider_than_document_never_matches(self):
        doc = hand_made_engine().annotate("the end")
        assert all(c.category != "wide" for c in doc.concepts)


class CountingTagger(PosTagger):
    """A PosTagger that records every token it tags."""

    def __init__(self):
        super().__init__()
        self.tagged = []

    def tag_token(self, token):
        self.tagged.append(token)
        return super().tag_token(token)


class TestLazyTagging:
    def test_pattern_free_engine_tags_nothing(self):
        tagger = CountingTagger()
        engine = AnnotationEngine(
            dictionary=build_telecom_engine().dictionary, tagger=tagger
        )
        engine.annotate("the bill is too high and i am switching")
        assert tagger.tagged == []

    def test_car_rental_tags_only_positions_a_pos_element_tests(self):
        tagger = CountingTagger()
        engine = AnnotationEngine(
            dictionary=build_car_rental_engine().dictionary,
            patterns=build_car_rental_patterns(),
            tagger=tagger,
        )
        engine.annotate("i would like to make a booking for boston")
        assert tagger.tagged == []
        doc = engine.annotate("please confirm it was not rude and just "
                              "forty dollars")
        # please + VERB, was + NEG + rude, just + NUMERIC: one tag each.
        assert tagger.tagged == ["confirm", "not", "forty"]
        assert doc.concepts == reference_annotate(
            engine, doc.text
        ).concepts

    def test_each_position_tagged_once_per_document(self):
        tagger = CountingTagger()
        engine = AnnotationEngine(patterns=[
            parse_pattern("VERB + NOUN", "a", "x"),
            parse_pattern("please + VERB", "b", "x"),
        ], tagger=tagger)
        doc = engine.annotate("please check car now")
        # The PoS head tags every position; the tails reuse those tags.
        assert sorted(tagger.tagged) == ["car", "check", "now", "please"]
        assert [c.surface for c in doc.concepts] == [
            "please check", "check car"
        ]


class TestWorkGate:
    def test_compiled_pass_tries_at_most_one_percent_of_windows(self):
        corpus = callcenter_corpus(1)
        texts = annotated_texts(corpus)
        engine = build_car_rental_engine()
        windows = sum(reference_windows(engine, text) for text in texts)
        assert windows == SEED1_REFERENCE_WINDOWS

        attempts = []
        original = PatternSet._attempt

        def counting(self, index, start, *args):
            attempts.append((index, start))
            return original(self, index, start, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PatternSet, "_attempt", counting)
            for text in texts:
                engine.annotate(text)
        assert 0 < len(attempts) <= windows // 100


class TestEngineConstruction:
    def test_empty_dictionary_is_kept(self):
        """An empty dictionary is falsy but still the caller's."""
        dictionary = DomainDictionary()
        engine = AnnotationEngine(dictionary=dictionary)
        assert engine.dictionary is dictionary
        dictionary.add(DictionaryEntry("gprs", "gprs", "service"))
        assert engine.annotate("my gprs is down").has_category("service")

    def test_patterns_are_a_tuple_and_add_pattern_recompiles(self):
        engine = AnnotationEngine()
        assert engine.patterns == ()
        pattern = parse_pattern("save + money", "good rate", "offer")
        assert engine.add_pattern(pattern) is engine
        assert engine.patterns == (pattern,)
        assert engine.annotate("you save money").has_category("offer")
        with pytest.raises(AttributeError):
            engine.patterns = ()


class TestParseValidation:
    @pytest.mark.parametrize("expression", [
        "a||b", "a|", "|a", "want + to|", "<>", "please + <>",
    ])
    def test_empty_alternative_or_category_rejected(self, expression):
        with pytest.raises(ValueError):
            parse_pattern(expression, "x", "y")

    def test_shipped_car_rental_patterns_parse_unchanged(self):
        """Digest of every shipped pattern as the earlier parser read it."""
        rows = [
            [
                p.expression, p.canonical, p.category,
                [
                    [e.kind, sorted(e.value)
                     if isinstance(e.value, frozenset) else e.value]
                    for e in p.elements
                ],
                p.capture_index,
            ]
            for p in build_car_rental_patterns()
        ]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert len(rows) == 36
        assert digest == (
            "abee35308610713418a46e67664c6dc5"
            "4241048441ad857a600afe3bc71ef772"
        )
