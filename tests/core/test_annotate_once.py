"""A call annotated once against the three-pass reference stages.

The oracle: the call-center graph annotates each call's full text once
and reads the agent flags and the opening's intent from it by token
range.  Every :class:`~repro.core.pipeline.ProcessedCall`, every
document's ``index_fields`` and the concept index are ``==`` those of
:class:`~tests.core.reference.ReferenceSystem`, which annotates the
full text, the agent text and the opening separately.  The calls are
car-rental seeds 1-3, clean and noised for SMS and email, a small
corpus through the ASR path (one- and two-pass), and hand-built calls
that put a dictionary concept or a pattern across a cut.

The work gate, at tolerance 0: a seed-1 study annotates 96 texts of
9,794 tokens in all, against the reference's 288 texts and 16,781
tokens.
"""

from dataclasses import replace

import pytest

from repro.annotation import (
    AnnotationEngine,
    DictionaryEntry,
    build_car_rental_engine,
)
from repro.annotation.domains import (
    INTENT_CATEGORY,
    STRONG_START,
    build_car_rental_dictionary,
    build_car_rental_patterns,
)
from repro.core.config import BIVoCConfig
from repro.core.pipeline import (
    AnnotateStage,
    BIVoCSystem,
    ComposeTextStage,
    DeriveStage,
    TurnSplitStage,
)
from repro.engine import Document, PipelineRunner
from repro.mining.stage import ConceptIndexStage
from repro.obs import MetricsRegistry, Tracer, activated
from repro.stream import index_to_state
from repro.synth.carrental import (
    CallTranscript,
    CarRentalConfig,
    generate_car_rental,
)
from repro.synth.noise import NoiseConfig, TextNoiser
from repro.util.tokenize import tokenize
from tests.annotation.test_compiled_patterns import (
    annotated_texts,
    callcenter_corpus,
)
from tests.core.reference import ReferenceSystem, reference_stages

SEEDS = (1, 2, 3)

#: Texts and tokens one seed-1 study annotates, and the reference's.
SEED1_ANNOTATED = 96
SEED1_TOKENS = 9_794
SEED1_REFERENCE_ANNOTATED = 288
SEED1_REFERENCE_TOKENS = 16_781

CONTENT = BIVoCConfig(use_asr=False, link_mode="content")

#: The document artifacts derive writes, besides the annotation.
DERIVED = ("detected_intent", "value_selling", "discount", "index_fields",
           "timestamp")


def noised(corpus, channel, seed):
    """``corpus`` with every turn noised by ``channel``'s profile."""
    noiser = TextNoiser(getattr(NoiseConfig, f"for_{channel}")(), seed=seed)
    transcripts = [
        replace(transcript, turns=tuple(
            (speaker, noiser.apply(text))
            for speaker, text in transcript.turns
        ))
        for transcript in corpus.transcripts
    ]
    return replace(corpus, transcripts=transcripts)


def graph_documents(system, corpus):
    """The documents and index of one run of ``system``'s call graph."""
    stages = system.build_call_stages(corpus)
    documents = [
        Document(
            doc_id=transcript.call_id, channel="call",
            text=transcript.text, artifacts={"transcript": transcript},
        )
        for transcript in corpus.transcripts
    ]
    result = PipelineRunner(stages).run(documents)
    return result.documents, stages[-1].index


def assert_documents_equal(documents, expected):
    """Annotations, derived artifacts and ids ``==``, document by document."""
    assert [d.doc_id for d in documents] == [d.doc_id for d in expected]
    for document, reference in zip(documents, expected):
        annotated = document.require("annotated")
        reference_annotated = reference.require("annotated")
        assert annotated.concepts == reference_annotated.concepts
        assert annotated.tokens == reference_annotated.tokens
        assert annotated == reference_annotated
        for name in DERIVED:
            assert document.get(name) == reference.get(name), name
        assert "agent_doc" not in document.artifacts


def assert_study_like_reference(corpus, config):
    """Graph documents, processed calls and the index ``==`` the reference."""
    documents, index = graph_documents(BIVoCSystem(config), corpus)
    expected, expected_index = graph_documents(ReferenceSystem(config), corpus)
    assert_documents_equal(documents, expected)
    assert index_to_state(index) == index_to_state(expected_index)

    analysis = BIVoCSystem(config).process_call_center(corpus)
    reference = ReferenceSystem(config).process_call_center(corpus)
    assert analysis.calls == reference.calls
    assert index_to_state(analysis.index) == index_to_state(reference.index)
    assert analysis.stats == reference.stats
    return documents


@pytest.fixture(scope="module")
def corpora():
    return {seed: callcenter_corpus(seed) for seed in SEEDS}


class TestStudyOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_clean_calls(self, corpora, seed):
        documents = assert_study_like_reference(corpora[seed], CONTENT)
        # The oracle sees every answer the derive stage can give.
        assert {d.get("detected_intent") for d in documents} == {
            "strong", "weak", "unknown"
        }
        assert any(d.get("value_selling") for d in documents)
        assert any(d.get("discount") for d in documents)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("channel", ["sms", "email"])
    def test_noised_calls(self, corpora, seed, channel):
        corpus = noised(corpora[seed], channel, seed)
        assert corpus.transcripts != corpora[seed].transcripts
        assert_study_like_reference(corpus, CONTENT)

    @pytest.mark.parametrize("two_pass", [False, True])
    def test_asr_calls(self, two_pass):
        corpus = generate_car_rental(CarRentalConfig(
            n_agents=2, n_days=1, calls_per_agent_per_day=3,
            n_customers=20, seed=4,
        ))
        config = BIVoCConfig(use_asr=True, two_pass=two_pass)
        assert_study_like_reference(corpus, config)

    def test_reference_annotates_the_three_text_set(self, corpora):
        """The pattern pass's oracle texts are what the reference annotates."""
        corpus = corpora[1]
        recorded = []
        original = AnnotationEngine.annotate

        def recording(self, text, *args, **kwargs):
            recorded.append(text)
            return original(self, text, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AnnotationEngine, "annotate", recording)
            ReferenceSystem(CONTENT).process_call_center(corpus)
        assert sorted(recorded) == sorted(annotated_texts(corpus))


def call(customer_parts, agent_parts):
    """A hand-built transcript, customer and agent turns interleaved."""
    turns = []
    for index in range(max(len(customer_parts), len(agent_parts))):
        if index < len(customer_parts):
            turns.append(("customer", customer_parts[index]))
        if index < len(agent_parts):
            turns.append(("agent", agent_parts[index]))
    return CallTranscript(
        call_id=0, day=3, agent_name="pat", turns=tuple(turns)
    )


def region_graph(engine, reference=False):
    """Turn split through the index, without the record link."""
    stages = [
        TurnSplitStage(),
        ComposeTextStage(),
        AnnotateStage(engine),
        DeriveStage(engine),
        ConceptIndexStage(),
    ]
    return reference_stages(stages, engine) if reference else stages


def run_region_graph(engine, transcript, reference=False):
    """``(documents, index, annotation.documents)`` of one hand-built call."""
    stages = region_graph(engine, reference)
    document = Document(
        doc_id=transcript.call_id, channel="call", text=transcript.text,
        artifacts={"transcript": transcript, "record": None},
    )
    metrics = MetricsRegistry()
    with activated(Tracer(), metrics):
        result = PipelineRunner(stages).run([document])
    counters = metrics.snapshot()["counters"]
    return result.documents, stages[-1].index, counters["annotation.documents"]


def assert_call_like_reference(engine, transcript):
    """One hand-built call ``==`` the reference; its annotate count."""
    documents, index, annotated = run_region_graph(engine, transcript)
    expected, expected_index, _ = run_region_graph(
        engine, transcript, reference=True
    )
    assert_documents_equal(documents, expected)
    assert index_to_state(index) == index_to_state(expected_index)
    return documents[0], annotated


def cuts(document):
    """``(c, m)``: the customer text's and the opening's token counts."""
    return (
        len(tokenize(document.get("customer_text"))),
        len(tokenize(document.get("opening"))),
    )


@pytest.fixture(scope="module")
def engine():
    return build_car_rental_engine()


class TestHandBuiltCalls:
    def test_place_across_the_customer_cut(self, engine):
        """"new" | "york city": the agent side is annotated on its own."""
        document, annotated = assert_call_like_reference(engine, call(
            ["hi there", "i want to book a car", "in new"],
            ["york city has a wonderful rate", "thanks"],
        ))
        cut, _ = cuts(document)
        (place,) = [
            c for c in document.require("annotated").concepts
            if c.canonical == "new york"
        ]
        assert place.start < cut < place.end
        assert annotated == 2
        assert document.get("value_selling") is True

    def test_discount_across_the_customer_cut(self, engine):
        """"corporate" | "program": a discount across the cut is not
        the agent's."""
        document, annotated = assert_call_like_reference(engine, call(
            ["i would like to make a booking", "for tomorrow",
             "through my corporate"],
            ["program is not valid here"],
        ))
        assert annotated == 2
        assert document.get("discount") is False

    def test_fallback_finds_what_the_range_would_miss(self, engine):
        """"corporate" | "discount": only the agent's own annotation
        sees "discount" as a concept of the agent's side."""
        document, annotated = assert_call_like_reference(engine, call(
            ["hello", "my name is pat", "do you honour a corporate"],
            ["discount is applied to every booking"],
        ))
        cut, _ = cuts(document)
        concepts = document.require("annotated").concepts
        assert not any(
            c.category == "discount" and c.start >= cut for c in concepts
        )
        assert annotated == 2
        assert document.get("discount") is True

    def test_payment_across_the_opening_cut(self, engine):
        """"master" | "card": the opening is annotated on its own."""
        document, annotated = assert_call_like_reference(engine, call(
            ["i want to book a car", "and pay with my master",
             "card if that is fine"],
            ["sure"],
        ))
        _, cut = cuts(document)
        (card,) = [
            c for c in document.require("annotated").concepts
            if c.canonical == "credit card"
        ]
        assert card.start < cut < card.end
        assert annotated == 2
        assert document.get("detected_intent") == "strong"

    def test_pattern_across_the_opening_cut_is_not_intent(self, engine):
        """"want to" | "book": a pattern over the cut is no one's intent."""
        document, annotated = assert_call_like_reference(engine, call(
            ["hello", "i want to", "book a suv in boston"],
            ["how can i help"],
        ))
        _, cut = cuts(document)
        crossing = [
            c for c in document.require("annotated").concepts
            if c.category == INTENT_CATEGORY and c.start < cut < c.end
        ]
        assert [c.surface for c in crossing] == ["want to book"]
        assert annotated == 1
        assert document.get("detected_intent") == "unknown"

    def test_intent_entry_cut_off_across_the_opening(self):
        """A longer entry across ``m`` hides a dictionary intent the
        opening alone has: only the fallback keeps it."""
        dictionary = build_car_rental_dictionary()
        dictionary.add(DictionaryEntry("book now", STRONG_START,
                                       INTENT_CATEGORY))
        dictionary.add(DictionaryEntry("book now please", "polite",
                                       "manners"))
        engine = AnnotationEngine(
            dictionary=dictionary, patterns=build_car_rental_patterns()
        )
        document, annotated = assert_call_like_reference(engine, call(
            ["hello", "i will book now", "please and thanks"],
            ["of course"],
        ))
        assert annotated == 2
        assert document.get("detected_intent") == "strong"

    @pytest.mark.parametrize("customer_parts, agent_parts", [
        ([], ["what a wonderful rate", "with a corporate discount"]),
        (["i want to book a car right away"], []),
        ([], []),
        (["i would like to make a booking"],
         ["just forty dollars", "motor club"]),
        (["", "how much is a suv", ""], ["", "good rate"]),
        (["café in são paulo — ¿how much?", "naïve rates for"],
         ["a wonderful rate, señor", "corporate program ✓"]),
    ], ids=["no-customer", "no-agent", "empty", "single-customer-part",
            "empty-parts", "non-ascii"])
    def test_edge_cases(self, engine, customer_parts, agent_parts):
        document, annotated = assert_call_like_reference(
            engine, call(customer_parts, agent_parts)
        )
        assert annotated == 1


def annotate_work(system, corpus):
    """``(texts, tokens)`` passed through ``AnnotationEngine.annotate``."""
    tokens = []
    original = AnnotationEngine.annotate

    def counting(self, text, *args, **kwargs):
        document = original(self, text, *args, **kwargs)
        tokens.append(len(document.tokens))
        return document

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AnnotationEngine, "annotate", counting)
        system.process_call_center(corpus)
    return len(tokens), sum(tokens)


class TestWorkGate:
    def test_seed1_study_annotates_each_call_once(self, corpora):
        corpus = corpora[1]
        assert annotate_work(BIVoCSystem(CONTENT), corpus) == (
            SEED1_ANNOTATED, SEED1_TOKENS
        )
        assert annotate_work(ReferenceSystem(CONTENT), corpus) == (
            SEED1_REFERENCE_ANNOTATED, SEED1_REFERENCE_TOKENS
        )
