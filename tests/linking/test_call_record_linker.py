"""The certifying call-record linker against the full-scoring reference.

The oracle: :class:`CallRecordLinker` returns the record, and tags its
``link:call-record`` span with a ``best_score``, ``==`` those of
:class:`~tests.linking.reference.ReferenceCallRecordLinker`, which
scores every blocked candidate against every identity token.  The
calls are the car-rental customer turns of seeds 1-3, clean and SMS-
and email-noised, plus hand-built blocks for the tie and gap cases.

The work gate, at tolerance 0: the seed-1 callcenter study (the clean
calls of ``run_insight_analysis``) certifies every link and scores
nothing, against the reference's 916 similarity evaluations; its
noised calls make 800 against 1,532.  The program's
``linking.call_record.certified`` and ``.scored`` counters read the
same work.
"""

import pytest

from repro.core import pipeline
from repro.core.config import BIVoCConfig
from repro.core.pipeline import CallRecordLinker
from repro.core.usecases.agent_productivity import run_insight_analysis
from repro.linking.annotators import TypedToken
from repro.linking.similarity import SimilarityRegistry, default_registry
from repro.obs import MetricsRegistry, Tracer, activated
from repro.store.database import Database
from repro.store.schema import AttributeType, Schema
from repro.synth.noise import NoiseConfig, TextNoiser
from tests.linking.reference import ReferenceCallRecordLinker
from tests.linking.test_similarity_kernels import (
    RememberingOracle,
    callcenter_corpus,
    car_rental_calls,
    customer_calls,
)

SEEDS = (1, 2, 3)

#: Similarity evaluations of the seed-1 callcenter study's clean calls,
#: by the reference and by the certifying linker.
SEED1_REFERENCE_CLEAN_EVALUATIONS = 916
SEED1_CLEAN_EVALUATIONS = 0

#: The same over the seed-1 calls noised for SMS and for email.
SEED1_REFERENCE_NOISED_EVALUATIONS = 1_532
SEED1_NOISED_EVALUATIONS = 800

#: Links decided without scoring, and candidates scored in full.
SEED1_CLEAN_CERTIFIED = 96
SEED1_NOISED_CERTIFIED = 102
SEED1_NOISED_SCORED = 348


def traced_links(linker, calls):
    """``(records, best_score tags, call-record counters)`` of ``calls``."""
    tracer, metrics = Tracer(), MetricsRegistry()
    with activated(tracer, metrics):
        records = [linker.link(*call) for call in calls]
    tags = [
        span.tags.get("best_score")
        for span in tracer.finished()
        if span.name == "link:call-record"
    ]
    counters = {
        name.rsplit(".", 1)[1]: value
        for name, value in metrics.snapshot()["counters"].items()
        if name.startswith("linking.call_record.")
    }
    return records, tags, counters


def assert_links_like_reference(linker, reference, calls):
    """Records and ``best_score`` tags ``==``; the linker's reads."""
    records, tags, counters = traced_links(linker, calls)
    expected_records, expected_tags, _ = traced_links(reference, calls)
    assert records == expected_records
    assert tags == expected_tags
    assert all(type(tag) is type(expected) for tag, expected in zip(
        tags, expected_tags
    ))
    return records, tags, counters


def counted_evaluations(run):
    """Similarity evaluations made while ``run()`` runs."""
    calls = []
    original = SimilarityRegistry.similarity

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimilarityRegistry, "similarity", counting)
        run()
    return len(calls)


@pytest.fixture(scope="module")
def car_rental():
    return {seed: callcenter_corpus(seed) for seed in SEEDS}


class TestCarRentalCalls:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_clean_and_noised_calls(self, car_rental, seed):
        database = car_rental[seed].database
        calls = car_rental_calls(car_rental[seed], seed)
        _, _, counters = assert_links_like_reference(
            CallRecordLinker(database),
            ReferenceCallRecordLinker(database),
            calls,
        )
        # Both paths run: certified links and blocks scored in full.
        assert counters["certified"] > 0
        assert counters["scored"] > 0
        assert counters["attempts"] == len(calls)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_registry_without_exact_tests_scores_in_full(
        self, car_rental, seed
    ):
        database = car_rental[seed].database
        calls = customer_calls(car_rental[seed])
        oracle = RememberingOracle()
        _, _, counters = assert_links_like_reference(
            CallRecordLinker(database, registry=oracle),
            ReferenceCallRecordLinker(database, registry=oracle),
            calls,
        )
        assert "certified" not in counters
        assert counters["scored"] > 0


def hand_built_database():
    """Customers with a near twin and missing values; one day of calls.

    Customer 1 differs from customer 0 only by one date component, so
    it scores 2/3 below a perfect match.  Customer 2 has no phone and
    customer 3 no date of birth.
    """
    database = Database()
    customers = database.create_table("customers", Schema.build(
        ("name", AttributeType.NAME, True),
        ("phone", AttributeType.PHONE, True),
        ("dob", AttributeType.DATE, True),
    ))
    customers.insert_many([
        {"name": "john smith", "phone": "5558675309", "dob": "1980-01-01"},
        {"name": "john smith", "phone": "5558675309", "dob": "1980-01-02"},
        {"name": "mary walker", "phone": None, "dob": "1975-05-05"},
        {"name": "jon smyth", "phone": "7770001111", "dob": None},
    ])
    calls = database.create_table("calls", Schema.build(
        ("agent_name", AttributeType.CATEGORY),
        ("customer_ref", AttributeType.NUMBER),
        ("day", AttributeType.NUMBER),
    ))
    for agent, refs in BLOCKS.items():
        calls.insert_many(
            {"agent_name": agent, "customer_ref": ref, "day": 0}
            for ref in refs
        )
    return database


#: Agent -> the customers of the calls in that agent's block, in order.
BLOCKS = {
    "twice": [0, 0],
    "near-first": [1, 0, 0],
    "missing": [2, 3],
    "near-only": [1, 3],
}

JOHN = TypedToken("john smith", AttributeType.NAME, "name")
PHONE = TypedToken("5558675309", AttributeType.PHONE, "phone")
DOB = TypedToken("1980-01-01", AttributeType.DATE, "date")
MARY = TypedToken("mary walker", AttributeType.NAME, "name")
JON = TypedToken("jon smyth", AttributeType.NAME, "name")
MONEY = TypedToken("250", AttributeType.MONEY, "amount")


class FixedTokens:
    """Annotators that read the tokens off a dict keyed by the text."""

    def __init__(self, tokens):
        self.tokens = tokens

    def annotate(self, text):
        return list(self.tokens[text])


#: Text -> its tokens.  MONEY maps to no customer attribute.
TEXTS = {
    "full": [JOHN, PHONE, DOB],
    "name": [JOHN],
    "mary": [MARY, PHONE],
    "mary-only": [MARY],
    "jon-dob": [JON, DOB],
    "money": [MONEY],
    "money-name": [MONEY, JOHN],
}


def hand_built_pair(**settings):
    """The certifying linker and the reference over the hand-built table."""
    database = hand_built_database()
    annotators = FixedTokens(TEXTS)
    return (
        CallRecordLinker(database, annotators=annotators, **settings),
        ReferenceCallRecordLinker(database, annotators=annotators, **settings),
    )


def link_one(text, agent, **settings):
    """``(record id, best_score tag, counters)`` of one hand-built call."""
    (record,), (tag,), counters = assert_links_like_reference(
        *hand_built_pair(**settings), [(text, agent, 0)]
    )
    return (None if record is None else record.entity_id), tag, counters


class TestHandBuiltBlocks:
    def test_first_of_two_records_of_one_customer_wins(self):
        record, score, counters = link_one("full", "twice")
        assert record == 0  # the first call of the block
        assert score == 3.0 and type(score) is float
        assert counters["certified"] == 1 and "scored" not in counters

    def test_near_exact_candidate_before_an_exact_one(self):
        record, score, counters = link_one("full", "near-first")
        assert record == 3  # customer 0's first call, after customer 1's
        assert score == 1.0 + 1.0 + 1.0
        assert counters["certified"] == 1

    def test_near_exact_only_is_scored(self):
        record, score, counters = link_one("full", "near-only")
        assert record == 7  # customer 1 at 2 + 2/3
        assert 2.0 < score < 3.0
        assert counters["scored"] == 2 and "certified" not in counters

    def test_shared_name_certifies_the_first_candidate(self):
        record, score, counters = link_one("name", "near-first")
        assert record == 2  # customer 1 is a whole match on the name
        assert score == 1.0
        assert counters["certified"] == 1

    def test_missing_attribute_fails_the_test(self):
        # Customer 2 has no phone, so no candidate passes every test.
        record, score, counters = link_one("mary", "missing")
        assert record == 5
        assert score == 1.0
        assert counters["scored"] == 2

    def test_missing_attribute_outside_the_tokens_is_ignored(self):
        record, _, counters = link_one("mary-only", "missing")
        assert record == 5
        assert counters["certified"] == 1

    def test_missing_date_of_birth(self):
        record, score, counters = link_one("jon-dob", "missing")
        assert record == 6  # customer 3 on the name alone
        assert score == 1.0
        assert counters["scored"] == 2

    @pytest.mark.parametrize("min_score", [0.3, 0.0])
    def test_tokens_without_an_attribute_link_nothing(self, min_score):
        # No pairs at all: every candidate scores 0.0, none strictly
        # beats the starting best, and nothing is certified by default.
        record, score, counters = link_one(
            "money", "twice", min_score=min_score
        )
        assert record is None
        assert score == 0.0
        assert "certified" not in counters

    def test_tokens_without_an_attribute_add_no_pair(self):
        record, score, counters = link_one("money-name", "twice")
        assert record == 0
        assert score == 1.0
        assert counters["certified"] == 1

    def test_min_score_above_n(self):
        record, score, counters = link_one("full", "twice", min_score=3.5)
        assert record is None
        assert score == 3.0
        assert counters["certified"] == 1 and counters.get("hits") is None

    def test_registered_measure_scores_in_full(self):
        registry = default_registry().register(
            AttributeType.DATE, lambda token, value: float(token == value)
        )
        record, score, counters = link_one(
            "full", "near-first", registry=registry
        )
        assert record == 3
        assert score == 3.0
        assert counters["scored"] == 3 and "certified" not in counters


class TestWorkGate:
    def test_seed1_callcenter_study(self, car_rental):
        corpus = car_rental[1]
        config = BIVoCConfig(use_asr=False, link_mode="content")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                pipeline, "CallRecordLinker", ReferenceCallRecordLinker
            )
            expected_evaluations = counted_evaluations(
                lambda: run_insight_analysis(corpus, config)
            )
        assert expected_evaluations == SEED1_REFERENCE_CLEAN_EVALUATIONS

        metrics = MetricsRegistry()
        results = []

        def study():
            with activated(Tracer(), metrics):
                results.append(run_insight_analysis(corpus, config))

        assert counted_evaluations(study) == SEED1_CLEAN_EVALUATIONS
        counters = metrics.snapshot()["counters"]
        assert counters["linking.call_record.certified"] == (
            SEED1_CLEAN_CERTIFIED
        )
        assert "linking.call_record.scored" not in counters
        analysis = results[0].analysis
        assert analysis.link_successes == analysis.link_attempts == 96

    def test_seed1_noised_calls(self, car_rental):
        corpus = car_rental[1]
        calls = [
            call
            for config in (NoiseConfig.for_sms(), NoiseConfig.for_email())
            for call in customer_calls(corpus, TextNoiser(config, seed=1))
        ]
        reference = ReferenceCallRecordLinker(corpus.database)
        assert counted_evaluations(
            lambda: [reference.link(*call) for call in calls]
        ) == SEED1_REFERENCE_NOISED_EVALUATIONS

        linker = CallRecordLinker(corpus.database)
        metrics = MetricsRegistry()

        def link_all():
            with activated(Tracer(), metrics):
                for call in calls:
                    linker.link(*call)

        assert counted_evaluations(link_all) == SEED1_NOISED_EVALUATIONS
        counters = metrics.snapshot()["counters"]
        assert counters["linking.call_record.certified"] == (
            SEED1_NOISED_CERTIFIED
        )
        assert counters["linking.call_record.scored"] == SEED1_NOISED_SCORED
