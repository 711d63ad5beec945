"""The linker's similarity kernels against the DP reference, and their work.

The oracle: the default registry (bit-parallel edit distance, a run
search bounded by the edit score, a Jaro-Winkler word-pair memo)
scores ``==`` the reference registry of
:mod:`tests.linking.reference` on every ``(type, token, value)`` pair
the real linkers score: the churn study's :class:`EntityLinker` over
raw and cleaned telecom email and SMS, and :class:`CallRecordLinker`
over clean and channel-noised car-rental transcripts, seeds 1-3.  The
links and ranked lists they return are ``==`` too.  Random digit
strings and token lists cover the kernels past what the corpora reach.

The work gate: on the seed-1 churn-email study, the memo calls
Jaro-Winkler exactly once per distinct word pair, on 4,280 of the
11,278 distinct pairs the reference (the eager linker over the
reference registry) scores in its 60,776 calls; the lazy lists never
score the rest.  Each study starts with a cold memo.
"""

import pickle
import random
import sys
import threading
from dataclasses import asdict

import pytest

from repro.cleaning import CleaningPipeline
from repro.core.pipeline import CallRecordLinker
from repro.core.usecases import churn
from repro.core.usecases.churn import (
    build_churn_stages,
    link_evidence_text,
    run_churn_study,
)
from repro.linking import similarity, single
from repro.linking.similarity import SimilarityRegistry, default_registry
from repro.linking.single import EntityLinker
from repro.store.schema import AttributeType
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.noise import NoiseConfig, TextNoiser
from repro.synth.telecom import TelecomConfig, generate_telecom
from repro.util.textdist import levenshtein
from tests.linking import reference
from tests.linking.reference import EagerEntityLinker, reference_registry

SEEDS = (1, 2, 3)

#: Jaro-Winkler calls the reference makes in one seed-1 churn-email
#: study (one per word pair of every name comparison), and the distinct
#: word pairs among them.
SEED1_REFERENCE_JARO_WINKLER_CALLS = 60_776
SEED1_REFERENCE_WORD_PAIRS = 11_278

#: Jaro-Winkler calls the linker makes in that study: one per distinct
#: word pair of the entries its lazy lists score.
SEED1_JARO_WINKLER_CALLS = 4_280


def churn_corpus(seed):
    """The churn-email benchmark corpus: 190 emails, 400 customers."""
    return generate_telecom(TelecomConfig(
        scale=0.004, n_customers=400, email_churner_fraction=0.2,
        seed=seed,
    ))


def callcenter_corpus(seed):
    """The callcenter benchmark corpus: 96 calls, 160 customers."""
    return generate_car_rental(CarRentalConfig(
        n_agents=12, n_days=2, calls_per_agent_per_day=4,
        n_customers=160, seed=seed,
    ))


def churn_linker(corpus, registry=None):
    """The churn study's linker, optionally over another registry."""
    linker = build_churn_stages(corpus)[1].linker
    if registry is not None:
        linker.registry = registry
    return linker


def message_texts(corpus):
    """Raw and cleaned (link evidence) text of every email and SMS."""
    pipeline = CleaningPipeline(spell_correct=False)
    texts = []
    for channel, messages in (("email", corpus.emails), ("sms", corpus.sms)):
        for message in messages:
            texts.append(message.raw_text)
            cleaned = pipeline.clean(message.raw_text, channel=channel)
            if not cleaned.discarded:
                texts.append(link_evidence_text(
                    channel, cleaned.text, message.raw_text
                ))
    return texts


def customer_calls(corpus, noiser=None):
    """``(customer text, agent, day)`` of every transcript."""
    calls = []
    for transcript in corpus.transcripts:
        text = " ".join(
            words for speaker, words in transcript.turns
            if speaker == "customer"
        )
        if noiser is not None:
            text = noiser.apply(text)
        calls.append((text, transcript.agent_name, transcript.day))
    return calls


def recorded_pairs(run):
    """``(type, token, value) -> score`` of every pair scored in ``run()``."""
    scores = {}
    original = SimilarityRegistry.similarity

    def recording(self, attr_type, token_value, attribute_value):
        score = original(self, attr_type, token_value, attribute_value)
        scores[attr_type, token_value, attribute_value] = score
        return score

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimilarityRegistry, "similarity", recording)
        run()
    return scores


class RememberingOracle:
    """The reference registry, remembering each triple it has scored.

    The reference measures are pure functions of the triple, so this
    only saves the tests from scoring a triple twice.
    """

    def __init__(self):
        self._registry = reference_registry()
        self._scores = {}

    def similarity(self, attr_type, token_value, attribute_value):
        pair = (attr_type, token_value, attribute_value)
        if pair not in self._scores:
            self._scores[pair] = self._registry.similarity(*pair)
        return self._scores[pair]


def assert_scores_like_reference(scores, oracle):
    assert scores
    for pair, score in scores.items():
        assert score == oracle.similarity(*pair), pair


@pytest.fixture(scope="module")
def telecom():
    return {seed: churn_corpus(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def telecom_texts(telecom):
    return {seed: message_texts(corpus) for seed, corpus in telecom.items()}


@pytest.fixture(scope="module")
def car_rental():
    return {seed: callcenter_corpus(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def oracle():
    return RememberingOracle()


def car_rental_calls(corpus, seed):
    """Clean, then SMS- and email-noised, customer calls."""
    calls = customer_calls(corpus)
    for config in (NoiseConfig.for_sms(), NoiseConfig.for_email()):
        calls += customer_calls(corpus, TextNoiser(config, seed=seed))
    return calls


class TestLinkerPairs:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_telecom_messages(self, telecom, telecom_texts, oracle, seed):
        linker = churn_linker(telecom[seed])
        scores = recorded_pairs(
            lambda: [linker.link(text, k=5) for text in telecom_texts[seed]]
        )
        types = {pair[0] for pair in scores}
        assert {AttributeType.NAME, AttributeType.PHONE} <= types
        assert_scores_like_reference(scores, oracle)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_car_rental_calls(self, car_rental, oracle, seed):
        linker = CallRecordLinker(car_rental[seed].database)
        calls = car_rental_calls(car_rental[seed], seed)
        scores = recorded_pairs(
            lambda: [linker.link(*call) for call in calls]
        )
        types = {pair[0] for pair in scores}
        assert {AttributeType.NAME, AttributeType.PHONE} <= types
        assert_scores_like_reference(scores, oracle)


class TestLinkResults:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_entity_linker(self, telecom, telecom_texts, oracle, seed):
        corpus = telecom[seed]
        kernels = churn_linker(corpus)
        reference_linker = churn_linker(corpus, oracle)
        linked = 0
        for text in telecom_texts[seed]:
            result = kernels.link(text, k=5)
            expected = reference_linker.link(text, k=5)
            assert result.ranked == expected.ranked, text
            assert result.score == expected.score
            assert result.entity == expected.entity
            linked += result.linked
        assert linked > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_call_record_linker(self, car_rental, oracle, seed):
        database = car_rental[seed].database
        kernels = CallRecordLinker(database)
        reference_linker = CallRecordLinker(database, registry=oracle)
        calls = car_rental_calls(car_rental[seed], seed)
        records = [kernels.link(*call) for call in calls]
        assert records == [reference_linker.link(*call) for call in calls]
        assert any(record is not None for record in records)


#: The case that needs the run bound inclusive: the edit score
#: ``1 - 12/13`` rounds one ulp below the run score ``1/13``.
ULP_CASE = ("5", "0150317041405")


class TestDigitKernels:
    def test_inclusive_run_bound_keeps_the_last_ulp(self):
        token, value = ULP_CASE
        assert 1.0 - 12 / 13 < 1 / 13
        assert similarity.digits_similarity(token, value) == 1 / 13
        assert similarity.digits_similarity(
            token, value
        ) == reference.digits_similarity(token, value)

    def test_random_digit_strings(self):
        rng = random.Random(20)
        for _ in range(20_000):
            token = "".join(
                rng.choice("0123456789"[:rng.randint(1, 10)])
                for _ in range(rng.randint(0, 14))
            )
            value = "".join(
                rng.choice("0123456789 -")
                for _ in range(rng.randint(0, 14))
            )
            assert similarity.digits_similarity(
                token, value
            ) == reference.digits_similarity(token, value), (token, value)

    def test_run_search_equals_dp(self):
        rng = random.Random(21)
        for _ in range(5_000):
            a = "".join(rng.choice("012") for _ in range(rng.randint(1, 14)))
            b = "".join(rng.choice("012") for _ in range(rng.randint(1, 14)))
            run = reference.longest_common_substring(a, b)
            for at_least in range(-1, 16):
                found = similarity._longest_run(a, b, at_least)
                assert found == (run if run >= at_least else 0), (a, b)

    def test_levenshtein_equals_dp_on_strings(self):
        rng = random.Random(22)
        for _ in range(20_000):
            alphabet = rng.choice(["01", "0123456789", "abcdefgh"])
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            assert levenshtein(a, b) == reference.levenshtein(a, b), (a, b)

    def test_levenshtein_equals_dp_past_one_machine_word(self):
        rng = random.Random(23)
        for _ in range(20):
            a = "".join(rng.choice("ab") for _ in range(rng.randint(60, 200)))
            b = "".join(rng.choice("ab") for _ in range(rng.randint(60, 200)))
            assert levenshtein(a, b) == reference.levenshtein(a, b)

    def test_levenshtein_equals_dp_on_token_lists(self):
        rng = random.Random(24)
        words = ["book", "a", "car", "for", "friday", "the", "rate", "uh"]
        for _ in range(5_000):
            a = [rng.choice(words) for _ in range(rng.randint(0, 12))]
            b = tuple(rng.choice(words) for _ in range(rng.randint(0, 12)))
            assert levenshtein(a, b) == reference.levenshtein(a, b), (a, b)
            assert levenshtein(b, a) == reference.levenshtein(b, a), (a, b)


def jaro_winkler_calls(patch, module):
    """Record the word pairs ``module``'s Jaro-Winkler is called on."""
    calls = []
    original = module.jaro_winkler

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    patch.setattr(module, "jaro_winkler", counting)
    return calls


class TestWorkGate:
    def test_memo_scores_each_word_pair_once(self, telecom):
        corpus = telecom[1]
        with pytest.MonkeyPatch.context() as patch:
            expected_calls = jaro_winkler_calls(patch, reference)
            patch.setattr(single, "default_registry", reference_registry)
            patch.setattr(churn, "EntityLinker", EagerEntityLinker)
            expected = run_churn_study(corpus, channel="email")
        assert len(expected_calls) == SEED1_REFERENCE_JARO_WINKLER_CALLS
        assert len(set(expected_calls)) == SEED1_REFERENCE_WORD_PAIRS

        counts = []
        for _ in range(2):  # each study starts with a cold memo
            with pytest.MonkeyPatch.context() as patch:
                calls = jaro_winkler_calls(patch, similarity)
                result = run_churn_study(corpus, channel="email")
            counts.append(len(calls))
        assert len(calls) == len(set(calls)) == SEED1_JARO_WINKLER_CALLS
        assert set(calls) <= set(expected_calls)
        assert counts[0] == counts[1]
        assert asdict(result.message_report) == asdict(
            expected.message_report
        )
        assert result.flagged_customers == expected.flagged_customers
        assert result.linked_messages == expected.linked_messages

    def test_registries_do_not_share_a_memo(self):
        with pytest.MonkeyPatch.context() as patch:
            calls = jaro_winkler_calls(patch, similarity)
            for registry in (default_registry(), default_registry()):
                registry.similarity(AttributeType.NAME, "jon", "john smith")
                registry.similarity(AttributeType.NAME, "jon", "john smith")
        assert len(calls) == 4


class TestPickleHygiene:
    def test_pickled_registry_never_carries_the_memo(
        self, telecom, telecom_texts
    ):
        linker = churn_linker(telecom[1])
        before = len(pickle.dumps(linker.registry))
        texts = telecom_texts[1][:50]
        scores = recorded_pairs(lambda: [linker.link(text) for text in texts])
        assert any(pair[0] is AttributeType.NAME for pair in scores)
        assert len(pickle.dumps(linker.registry)) == before

        copy = pickle.loads(pickle.dumps(linker.registry))
        for pair, score in scores.items():
            assert copy.similarity(*pair) == score

    def test_memo_starts_over_past_its_limit(self):
        registry = default_registry()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "WORD_PAIR_MEMO_LIMIT", 3)
            calls = jaro_winkler_calls(patch, similarity)
            for word in ("ann", "bob", "cy", "dee", "eve"):
                registry.similarity(AttributeType.NAME, word, "john")
            registry.similarity(AttributeType.NAME, "ann", "john")
        assert len(calls) == 6
        assert registry.similarity(
            AttributeType.NAME, "ann", "john"
        ) == reference.name_similarity("ann", "john")


class TestSharedAcrossThreads:
    def test_threads_sharing_a_registry_score_like_the_reference(self):
        names = ["john smith", "jon smyth", "mary walker", "joan smit",
                 "walker mary", "jo", "smithe jonny", "marie wlaker"]
        pairs = [(a, b) for a in names for b in names]
        expected = [reference.name_similarity(a, b) for a, b in pairs]
        registry = default_registry()
        failures = []

        def score(offset):
            for step in range(200):
                index = (offset + step) % len(pairs)
                got = registry.similarity(AttributeType.NAME, *pairs[index])
                if got != expected[index]:
                    failures.append(pairs[index])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as patch:
                # A tiny limit makes threads race the memo's reset too.
                patch.setattr(similarity, "WORD_PAIR_MEMO_LIMIT", 7)
                threads = [
                    threading.Thread(target=score, args=(7 * n,))
                    for n in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def test_every_linker_builds_its_own_registry(telecom):
    database = telecom[1].database
    first = EntityLinker(database, "customers")
    second = EntityLinker(database, "customers")
    assert first.registry is not second.registry
