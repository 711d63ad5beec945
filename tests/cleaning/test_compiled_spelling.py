"""The compiled spell corrector against the linear scan, and its work.

The oracle: :class:`SpellCorrector` (candidates from a symmetric-delete
index) equals :class:`~tests.cleaning.reference.ReferenceSpellCorrector`
(every vocabulary word within the edit budget in length), word for
word and text for text.  It runs the real default vocabulary over
telecom email and SMS, car-rental agent notes and channel-noised text
from seeds 1-3, over edit budgets 0-3, and a small corpus whose words
are transpositions of one another.

The work gate: one corrector over the seed-1 ``telecom-stream`` words
makes exactly one candidate search per distinct lowered word and
exactly the pinned number of distance evaluations, and its in-program
counters say the same.
"""

import pytest

from repro.cleaning import CleaningPipeline
from repro.cleaning.sms import SmsNormalizer
from repro.cleaning.spelling import SpellCorrector
from repro.obs import MetricsRegistry, Tracer, activated
from repro.synth.noise import NoiseConfig, TextNoiser
from tests.cleaning.corpus import (
    SEEDS,
    callcenter_notes,
    counting_evaluations,
    counting_searches,
    stream_words,
)
from tests.cleaning.reference import ReferenceSpellCorrector

#: Reference distance evaluations while cleaning the seed-1
#: telecom-stream corpus (1,128 corrected words reach the scan).
SEED1_REFERENCE_EVALUATIONS = 228_951

#: Candidate searches and distance evaluations one memoising corrector
#: makes over the same words: one search per distinct lowered word.
SEED1_SEARCHES = 464
SEED1_EVALUATIONS = 1_320


def assert_same_as_reference(compiled, reference, texts):
    """Every distinct token, then every whole text, corrects the same."""
    tokens = sorted({token for text in texts for token in text.split()})
    assert any(reference.scans(token) for token in tokens)
    for token in tokens:
        assert compiled.correct_word(token) == reference.correct_word(
            token
        ), token
    for text in texts:
        assert compiled.correct(text) == reference.correct(text)


class TestDefaultVocabularyOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("channel", ["emails", "sms"])
    def test_telecom_messages(self, telecom, reference, seed, channel):
        """Raw text and the lingo-normalised text the pipeline corrects."""
        normalizer = SmsNormalizer()
        raw = [m.raw_text for m in getattr(telecom[seed], channel)]
        texts = raw + [normalizer.normalize(text) for text in raw]
        assert_same_as_reference(SpellCorrector(), reference, texts)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_car_rental_notes(self, reference, seed):
        texts = [note.text for note in callcenter_notes(seed)]
        assert_same_as_reference(SpellCorrector(), reference, texts)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("channel", ["sms", "email"])
    def test_noised_telecom_text(self, telecom, reference, seed, channel):
        config = getattr(NoiseConfig, f"for_{channel}")()
        noiser = TextNoiser(config, seed=seed)
        clean = [m.clean_text for m in telecom[seed].messages]
        texts = [noiser.apply(text) for text in clean]
        assert texts != clean
        assert_same_as_reference(SpellCorrector(), reference, texts)

    def test_oracle_texts_change_words(self, telecom, reference):
        """The oracle exercises corrections, not only pass-throughs."""
        tokens = {
            token
            for message in telecom[1].sms
            for token in message.raw_text.split()
        }
        assert sum(
            reference.correct_word(token) != token for token in tokens
        ) > 100


class TestEditBudgets:
    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_budget(self, telecom, budget):
        texts = [m.raw_text for m in telecom[1].sms]
        assert_same_as_reference(
            SpellCorrector(max_edit_distance=budget),
            ReferenceSpellCorrector(max_edit_distance=budget),
            texts,
        )

    def test_budget_zero_changes_nothing(self, telecom):
        corrector = SpellCorrector(max_edit_distance=0)
        for message in telecom[1].sms:
            assert corrector.correct(message.raw_text) == " ".join(
                message.raw_text.split()
            )


#: Words that are adjacent transpositions of one another, with counts
#: that make some score ties and break others.
TRANSPOSED_CORPUS = [
    "trial trail trail angle angel diary dairy quiet quite quite",
    "form from abc",
]

TRANSPOSED_WORDS = [
    "trial", "tiral", "tral", "trai", "rtial", "angel", "agnle", "anlge",
    "daiyr", "diray", "quiet", "qiuet", "uqite", "fomr", "rfom", "orfm",
    "ca", "bca", "acb", "cab", "ab", "a", "", "xyz",
]


class TestTransposedCorpus:
    @pytest.mark.parametrize("budget", [0, 1, 2, 3])
    @pytest.mark.parametrize("min_length", [1, 4])
    def test_words(self, budget, min_length):
        compiled = SpellCorrector(
            TRANSPOSED_CORPUS, max_edit_distance=budget,
            min_length=min_length,
        )
        reference = ReferenceSpellCorrector(
            TRANSPOSED_CORPUS, max_edit_distance=budget,
            min_length=min_length,
        )
        for word in TRANSPOSED_WORDS:
            assert compiled.correct_word(word) == reference.correct_word(
                word
            ), word
        text = " ".join(TRANSPOSED_WORDS)
        assert compiled.correct(text) == reference.correct(text)

    def test_transposition_counts_once(self):
        corrector = SpellCorrector(TRANSPOSED_CORPUS, max_edit_distance=1)
        assert corrector.correct_word("tiral") == "trial"
        assert corrector.correct_word("qiuet") == "quiet"

    def test_osa_is_not_unrestricted_damerau(self):
        """"ca" is 2 unrestricted edits from "abc" but 3 OSA edits."""
        corrector = SpellCorrector(
            ["abc"], max_edit_distance=2, min_length=1
        )
        assert corrector.correct_word("ca") == "ca"
        assert corrector.correct_word("cab") == "abc"


class TestWorkGate:
    def test_one_search_per_distinct_word(self, telecom, reference):
        words = stream_words(telecom[1])
        assert sum(
            reference.evaluations(word) for word in words
        ) == SEED1_REFERENCE_EVALUATIONS
        corrector = SpellCorrector()
        metrics = MetricsRegistry()
        with pytest.MonkeyPatch.context() as patch, \
                activated(Tracer(), metrics):
            searches = counting_searches(patch)
            evaluations = counting_evaluations(patch)
            for word in words:
                corrector.correct_word(word)
        assert len(searches) == len(set(searches)) == SEED1_SEARCHES
        assert len(evaluations) == SEED1_EVALUATIONS
        counters = metrics.snapshot()["counters"]
        assert counters["cleaning.spelling.searches"] == len(searches)
        assert counters["cleaning.spelling.evaluations"] == len(evaluations)


class TestSharedTables:
    def test_default_correctors_share_one_compile(self):
        assert SpellCorrector()._tables is SpellCorrector()._tables
        assert (
            CleaningPipeline(spell_correct=False).corrector._tables
            is SpellCorrector()._tables
        )

    def test_tables_are_read_only(self):
        tables = SpellCorrector()._tables
        with pytest.raises(TypeError):
            tables.counts["balance"] = 1
        with pytest.raises(TypeError):
            tables.scan["zzzz"] = 0
        with pytest.raises(TypeError):
            tables.deletes["balance"] = ()
        assert all(
            isinstance(words, tuple) for words in tables.deletes.values()
        )
        with pytest.raises(AttributeError):
            tables.total = 0
