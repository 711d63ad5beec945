"""The corrector's search memo: same corrections, one search per word.

A :class:`SpellCorrector` memoises its candidate search per lowered
word.  Over whole corpora corrected in stream order by one corrector,
every correction must ``==`` the linear-scan
:class:`~tests.cleaning.reference.ReferenceSpellCorrector` and a fresh
corrector that has never seen the word.  The memo must keep a
no-candidate token's own case and stay exact when it starts over.
"""

import sys
import threading

import pytest

from repro.cleaning import spelling
from repro.cleaning.sms import SmsNormalizer
from repro.cleaning.spelling import SpellCorrector
from repro.obs import MetricsRegistry, Tracer, activated
from tests.cleaning.corpus import (
    SEEDS,
    callcenter_notes,
    counting_searches,
    stream_order,
)


def assert_memo_is_exact(texts, reference):
    """One corrector over ``texts`` in order == reference == fresh."""
    corrector = SpellCorrector()
    corrected = {}
    with pytest.MonkeyPatch.context() as patch:
        searches = counting_searches(patch)
        for text in texts:
            for token in text.split():
                got = corrected[token] = corrector.correct_word(token)
                assert got == reference.correct_word(token), token
            assert corrector.correct(text) == reference.correct(text)
    # One search per distinct lowered word, however often it recurs.
    assert len(searches) == len(set(searches))
    assert len(searches) < sum(
        reference.scans(token) for text in texts for token in text.split()
    )
    for token, got in corrected.items():
        assert SpellCorrector().correct_word(token) == got, token
    return corrector


class TestMemoOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_telecom_stream_order(self, telecom, reference, seed):
        """Raw and lingo-normalised email and SMS, in arrival order."""
        normalizer = SmsNormalizer()
        texts = []
        for message in stream_order(telecom[seed]):
            texts.append(message.raw_text)
            texts.append(normalizer.normalize(message.raw_text))
        corrector = assert_memo_is_exact(texts, reference)
        assert len(corrector._searches) > 100

    @pytest.mark.parametrize("seed", SEEDS)
    def test_car_rental_notes(self, reference, seed):
        texts = [note.text for note in callcenter_notes(seed)]
        assert_memo_is_exact(texts, reference)


class TestCase:
    def test_no_candidate_keeps_its_own_case(self, reference):
        corrector = SpellCorrector()
        with pytest.MonkeyPatch.context() as patch:
            searches = counting_searches(patch)
            for token in ("Xyzzq", "xyzzq", "XYZZQ", "Xyzzq"):
                assert corrector.correct_word(token) == token
                assert reference.correct_word(token) == token
        assert searches == ["xyzzq"]

    def test_candidate_is_shared_across_cases(self, reference):
        corrector = SpellCorrector()
        with pytest.MonkeyPatch.context() as patch:
            searches = counting_searches(patch)
            for token in ("Balanse", "balanse", "BALANSE"):
                assert corrector.correct_word(token) == "balance"
                assert reference.correct_word(token) == "balance"
        assert searches == ["balanse"]


class TestBound:
    def test_memo_starts_over_past_its_limit(self, reference):
        words = [
            "balanse", "Xyzzq", "balanse", "chargs", "balanse", "netwrk",
            "balanse", "netwrk",
        ]
        corrector = SpellCorrector()
        metrics = MetricsRegistry()
        with pytest.MonkeyPatch.context() as patch, \
                activated(Tracer(), metrics):
            patch.setattr(spelling, "SEARCH_MEMO_LIMIT", 2)
            searches = counting_searches(patch)
            for word in words:
                assert corrector.correct_word(word) == reference.correct_word(
                    word
                ), word
                assert len(corrector._searches) <= 3
        # Three words fill the memo past its limit of two; the fourth
        # starts it over, so "balanse" is searched a second time.
        assert searches == [
            "balanse", "xyzzq", "chargs", "netwrk", "balanse",
        ]
        counters = metrics.snapshot()["counters"]
        assert counters["cleaning.spelling.searches"] == len(searches)


class TestSharedAcrossThreads:
    def test_threads_sharing_a_corrector_match_the_reference(
        self, reference
    ):
        words = ["balanse", "Xyzzq", "chargs", "netwrk", "complant",
                 "Balanse", "recieve", "monney", "xyzzq", "servise"]
        expected = [reference.correct_word(word) for word in words]
        corrector = SpellCorrector()
        failures = []

        def correct(offset):
            for step in range(200):
                index = (offset + step) % len(words)
                if corrector.correct_word(words[index]) != expected[index]:
                    failures.append(words[index])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as patch:
                # A tiny limit makes threads race the memo's reset too.
                patch.setattr(spelling, "SEARCH_MEMO_LIMIT", 3)
                threads = [
                    threading.Thread(target=correct, args=(3 * n,))
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
