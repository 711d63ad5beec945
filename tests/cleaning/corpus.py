"""The real corpora the cleaning oracles and work gates run on.

Telecom email and SMS are the ``telecom-stream`` benchmark corpus;
agent notes are those of the call-center benchmark corpus.  Both come
from seeds 1-3.  The counting patches record the corrector's work as
its kernels see it.
"""

import pytest

from repro.cleaning import CleaningPipeline, spelling
from repro.cleaning.spelling import SpellCorrector
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.notes import AgentNoteGenerator
from repro.synth.telecom import TelecomConfig, generate_telecom

SEEDS = (1, 2, 3)


def telecom_corpus(seed):
    """The telecom-stream benchmark corpus: 674 messages."""
    return generate_telecom(TelecomConfig(
        scale=0.002, n_customers=300, seed=seed,
    ))


def callcenter_notes(seed):
    """Agent notes for the 96 calls of the call-center benchmark corpus."""
    corpus = generate_car_rental(CarRentalConfig(
        n_agents=12, n_days=2, calls_per_agent_per_day=4,
        n_customers=160, seed=seed,
    ))
    return AgentNoteGenerator(seed=seed).notes_for_corpus(corpus)


def stream_order(corpus):
    """Telecom messages in the stream's arrival order: month, then id."""
    return sorted(corpus.messages, key=lambda m: (m.month, m.message_id))


def stream_words(corpus):
    """Every word the telecom-stream cleaning step corrects, in order."""
    words = []
    original = SpellCorrector.correct_word

    def recording(self, word):
        words.append(word)
        return original(self, word)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SpellCorrector, "correct_word", recording)
        pipeline = CleaningPipeline()
        for message in stream_order(corpus):
            pipeline.clean(message.raw_text, channel=message.channel)
    return words


def counting_searches(patch):
    """Record the lowered word of every candidate search, in order."""
    searches = []
    search = SpellCorrector._candidates

    def counting(self, word):
        searches.append(word)
        return search(self, word)

    patch.setattr(SpellCorrector, "_candidates", counting)
    return searches


def counting_evaluations(patch):
    """Record every distance evaluation a search makes, in order."""
    evaluations = []
    distance = spelling.damerau_levenshtein

    def counting(a, b):
        evaluations.append((a, b))
        return distance(a, b)

    patch.setattr(spelling, "damerau_levenshtein", counting)
    return evaluations
