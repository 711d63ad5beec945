"""Non-English message detection.

"Similarly we filtered out sms messages which largely contained
non-english words using a dictionary." (paper Section VI)

The filter scores the fraction of alphabetic tokens found in an
English dictionary (the spelling corpus plus a stopword list) and
discards messages below a threshold.  Known romanised-Hindi tokens are
counted as explicit negative evidence so short mixed messages are
handled sensibly.
"""

from functools import lru_cache

from repro.cleaning.spelling import default_spelling_corpus
from repro.synth.lexicon import (
    CITIES,
    FIRST_NAMES,
    MULTILINGUAL_FRAGMENTS,
    SMS_LINGO,
    SPAM_TEMPLATES,
    SURNAMES,
    VEHICLE_SURFACES,
)

_STOPWORDS = {
    "the", "a", "an", "is", "am", "are", "was", "were", "i", "you",
    "he", "she", "it", "we", "they", "my", "your", "of", "to", "in",
    "on", "for", "and", "or", "not", "no", "yes", "this", "that",
    "with", "at", "me", "do", "did", "have", "has", "be", "so", "but",
}


@lru_cache(maxsize=1)
def _vocabularies():
    """The (English, foreign) word sets, built once per process."""
    vocabulary = set(_STOPWORDS)
    for sentence in default_spelling_corpus():
        vocabulary.update(sentence.lower().split())
    vocabulary.update(word.lower() for word in FIRST_NAMES)
    vocabulary.update(word.lower() for word in SURNAMES)
    # Domain vocabulary from the call-center side (cities, vehicle
    # surfaces) is English even though the telecom corpora never
    # use it.
    for city in CITIES:
        vocabulary.update(city.split())
    for surfaces in VEHICLE_SURFACES.values():
        for surface in surfaces:
            vocabulary.update(surface.split())
    vocabulary.update(
        ("quoted", "agreed", "rates", "prices", "dates", "status",
         "conf", "expensive", "satisfied")
    )
    # SMS lingo counts as English: it will be normalised later.
    vocabulary.update(SMS_LINGO.values())
    # Spam is English too — it must survive to the spam filter so
    # the funnel attributes the discard to the right reason.
    for template in SPAM_TEMPLATES:
        vocabulary.update(
            word for word in template.split() if word.isalpha()
        )
    foreign = set()
    for fragment in MULTILINGUAL_FRAGMENTS:
        foreign.update(fragment.split())
    return frozenset(vocabulary), frozenset(foreign)


class LanguageFilter:
    """Flags messages that are largely non-English."""

    def __init__(self, english_threshold=0.5):
        self._threshold = english_threshold
        self._vocabulary, self._foreign = _vocabularies()

    def english_score(self, text):
        """Fraction of alphabetic tokens recognised as English."""
        tokens = [
            token.lower()
            for token in text.split()
            if token and token[0].isalpha()
        ]
        if not tokens:
            return 1.0  # pure numbers/punctuation: nothing to reject
        english = 0
        for token in tokens:
            if token in self._foreign:
                continue
            if token in self._vocabulary:
                english += 1
        return english / len(tokens)

    def is_english(self, text):
        """True when the English score clears the threshold."""
        return self.english_score(text) >= self._threshold
