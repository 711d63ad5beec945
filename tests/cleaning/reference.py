"""The linear-scan spell corrector, kept as the reference for the index.

Candidate generation runs the distance function against every
vocabulary word within the edit budget in length, in order of length
then first occurrence: the corrector before candidates came from a
symmetric-delete index.  Only tests use it.
"""

from collections import Counter

from repro.cleaning.spelling import default_spelling_corpus
from repro.util.textdist import damerau_levenshtein


class ReferenceSpellCorrector:
    """Noisy-channel corrector whose candidates come from a full scan."""

    def __init__(self, corpus=None, max_edit_distance=2, min_length=4):
        counts = Counter()
        if corpus is None:
            corpus = default_spelling_corpus()
        for sentence in corpus:
            for word in sentence.lower().split():
                if word.isalpha():
                    counts[word] += 1
        self._counts = counts
        self._total = sum(counts.values())
        self._max_edit = max_edit_distance
        self._min_length = min_length
        self._by_length = {}
        for word in counts:
            self._by_length.setdefault(len(word), []).append(word)
        # correct_word is a pure function of the word; the memo keeps
        # full-text comparisons cheap.
        self._memo = {}

    def scans(self, word):
        """True when ``correct_word(word)`` reaches the candidate scan."""
        lowered = word.lower()
        return (
            lowered.isalpha()
            and len(lowered) >= self._min_length
            and lowered not in self._counts
        )

    def _lengths(self, word):
        return range(len(word) - self._max_edit, len(word) + self._max_edit + 1)

    def evaluations(self, word):
        """Distance evaluations ``correct_word(word)`` makes."""
        if not self.scans(word):
            return 0
        return sum(
            len(self._by_length.get(length, ()))
            for length in self._lengths(word)
        )

    def _candidates(self, word):
        found = []
        for length in self._lengths(word):
            for candidate in self._by_length.get(length, ()):
                distance = damerau_levenshtein(word, candidate)
                if distance <= self._max_edit:
                    found.append((candidate, distance))
        return found

    def correct_word(self, word):
        """Best correction for one token (or the token unchanged)."""
        if word not in self._memo:
            self._memo[word] = self._correct_word(word)
        return self._memo[word]

    def _correct_word(self, word):
        if not self.scans(word):
            return word
        candidates = self._candidates(word.lower())
        if not candidates:
            return word

        def score(pair):
            candidate, distance = pair
            prior = self._counts[candidate] / self._total
            return prior * (0.08 ** distance)

        best, _ = max(candidates, key=score)
        return best

    def correct(self, text):
        """Correct every token of a message."""
        return " ".join(self.correct_word(token) for token in text.split())
