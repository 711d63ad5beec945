"""Reference cleaning kernels, kept to check the compiled ones with ``==``.

:func:`reference_osa_distance` is the optimal-string-alignment distance
as the full O(n*m) dynamic program, as before the bit-parallel kernel.
:func:`reference_deletes` makes every delete variant once per order of
its deletes, as before each set of deleted positions was cut once.

:class:`ReferenceSpellCorrector` is the linear-scan corrector: candidate
generation runs the reference distance against every vocabulary word
within the edit budget in length, in order of length then first
occurrence, as before candidates came from a symmetric-delete index.

:class:`ReferenceSpamFilter` is the naive-Bayes filter that takes one
``math.log`` per word per class on every score and tokenizes a message
once per class, as before fitting tabulated the log-probabilities.

Only tests use them.
"""

import math
from collections import Counter

from repro.cleaning.spamfilter import _synthetic_training_set
from repro.cleaning.spelling import default_spelling_corpus
from repro.util.tokenize import words as tokenize_words


def reference_osa_distance(a, b):
    """OSA distance (adjacent transpositions count once) by full DP."""
    if a == b:
        return 0
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    rows = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        rows[i][0] = i
    for j in range(m + 1):
        rows[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            best = min(
                rows[i - 1][j] + 1,
                rows[i][j - 1] + 1,
                rows[i - 1][j - 1] + cost,
            )
            if (
                i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                best = min(best, rows[i - 2][j - 2] + 1)
            rows[i][j] = best
    return rows[n][m]


def reference_deletes(word, depth):
    """``word`` and every string made from it by up to ``depth`` deletes."""
    variants = {word}
    frontier = {word}
    for _ in range(depth):
        frontier = {
            variant[:i] + variant[i + 1:]
            for variant in frontier
            for i in range(len(variant))
        }
        variants |= frontier
    return variants


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
                distance = reference_osa_distance(word, candidate)
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


class ReferenceSpamFilter:
    """Multinomial naive Bayes scored with a ``math.log`` per word."""

    def __init__(self, smoothing=1.0):
        self._smoothing = smoothing

    @classmethod
    def default(cls, seed=97):
        """Trained on the default filter's synthetic spam/ham."""
        return cls().fit(*_synthetic_training_set(seed=seed))

    def fit(self, texts, labels):
        """Train on texts with boolean labels (True = spam)."""
        self._word_counts = {True: Counter(), False: Counter()}
        class_counts = Counter()
        vocabulary = set()
        for text, label in zip(texts, labels):
            label = bool(label)
            class_counts[label] += 1
            for word in tokenize_words(text, lower=True):
                self._word_counts[label][word] += 1
                vocabulary.add(word)
        self._vocabulary_size = len(vocabulary)
        self._totals = {
            label: sum(counts.values())
            for label, counts in self._word_counts.items()
        }
        total_docs = sum(class_counts.values())
        self._log_priors = {
            label: math.log(count / total_docs)
            for label, count in class_counts.items()
        }
        return self

    def _log_likelihood(self, text, label):
        score = self._log_priors[label]
        denominator = (
            self._totals[label] + self._smoothing * self._vocabulary_size
        )
        counts = self._word_counts[label]
        for word in tokenize_words(text, lower=True):
            score += math.log(
                (counts[word] + self._smoothing) / denominator
            )
        return score

    def spam_score(self, text):
        """P(spam | text) via the two class log-likelihoods."""
        log_spam = self._log_likelihood(text, True)
        log_ham = self._log_likelihood(text, False)
        delta = log_spam - log_ham
        if delta > 50:
            return 1.0
        if delta < -50:
            return 0.0
        return 1.0 / (1.0 + math.exp(-delta))

    def is_spam(self, text, threshold=0.5):
        """True when P(spam | text) reaches the threshold."""
        return self.spam_score(text) >= threshold
