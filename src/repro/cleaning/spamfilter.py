"""Multinomial naive-Bayes spam detection.

"In the first step we detect spam messages and non-English messages
and discard them from further processing as they do not contain useful
information." (paper Section IV-A.2)

The classifier is the shared multinomial NB of
:mod:`repro.util.naive_bayes` with add-one smoothing over lower-cased
word features: fitting tabulates each word's log-probability per
class, so scoring a message is table lookups.
:func:`train_default_spam_filter` trains it on synthetic spam/ham
drawn from the shipped lexicons, so the cleaning pipeline works out of
the box; real deployments would retrain on their own labeled mail.
"""

from functools import lru_cache
from itertools import repeat

from repro.synth.lexicon import (
    CALL_CENTER_SENTENCES,
    CHURN_DRIVERS,
    NEUTRAL_TELECOM_PHRASES,
    SPAM_TEMPLATES,
)
from repro.util.naive_bayes import fit_tables, positive_probability
from repro.util.rng import derive_rng
from repro.util.tokenize import words as tokenize_words


def _features(text):
    """One ``(word, 1)`` pair per lower-cased word, in text order."""
    return zip(tokenize_words(text, lower=True), repeat(1))


class SpamFilter:
    """Binary multinomial naive Bayes: spam vs ham."""

    def __init__(self, smoothing=1.0):
        self._smoothing = smoothing
        self._tables = None

    def fit(self, texts, labels):
        """Train on texts with boolean labels (True = spam).

        Rebinds this filter's tables; tables it shared are untouched.
        """
        self._tables = fit_tables(
            [_features(text) for text in texts], labels, self._smoothing
        )
        return self

    def spam_score(self, text):
        """P(spam | text), adding one log-probability per word."""
        if self._tables is None:
            raise RuntimeError("fit() the filter before scoring")
        return positive_probability(self._tables, _features(text))

    def is_spam(self, text, threshold=0.5):
        """True when P(spam | text) reaches the threshold."""
        return self.spam_score(text) >= threshold


def _synthetic_training_set(n_per_class=200, seed=97):
    rng = derive_rng(seed, "spam-training")
    spam = []
    for _ in range(n_per_class):
        template = SPAM_TEMPLATES[int(rng.integers(0, len(SPAM_TEMPLATES)))]
        spam.append(
            template.format(
                amount=int(rng.integers(100, 99999)),
                word=["acme", "zenith", "apex", "orion"][
                    int(rng.integers(0, 4))
                ],
            )
        )
    # Ham spans both VoC domains (telecom messages, call-center text)
    # so the filter does not treat unfamiliar-but-legitimate domain
    # vocabulary as spam evidence.
    ham_pool = list(NEUTRAL_TELECOM_PHRASES)
    for phrases in CHURN_DRIVERS.values():
        ham_pool.extend(phrases)
    ham_pool.extend(CALL_CENTER_SENTENCES)
    ham = []
    for _ in range(n_per_class):
        first = ham_pool[int(rng.integers(0, len(ham_pool)))]
        second = ham_pool[int(rng.integers(0, len(ham_pool)))]
        ham.append(f"{first}. {second}")
    texts = spam + ham
    labels = [True] * len(spam) + [False] * len(ham)
    return texts, labels


@lru_cache(maxsize=8)
def _default_tables(seed):
    """The default filter's tables: a pure function of ``seed``.

    Cached, so every default filter in a process shares one fit.
    """
    texts, labels = _synthetic_training_set(seed=seed)
    return SpamFilter().fit(texts, labels)._tables


def train_default_spam_filter(seed=97):
    """A spam filter trained on synthetic spam/ham from the lexicons.

    Each call returns a new filter over tables fitted once per seed in
    a process and shared read-only; refitting it rebinds only its own.
    """
    spam_filter = SpamFilter()
    spam_filter._tables = _default_tables(seed)
    return spam_filter
