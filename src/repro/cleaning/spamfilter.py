"""Multinomial naive-Bayes spam detection.

"In the first step we detect spam messages and non-English messages
and discard them from further processing as they do not contain useful
information." (paper Section IV-A.2)

The classifier is a from-scratch multinomial NB with add-one smoothing
over lower-cased word features.  Fitting tabulates each word's
log-probability per class, so scoring a message is table lookups.
:func:`train_default_spam_filter` trains it on synthetic spam/ham
drawn from the shipped lexicons, so the cleaning pipeline works out of
the box; real deployments would retrain on their own labeled mail.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from repro.synth.lexicon import (
    CALL_CENTER_SENTENCES,
    CHURN_DRIVERS,
    NEUTRAL_TELECOM_PHRASES,
    SPAM_TEMPLATES,
)
from repro.util.rng import derive_rng
from repro.util.tokenize import words as tokenize_words


def _features(text):
    return tokenize_words(text, lower=True)


@dataclass(frozen=True)
class SpamTables:
    """Read-only log-probabilities of one fitted filter, per class.

    ``log_priors[label]`` is the class's log prior, ``log_probs[label]``
    maps each word seen in the class to its smoothed log-probability and
    ``unseen[label]`` is the log-probability of every other word.  The
    mappings are :class:`types.MappingProxyType` views, so filters can
    share one instance without sharing mutable state.
    """

    log_priors: MappingProxyType
    log_probs: MappingProxyType
    unseen: MappingProxyType


def fit_tables(texts, labels, smoothing=1.0):
    """Tabulate add-``smoothing`` naive Bayes over labeled ``texts``.

    Each log-probability is the float the per-word formula
    ``log((count + smoothing) / denominator)`` gives, so summing table
    lookups in token order reproduces it bit for bit.
    """
    texts = list(texts)
    labels = list(labels)
    if len(texts) != len(labels):
        raise ValueError("texts and labels must align")
    if not texts or len(set(labels)) < 2:
        raise ValueError("need examples of both classes")
    word_counts = {True: Counter(), False: Counter()}
    class_counts = Counter()
    vocabulary = set()
    for text, label in zip(texts, labels):
        label = bool(label)
        class_counts[label] += 1
        for word in _features(text):
            word_counts[label][word] += 1
            vocabulary.add(word)
    total_docs = sum(class_counts.values())
    log_probs = {}
    unseen = {}
    for label, counts in word_counts.items():
        denominator = (
            sum(counts.values()) + smoothing * len(vocabulary)
        )
        log_probs[label] = MappingProxyType({
            word: math.log((count + smoothing) / denominator)
            for word, count in counts.items()
        })
        unseen[label] = math.log(smoothing / denominator)
    return SpamTables(
        log_priors=MappingProxyType({
            label: math.log(count / total_docs)
            for label, count in class_counts.items()
        }),
        log_probs=MappingProxyType(log_probs),
        unseen=MappingProxyType(unseen),
    )


class SpamFilter:
    """Binary multinomial naive Bayes: spam vs ham."""

    def __init__(self, smoothing=1.0):
        self._smoothing = smoothing
        self._tables = None

    def fit(self, texts, labels):
        """Train on texts with boolean labels (True = spam).

        Rebinds this filter's tables; tables it shared are untouched.
        """
        self._tables = fit_tables(texts, labels, self._smoothing)
        return self

    def _log_likelihood(self, tokens, label):
        tables = self._tables
        score = tables.log_priors[label]
        log_probs = tables.log_probs[label]
        unseen = tables.unseen[label]
        for word in tokens:
            score += log_probs.get(word, unseen)
        return score

    def spam_score(self, text):
        """P(spam | text) via the two class log-likelihoods."""
        if self._tables is None:
            raise RuntimeError("fit() the filter before scoring")
        tokens = _features(text)
        log_spam = self._log_likelihood(tokens, True)
        log_ham = self._log_likelihood(tokens, False)
        # Stable sigmoid of the log-odds.
        delta = log_spam - log_ham
        if delta > 50:
            return 1.0
        if delta < -50:
            return 0.0
        return 1.0 / (1.0 + math.exp(-delta))

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
    return fit_tables(texts, labels)


def train_default_spam_filter(seed=97):
    """A spam filter trained on synthetic spam/ham from the lexicons.

    Each call returns a new filter over tables fitted once per seed in
    a process and shared read-only; refitting it rebinds only its own.
    """
    spam_filter = SpamFilter()
    spam_filter._tables = _default_tables(seed)
    return spam_filter
