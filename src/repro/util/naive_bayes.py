"""One tabulated binary multinomial naive Bayes.

The paper uses a multinomial naive Bayes twice: to drop spam in the
cleaning step (Section IV-A.2) and to flag churners from their
messages (Section V).  Both, and the call-type classifier beside them,
are this one model.  :func:`fit_tables` counts features per boolean
class and tabulates each feature's smoothed log-probability once;
:func:`positive_probability` scores a document by table lookups.

A document is a sequence of ``(feature, count)`` pairs.  Scoring adds
``count * log_probability`` pair by pair, in the order given, so a
caller that passes each token with count 1 in token order gets the
float a per-token sum gives (``1 * x == x``), and one that passes a
feature ``Counter``'s items gets the per-feature sum.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType


@dataclass(frozen=True)
class NaiveBayesTables:
    """Read-only log-probabilities of one fitted model, per class.

    ``log_priors[label]`` is the class's log prior, ``log_probs[label]``
    maps each feature seen in training to its smoothed log-probability
    in that class and ``unseen[label]`` is the log-probability of every
    other feature.  The mappings are :class:`types.MappingProxyType`
    views, so models can share one instance without sharing mutable
    state.
    """

    log_priors: MappingProxyType
    log_probs: MappingProxyType
    unseen: MappingProxyType


def fit_tables(documents, labels, smoothing=1.0):
    """Tabulate add-``smoothing`` naive Bayes over labeled documents.

    ``documents`` holds one sequence of ``(feature, count)`` pairs per
    document; ``labels`` are read as booleans (True = positive).  Each
    log-probability is ``log((count + smoothing) / denominator)``, the
    denominator being the class's feature total plus ``smoothing``
    times the vocabulary size.  Raises ``ValueError`` unless documents
    and labels align and both classes occur.
    """
    documents = list(documents)
    labels = [bool(label) for label in labels]
    if len(documents) != len(labels):
        raise ValueError("features and labels must align")
    if len(set(labels)) < 2:
        raise ValueError("need examples of both classes")
    counts = {True: {}, False: {}}
    totals = {True: 0, False: 0}
    docs = {True: 0, False: 0}
    vocabulary = set()
    for pairs, label in zip(documents, labels):
        docs[label] += 1
        bucket = counts[label]
        for feature, count in pairs:
            vocabulary.add(feature)
            bucket[feature] = bucket.get(feature, 0) + count
            totals[label] += count
    log_probs = {}
    unseen = {}
    for label, bucket in counts.items():
        denominator = totals[label] + smoothing * len(vocabulary)
        log_probs[label] = MappingProxyType({
            feature: math.log((count + smoothing) / denominator)
            for feature, count in bucket.items()
        })
        unseen[label] = math.log(smoothing / denominator)
    return NaiveBayesTables(
        log_priors=MappingProxyType({
            label: math.log(count / len(labels))
            for label, count in docs.items()
        }),
        log_probs=MappingProxyType(log_probs),
        unseen=MappingProxyType(unseen),
    )


def positive_probability(tables, pairs):
    """P(positive | document) via the two class log-likelihoods.

    Each class's log-likelihood is its log prior plus
    ``count * log_probability`` over ``pairs``, in order.
    """
    log_pos = tables.log_priors[True]
    log_neg = tables.log_priors[False]
    pos_probs = tables.log_probs[True]
    neg_probs = tables.log_probs[False]
    pos_unseen = tables.unseen[True]
    neg_unseen = tables.unseen[False]
    for feature, count in pairs:
        log_pos += count * pos_probs.get(feature, pos_unseen)
        log_neg += count * neg_probs.get(feature, neg_unseen)
    delta = log_pos - log_neg
    # Stable sigmoid of the log-odds.
    if delta > 50:
        return 1.0
    if delta < -50:
        return 0.0
    return 1.0 / (1.0 + math.exp(-delta))
