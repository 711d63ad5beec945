"""The untabulated multinomial naive Bayes, kept as the reference.

:class:`ReferenceMultinomialNaiveBayes` is the churn classifier as it
was before it shared the tabulated model of
:mod:`repro.util.naive_bayes`: it keeps per-class feature counts and
takes one ``math.log`` per feature per class on every score.  Only
tests use it.
"""

import math


class ReferenceMultinomialNaiveBayes:
    """Binary multinomial NB over sparse feature counts."""

    def __init__(self, smoothing=1.0):
        self.smoothing = smoothing

    def fit(self, feature_counters, labels):
        """Train on feature Counters with boolean labels."""
        labels = [bool(label) for label in labels]
        if len(feature_counters) != len(labels):
            raise ValueError("features and labels must align")
        if len(set(labels)) < 2:
            raise ValueError("need both classes in training data")
        vocabulary = set()
        totals = {True: 0.0, False: 0.0}
        counts = {True: {}, False: {}}
        docs = {True: 0, False: 0}
        for features, label in zip(feature_counters, labels):
            docs[label] += 1
            bucket = counts[label]
            for feature, count in features.items():
                vocabulary.add(feature)
                bucket[feature] = bucket.get(feature, 0.0) + count
                totals[label] += count
        self._vocabulary_size = len(vocabulary)
        self._counts = counts
        self._totals = totals
        total_docs = docs[True] + docs[False]
        self._log_priors = {
            False: math.log(docs[False] / total_docs),
            True: math.log(docs[True] / total_docs),
        }
        return self

    def _log_likelihood(self, features, label):
        score = self._log_priors[label]
        denominator = (
            self._totals[label] + self.smoothing * self._vocabulary_size
        )
        bucket = self._counts[label]
        for feature, count in features.items():
            numerator = bucket.get(feature, 0.0) + self.smoothing
            score += count * math.log(numerator / denominator)
        return score

    def predict_proba(self, feature_counters):
        """P(positive) per document."""
        probabilities = []
        for features in feature_counters:
            log_pos = self._log_likelihood(features, True)
            log_neg = self._log_likelihood(features, False)
            delta = log_pos - log_neg
            if delta > 50:
                probabilities.append(1.0)
            elif delta < -50:
                probabilities.append(0.0)
            else:
                probabilities.append(1.0 / (1.0 + math.exp(-delta)))
        return probabilities


def reference_call_type_scores(texts, labels, features, smoothing=1.0):
    """``{call_type: P(type | text)}`` per text, one-vs-rest.

    ``features`` maps a text to its feature Counter, as the call-type
    classifier's does.
    """
    fitted = [features(text) for text in texts]
    models = {
        call_type: ReferenceMultinomialNaiveBayes(smoothing).fit(
            fitted, [label == call_type for label in labels]
        )
        for call_type in sorted(set(labels))
    }

    def scores(text):
        document = [features(text)]
        return {
            call_type: model.predict_proba(document)[0]
            for call_type, model in models.items()
        }

    return scores
