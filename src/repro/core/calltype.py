"""Call-type classification (related-work substrate, paper §II).

"Some of these are geared towards automating manual process ...
include call type classification for the purpose of categorizing calls
[21], automatic call routing [10][7]".  This module implements that
substrate: a multinomial-NB call-type classifier over transcript text,
trained on warehouse-labelled history, so the reproduction can compare
*learned* call categorisation against the annotation engine's
pattern-based intent detection on the same calls.
"""

from dataclasses import dataclass

from repro.churn.classifier import MultinomialNaiveBayes
from repro.util.tokenize import words as tokenize_words

CALL_TYPES = ("reservation", "unbooked", "service")


def _features(text):
    from collections import Counter

    return Counter(
        f"w:{word}" for word in tokenize_words(text, lower=True)
    )


class CallTypeClassifier:
    """One-vs-rest NB over call transcripts.

    ``fit`` takes transcripts plus their warehouse ``call_type`` labels
    (the supervision contact centers actually have: the CRM records the
    outcome even when transcripts are unlabeled).
    """

    def __init__(self, smoothing=1.0):
        self.smoothing = smoothing
        self._models = {}

    def fit(self, texts, labels):
        """Train one-vs-rest NB models from texts and call types.

        Replaces every model of an earlier fit.
        """
        texts = list(texts)
        labels = list(labels)
        if len(texts) != len(labels):
            raise ValueError("texts and labels must align")
        present = sorted(set(labels))
        if len(present) < 2:
            raise ValueError("need at least two call types in training")
        features = [_features(text) for text in texts]
        self._models = {
            call_type: MultinomialNaiveBayes(smoothing=self.smoothing).fit(
                features, [label == call_type for label in labels]
            )
            for call_type in present
        }
        return self

    @property
    def call_types(self):
        """The call types seen at fit time, sorted."""
        return sorted(self._models)

    def predict_scores(self, text):
        """{call_type: P(type | text)} from the one-vs-rest models."""
        if not self._models:
            raise RuntimeError("fit() before predicting")
        features = [_features(text)]
        return {
            call_type: model.predict_proba(features)[0]
            for call_type, model in self._models.items()
        }

    def predict(self, text):
        """The highest-scoring call type."""
        scores = self.predict_scores(text)
        return max(scores.items(), key=lambda pair: pair[1])[0]


@dataclass(frozen=True)
class RoutingReport:
    """Accuracy of call-type prediction (the routing quality proxy)."""

    total: int
    correct: int
    confusion: dict  # (true, predicted) -> count

    @property
    def accuracy(self):
        """Correct predictions over total."""
        if self.total == 0:
            return 0.0
        return self.correct / self.total


def evaluate_call_routing(classifier, texts, labels):
    """Confusion-matrix evaluation of the call-type classifier."""
    texts = list(texts)
    labels = list(labels)
    if len(texts) != len(labels):
        raise ValueError("texts and labels must align")
    confusion = {}
    correct = 0
    for text, label in zip(texts, labels):
        predicted = classifier.predict(text)
        confusion[(label, predicted)] = (
            confusion.get((label, predicted), 0) + 1
        )
        if predicted == label:
            correct += 1
    return RoutingReport(
        total=len(texts), correct=correct, confusion=confusion
    )
