"""From-scratch classifiers over sparse feature Counters.

Two standard text classifiers, enough for the paper's churn study:

* :class:`MultinomialNaiveBayes` — add-one smoothing over the shared
  tabulated model of :mod:`repro.util.naive_bayes`.
* :class:`LogisticRegression` — L2-regularised batch gradient descent
  with optional per-class weights.

Both consume lists of feature ``Counter`` objects (from
:class:`~repro.churn.features.ChurnFeatureExtractor`) and expose
``predict_proba`` returning P(positive).
"""

import numpy as np

from repro.util.naive_bayes import fit_tables, positive_probability
from repro.util.rng import derive_rng


class MultinomialNaiveBayes:
    """Binary multinomial NB over sparse feature counts.

    The shared tabulated model of :mod:`repro.util.naive_bayes`, fed
    each document's feature ``Counter`` items; class priors are the
    empirical class frequencies.
    """

    def __init__(self, smoothing=1.0):
        self.smoothing = smoothing
        self._tables = None

    def fit(self, feature_counters, labels):
        """Train on feature Counters with boolean labels."""
        self._tables = fit_tables(
            [features.items() for features in feature_counters],
            labels,
            self.smoothing,
        )
        return self

    def predict_proba(self, feature_counters):
        """P(positive) per document."""
        if self._tables is None:
            raise RuntimeError("fit() before predicting")
        return [
            positive_probability(self._tables, features.items())
            for features in feature_counters
        ]

    def predict(self, feature_counters, threshold=0.5):
        """Boolean predictions at a probability threshold."""
        return [
            probability >= threshold
            for probability in self.predict_proba(feature_counters)
        ]


class LogisticRegression:
    """L2-regularised logistic regression on hashed sparse features."""

    def __init__(self, learning_rate=0.5, epochs=150, l2=1e-3,
                 positive_weight=1.0, seed=13):
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.positive_weight = positive_weight
        self.seed = seed
        self._fitted = False

    def _vectorize(self, feature_counters, fit):
        if fit:
            vocabulary = {}
            for features in feature_counters:
                for feature in features:
                    if feature not in vocabulary:
                        vocabulary[feature] = len(vocabulary)
            self._vocabulary = vocabulary
        matrix = np.zeros(
            (len(feature_counters), len(self._vocabulary) + 1)
        )
        matrix[:, 0] = 1.0  # bias
        for row, features in enumerate(feature_counters):
            for feature, count in features.items():
                column = self._vocabulary.get(feature)
                if column is not None:
                    matrix[row, column + 1] = count
        return matrix

    def fit(self, feature_counters, labels):
        """Train on feature Counters with boolean labels."""
        y = np.asarray([1.0 if label else 0.0 for label in labels])
        if len(feature_counters) != y.size:
            raise ValueError("features and labels must align")
        if y.min() == y.max():
            raise ValueError("need both classes in training data")
        X = self._vectorize(feature_counters, fit=True)
        # Scale features to unit max to keep gradient descent stable.
        self._scale = np.maximum(np.abs(X).max(axis=0), 1.0)
        X = X / self._scale
        rng = derive_rng(self.seed, "churn-logreg-init")
        weights = rng.normal(0.0, 0.01, X.shape[1])
        sample_weights = np.where(y == 1.0, self.positive_weight, 1.0)
        n = X.shape[0]
        for _ in range(self.epochs):
            z = X @ weights
            predictions = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
            gradient = (
                X.T @ (sample_weights * (predictions - y)) / n
                + self.l2 * weights
            )
            weights -= self.learning_rate * gradient
        self._weights = weights
        self._fitted = True
        return self

    def predict_proba(self, feature_counters):
        """P(positive) per document."""
        if not self._fitted:
            raise RuntimeError("fit() before predicting")
        X = self._vectorize(feature_counters, fit=False) / self._scale
        z = np.clip(X @ self._weights, -30, 30)
        return list(1.0 / (1.0 + np.exp(-z)))

    def predict(self, feature_counters, threshold=0.5):
        """Boolean predictions at a probability threshold."""
        return [
            probability >= threshold
            for probability in self.predict_proba(feature_counters)
        ]
