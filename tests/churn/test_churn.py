"""Tests for churn features, classifiers, imbalance handling, evaluation."""

from collections import Counter

import pytest

from repro.churn.classifier import LogisticRegression, MultinomialNaiveBayes
from repro.churn.evaluation import ChurnReport, evaluate_churn_classifier
from repro.churn.features import ChurnFeatureExtractor
from repro.churn.imbalance import class_prior_weights, undersample


def toy_training_set(n_per_class=30):
    """Separable toy set: churners talk drivers, others talk balance."""
    churner_texts = [
        "your competitor has a cheaper plan i want to disconnect",
        "my complaint has not been resolved i have to leave",
        "i feel robbed when paying my bill please deactivate my number",
    ]
    loyal_texts = [
        "please send me my bill by email",
        "i want to know my current balance",
        "thank you for resolving my issue quickly",
    ]
    extractor = ChurnFeatureExtractor()
    features, labels = [], []
    for i in range(n_per_class):
        features.append(extractor.extract(churner_texts[i % 3]))
        labels.append(True)
        features.append(extractor.extract(loyal_texts[i % 3]))
        labels.append(False)
    return features, labels, extractor


class TestChurnFeatureExtractor:
    def test_word_features(self):
        extractor = ChurnFeatureExtractor()
        features = extractor.extract("my bill is too high")
        assert features["w:bill"] >= 1

    def test_concept_features_weighted(self):
        extractor = ChurnFeatureExtractor(concept_weight=5)
        features = extractor.extract("i feel robbed these days")
        assert features["c:billing_issue"] == 5

    def test_multiple_surfaces_accumulate(self):
        extractor = ChurnFeatureExtractor(concept_weight=5)
        features = extractor.extract("i feel robbed when paying my bill")
        assert features["c:billing_issue"] == 10

    def test_stopwords_excluded(self):
        features = ChurnFeatureExtractor().extract("the a an is")
        assert not any(key.startswith("w:the") for key in features)

    def test_digits_excluded(self):
        features = ChurnFeatureExtractor().extract("pay 500 now")
        assert "w:500" not in features

    def test_words_can_be_disabled(self):
        extractor = ChurnFeatureExtractor(use_words=False)
        features = extractor.extract("my bill is too high")
        assert all(key.startswith("c:") for key in features)

    def test_extract_many(self):
        extractor = ChurnFeatureExtractor()
        assert len(extractor.extract_many(["a bill", "a plan"])) == 2


class TestMultinomialNaiveBayes:
    def test_learns_separable_data(self):
        features, labels, extractor = toy_training_set()
        nb = MultinomialNaiveBayes().fit(features, labels)
        churn_prob = nb.predict_proba(
            [extractor.extract("i want to disconnect your network is bad")]
        )[0]
        loyal_prob = nb.predict_proba(
            [extractor.extract("please send my balance")]
        )[0]
        assert churn_prob > 0.5
        assert loyal_prob < 0.5

    def test_probabilities_bounded(self):
        features, labels, _ = toy_training_set()
        nb = MultinomialNaiveBayes().fit(features, labels)
        for probability in nb.predict_proba(features):
            assert 0.0 <= probability <= 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit([Counter({"a": 1})], [True])

    def test_unfitted_predict_rejected(self):
        with pytest.raises(RuntimeError):
            MultinomialNaiveBayes().predict_proba([Counter()])

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit([Counter()], [True, False])


class TestLogisticRegression:
    def test_learns_separable_data(self):
        features, labels, extractor = toy_training_set()
        lr = LogisticRegression(epochs=300).fit(features, labels)
        churn_prob = lr.predict_proba(
            [extractor.extract("deactivate my number i have to leave")]
        )[0]
        loyal_prob = lr.predict_proba(
            [extractor.extract("thank you for resolving my issue")]
        )[0]
        assert churn_prob > 0.5
        assert loyal_prob < 0.5

    def test_positive_weight_raises_recall(self):
        features, labels, _ = toy_training_set()
        # Make it imbalanced: drop most positives.
        imbalanced_f = features[:4] + [
            f for f, l in zip(features, labels) if not l
        ]
        imbalanced_y = labels[:4] + [False] * sum(
            1 for l in labels if not l
        )
        plain = LogisticRegression(epochs=200).fit(
            imbalanced_f, imbalanced_y
        )
        weighted = LogisticRegression(
            epochs=200, positive_weight=8.0
        ).fit(imbalanced_f, imbalanced_y)
        positives = [f for f, l in zip(features, labels) if l]
        plain_hits = sum(plain.predict(positives))
        weighted_hits = sum(weighted.predict(positives))
        assert weighted_hits >= plain_hits

    def test_unseen_features_ignored(self):
        features, labels, _ = toy_training_set()
        lr = LogisticRegression(epochs=50).fit(features, labels)
        probability = lr.predict_proba([Counter({"w:neverseen": 3})])[0]
        assert 0.0 <= probability <= 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit([Counter({"a": 1})], [True])


class TestImbalance:
    def test_undersample_keeps_all_minority(self):
        features = [Counter({"x": 1}) for _ in range(100)]
        labels = [i < 5 for i in range(100)]
        sampled_features, sampled_labels = undersample(
            features, labels, ratio=2.0
        )
        assert sum(sampled_labels) == 5
        assert len(sampled_labels) == 15  # 5 minority + 10 majority

    def test_undersample_deterministic(self):
        features = [Counter({"x": i}) for i in range(50)]
        labels = [i < 5 for i in range(50)]
        a = undersample(features, labels, seed=3)
        b = undersample(features, labels, seed=3)
        assert a == b

    def test_undersample_requires_both_classes(self):
        with pytest.raises(ValueError):
            undersample([Counter()], [True])

    def test_undersample_invalid_ratio(self):
        with pytest.raises(ValueError):
            undersample([Counter(), Counter()], [True, False], ratio=0)

    def test_class_prior_weights(self):
        negative, positive = class_prior_weights(
            [True] * 3 + [False] * 97, boost=2.0
        )
        assert positive > negative
        assert negative + positive == pytest.approx(1.0)

    def test_class_prior_weights_single_class(self):
        with pytest.raises(ValueError):
            class_prior_weights([True, True])


class TestEvaluation:
    def test_confusion_counts(self):
        class Stub:
            def predict(self, features, threshold=0.5):
                return [True, True, False, False]

        report = evaluate_churn_classifier(
            Stub(), [None] * 4, [True, False, True, False]
        )
        assert report.true_positives == 1
        assert report.false_positives == 1
        assert report.false_negatives == 1
        assert report.true_negatives == 1
        assert report.detection_rate == 0.5
        assert report.precision == 0.5

    def test_empty_denominators(self):
        report = ChurnReport(0, 0, 0, 0)
        assert report.detection_rate == 0.0
        assert report.precision == 0.0
        assert report.f1 == 0.0
        assert report.false_positive_rate == 0.0

    def test_alignment_checked(self):
        class Stub:
            def predict(self, features, threshold=0.5):
                return []

        with pytest.raises(ValueError):
            evaluate_churn_classifier(Stub(), [None], [])
