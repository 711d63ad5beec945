"""The shared naive Bayes against the untabulated reference.

The oracle: :class:`~repro.churn.classifier.MultinomialNaiveBayes`
scores with log-probabilities tabulated at fit by
:mod:`repro.util.naive_bayes`; the reference in
:mod:`tests.churn.reference` takes one ``math.log`` per feature per
class on every score.  ``predict_proba`` floats must be ``==`` on the
features the churn study itself fits and scores (telecom email, seeds
1-3), and the call-type classifier's one-vs-rest scores must be ``==``
reference models' on car-rental transcripts, seeds 1-3.
"""

import pytest

from repro.churn.classifier import MultinomialNaiveBayes
from repro.core import run_churn_study
from repro.core.calltype import CallTypeClassifier, _features
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.telecom import TelecomConfig, generate_telecom
from tests.churn.reference import (
    ReferenceMultinomialNaiveBayes,
    reference_call_type_scores,
)

SEEDS = (1, 2, 3)


class RecordingNaiveBayes(MultinomialNaiveBayes):
    """Keeps the features and labels it is fitted on and scores."""

    def fit(self, feature_counters, labels):
        self.fitted = (list(feature_counters), list(labels))
        self.scored = []
        return super().fit(feature_counters, labels)

    def predict_proba(self, feature_counters):
        feature_counters = list(feature_counters)
        self.scored.append(feature_counters)
        return super().predict_proba(feature_counters)


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def churn_model(request):
    """The churn-email benchmark's study, with its model recorded."""
    corpus = generate_telecom(TelecomConfig(
        scale=0.004, n_customers=400, email_churner_fraction=0.2,
        seed=request.param,
    ))
    model = RecordingNaiveBayes()
    run_churn_study(corpus, channel="email", classifier=model)
    return model


class TestChurnStudyFeatures:
    def test_study_scores_equal_reference(self, churn_model):
        reference = ReferenceMultinomialNaiveBayes().fit(*churn_model.fitted)
        assert churn_model.scored
        for features in churn_model.scored:
            assert MultinomialNaiveBayes.predict_proba(
                churn_model, features
            ) == reference.predict_proba(features)

    @pytest.mark.parametrize("smoothing", [1.0, 0.5, 2])
    def test_training_scores_equal_reference(self, churn_model, smoothing):
        features, labels = churn_model.fitted
        evaluation = [
            counter for scored in churn_model.scored for counter in scored
        ]
        model = MultinomialNaiveBayes(smoothing).fit(features, labels)
        reference = ReferenceMultinomialNaiveBayes(smoothing).fit(
            features, labels
        )
        for documents in (features, evaluation):
            assert model.predict_proba(documents) == (
                reference.predict_proba(documents)
            )


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def transcripts(request):
    """The call-center benchmark corpus's texts and call types."""
    corpus = generate_car_rental(CarRentalConfig(
        n_agents=12, n_days=2, calls_per_agent_per_day=4,
        n_customers=160, seed=request.param,
    ))
    texts = [transcript.text for transcript in corpus.transcripts]
    labels = [
        corpus.truths[transcript.call_id].call_type
        for transcript in corpus.transcripts
    ]
    return texts, labels


class TestCallTypeScores:
    def test_scores_equal_reference(self, transcripts):
        texts, labels = transcripts
        cut = len(texts) * 3 // 4
        classifier = CallTypeClassifier().fit(texts[:cut], labels[:cut])
        reference = reference_call_type_scores(
            texts[:cut], labels[:cut], _features
        )
        for text in texts:
            assert classifier.predict_scores(text) == reference(text)

    def test_refit_forgets_earlier_call_types(self, transcripts):
        texts, labels = transcripts
        kept = [
            (text, label) for text, label in zip(texts, labels)
            if label != "service"
        ]
        classifier = CallTypeClassifier().fit(texts, labels)
        assert "service" in classifier.call_types
        classifier.fit(
            [text for text, _ in kept], [label for _, label in kept]
        )
        assert classifier.call_types == ["reservation", "unbooked"]
        for text in texts:
            assert set(classifier.predict_scores(text)) == {
                "reservation", "unbooked"
            }
            assert classifier.predict(text) != "service"
