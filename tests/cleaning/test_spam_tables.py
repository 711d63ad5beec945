"""The tabulated spam filter against per-word logs, and its shared tables.

The oracle: :class:`~repro.cleaning.spamfilter.SpamFilter` sums
log-probabilities tabulated at fit; the reference takes one
``math.log`` per word per class on every score.  Scores must be the
same float (``==``) on raw and lingo-normalised telecom email and SMS
from seeds 1-3, every spam template, empty text and text made only of
unseen words, and whole cleaning pipelines must keep, drop and rewrite
the same messages.

The default filter's tables are fitted once per process and shared
read-only by every default filter.
"""

import pytest

from repro.cleaning import CleaningPipeline
from repro.cleaning.sms import SmsNormalizer
from repro.cleaning.spamfilter import SpamFilter, train_default_spam_filter
from repro.synth.lexicon import SPAM_TEMPLATES
from tests.cleaning.corpus import SEEDS, stream_order
from tests.cleaning.reference import ReferenceSpamFilter

#: Words no training text contains.
UNSEEN_TEXT = "zyxwv qqqq blorpt 31415926 frobnicate"


@pytest.fixture(scope="module")
def reference_spam():
    return ReferenceSpamFilter.default()


def raw_and_normalised(messages):
    normalizer = SmsNormalizer()
    raw = [message.raw_text for message in messages]
    return raw + [normalizer.normalize(text) for text in raw]


def assert_same_scores(spam_filter, reference_spam, texts):
    for text in texts:
        assert spam_filter.spam_score(text) == reference_spam.spam_score(
            text
        ), text


class TestScoreOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("channel", ["emails", "sms"])
    def test_telecom_messages(self, telecom, reference_spam, seed, channel):
        texts = raw_and_normalised(getattr(telecom[seed], channel))
        assert_same_scores(
            train_default_spam_filter(), reference_spam, texts
        )

    def test_spam_templates(self, reference_spam):
        texts = [
            template.format(amount=90000, word="acme")
            for template in SPAM_TEMPLATES
        ]
        assert_same_scores(
            train_default_spam_filter(), reference_spam,
            list(SPAM_TEMPLATES) + texts,
        )

    def test_empty_and_unseen_text(self, reference_spam):
        spam_filter = train_default_spam_filter()
        assert_same_scores(
            spam_filter, reference_spam, ["", "   ", UNSEEN_TEXT]
        )
        assert 0.0 < spam_filter.spam_score(UNSEEN_TEXT) < 1.0

    def test_refit_filter(self, telecom):
        """A filter fitted on other data matches its reference too."""
        texts = [message.raw_text for message in telecom[1].messages]
        labels = [index % 3 == 0 for index in range(len(texts))]
        fitted = SpamFilter(smoothing=0.5).fit(texts, labels)
        reference = ReferenceSpamFilter(smoothing=0.5).fit(texts, labels)
        assert_same_scores(
            fitted, reference, texts[:100] + [UNSEEN_TEXT, ""]
        )


class TestPipelineOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_clean_decisions(self, telecom, reference, reference_spam, seed):
        """Text, discard flag and reason match the reference kernels."""
        pipeline = CleaningPipeline()
        expected = CleaningPipeline(
            spam_filter=reference_spam, corrector=reference
        )
        reasons = set()
        for message in stream_order(telecom[seed]):
            got = pipeline.clean(message.raw_text, channel=message.channel)
            want = expected.clean(message.raw_text, channel=message.channel)
            assert (got.text, got.discarded, got.reason) == (
                want.text, want.discarded, want.reason
            )
            reasons.add(got.reason)
        assert "spam" in reasons
        assert "" in reasons
        assert pipeline.stats == expected.stats


class TestSharedDefaultTables:
    def test_default_filters_share_one_fit(self):
        first = train_default_spam_filter()
        second = train_default_spam_filter()
        assert first is not second
        assert first._tables is second._tables
        assert train_default_spam_filter(97)._tables is first._tables
        assert train_default_spam_filter(seed=5)._tables is not first._tables

    def test_tables_are_read_only(self):
        tables = train_default_spam_filter()._tables
        with pytest.raises(TypeError):
            tables.log_priors[True] = 0.0
        with pytest.raises(TypeError):
            tables.log_probs[True] = {}
        with pytest.raises(TypeError):
            tables.log_probs[True]["lottery"] = 0.0
        with pytest.raises(TypeError):
            tables.unseen[False] = 0.0
        with pytest.raises(AttributeError):
            tables.unseen = {}

    def test_refit_leaves_other_filters_alone(self, telecom):
        texts = raw_and_normalised(telecom[1].sms)[:200]
        kept = train_default_spam_filter()
        shared = kept._tables
        before = [kept.spam_score(text) for text in texts]
        refitted = train_default_spam_filter()
        refitted.fit(["cheap pills now", "my bill is wrong"], [True, False])
        assert refitted._tables is not shared
        assert kept._tables is shared
        assert [kept.spam_score(text) for text in texts] == before
        assert [
            train_default_spam_filter().spam_score(text) for text in texts
        ] == before
