"""The assembled cleaning pipeline with funnel accounting.

Order of operations per the paper: spam and non-English messages are
discarded first ("they do not contain useful information"), email
furniture and agent voice are stripped, then the surviving customer
text is repaired (lingo normalisation, spell correction).
"""

from dataclasses import dataclass, field

from repro.cleaning.email import segment_customer_text
from repro.cleaning.langfilter import LanguageFilter
from repro.cleaning.sms import SmsNormalizer
from repro.cleaning.spamfilter import train_default_spam_filter
from repro.cleaning.spelling import SpellCorrector
from repro.synth.notes import note_shorthand_table


@dataclass
class CleanedMessage:
    """Outcome of cleaning one message."""

    text: str  # cleaned customer text ("" when discarded)
    discarded: bool
    reason: str = ""  # "spam" | "non-english" | "empty" | ""
    original: str = ""


@dataclass
class CleaningStats:
    """Funnel counts across a cleaning run."""

    total: int = 0
    spam: int = 0
    non_english: int = 0
    empty: int = 0
    kept: int = 0
    by_reason: dict = field(default_factory=dict)

    def record(self, message):
        """Fold one cleaned message into the funnel counts."""
        self.total += 1
        if not message.discarded:
            self.kept += 1
            return
        self.by_reason[message.reason] = (
            self.by_reason.get(message.reason, 0) + 1
        )
        if message.reason == "spam":
            self.spam += 1
        elif message.reason == "non-english":
            self.non_english += 1
        elif message.reason == "empty":
            self.empty += 1

    @property
    def kept_fraction(self):
        """Share of messages that survived cleaning."""
        if self.total == 0:
            return 0.0
        return self.kept / self.total


class CleaningPipeline:
    """Cleans email and SMS messages into analysable customer text."""

    def __init__(self, spam_filter=None, language_filter=None,
                 normalizer=None, corrector=None, spell_correct=True):
        self.spam_filter = spam_filter or train_default_spam_filter()
        self.language_filter = language_filter or LanguageFilter()
        self.normalizer = normalizer or SmsNormalizer()
        self.corrector = corrector or SpellCorrector()
        self.spell_correct = spell_correct
        self.stats = CleaningStats()
        self._note_normalizer = SmsNormalizer(
            domain_terms=note_shorthand_table()
        )

    def clean(self, raw_text, channel="email"):
        """Clean one message; returns a :class:`CleanedMessage`.

        ``channel`` is ``"email"`` (headers/quotes stripped), ``"sms"``,
        or ``"notes"`` (agent after-call notes: the agent-shorthand
        table is applied on top of the SMS lingo table).
        """
        if channel == "email":
            body = segment_customer_text(raw_text)
        elif channel == "sms":
            body = raw_text.strip()
        elif channel == "notes":
            body = self._note_normalizer.normalize(raw_text.strip())
        else:
            raise ValueError(f"unknown channel {channel!r}")
        result = self._clean_body(body, raw_text)
        self.stats.record(result)
        return result

    def _clean_body(self, body, original):
        if not body.strip():
            return CleanedMessage("", True, "empty", original)
        # Language check runs on lingo-normalised text and before the
        # spam filter: fully out-of-vocabulary (non-English) text would
        # otherwise be decided by the NB prior alone.
        normalized = self.normalizer.normalize(body)
        if not self.language_filter.is_english(normalized):
            return CleanedMessage("", True, "non-english", original)
        if self.spam_filter.is_spam(normalized):
            return CleanedMessage("", True, "spam", original)
        if self.spell_correct:
            normalized = self.corrector.correct(normalized)
        return CleanedMessage(normalized, False, "", original)

    def clean_many(self, messages, channel="email"):
        """Clean an iterable of raw texts."""
        return [self.clean(message, channel=channel) for message in messages]
