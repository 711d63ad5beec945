"""Typed token extraction from noisy VoC text.

"We use annotators to extract relevant tokens from a document and then
map each extracted token to a small subset of the attributes for
determining matches.  Using a Name annotator, for example, we can
extract all the names from the document, and match names only against
the customer name and agent name attributes." (paper Section IV-B)

Each annotator emits :class:`TypedToken` values tagged with the
:class:`~repro.store.schema.AttributeType` family they should be
matched against.  The name, phone, date and amount annotators read the
tokens of the lowered text; an annotator with ``annotate_tokens`` takes
them ready-made, so :class:`AnnotatorSuite` tokenizes an ASCII
document once for all of them.

Annotators are lexicon- and trigger-based; they must tolerate ASR
noise (digit words instead of digits, partial names) and SMS noise
(lingo, typos).
"""

import re
from dataclasses import dataclass

from repro.store.schema import AttributeType
from repro.synth.lexicon import FIRST_NAMES, SURNAMES
from repro.util.phonetics import DIGIT_WORDS
from repro.util.tokenize import tokenize

_WORD_TO_DIGIT = {word: digit for digit, word in DIGIT_WORDS.items()}

_MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
    "june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
    "november": 11, "december": 12,
}

_TENS_WORDS = {
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50, "sixty": 60,
    "seventy": 70, "eighty": 80, "ninety": 90,
}
_ONES_WORDS = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
    "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
    "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18,
    "nineteen": 19,
}

_DIGIT_RUN_RE = re.compile(r"\d{5,}")


@dataclass(frozen=True)
class TypedToken:
    """A token extracted from a document, typed for attribute matching."""

    value: str
    attr_type: AttributeType
    source: str  # which annotator produced it


class NameAnnotator:
    """Extracts person-name spans.

    Two mechanisms: trigger phrases ("my name is X Y", "regards\\nX Y")
    and a name-lexicon scan for adjacent name-ish tokens.  The lexicon
    scan keeps partially recognised names (a lone surname still counts).
    """

    source = "name"

    def __init__(self, name_words=None):
        if name_words is None:
            name_words = set(FIRST_NAMES) | set(SURNAMES)
        self._name_words = {word.lower() for word in name_words}

    def annotate(self, text):
        """Extract this annotator's typed tokens from the text."""
        return self.annotate_tokens(text, tokenize(text, lower=True))

    def annotate_tokens(self, text, tokens):
        """:meth:`annotate`, given the lowered tokens of ``text``."""
        spans = []
        i = 0
        while i < len(tokens):
            if tokens[i] in self._name_words:
                j = i
                while j < len(tokens) and tokens[j] in self._name_words:
                    j += 1
                spans.append(" ".join(tokens[i:j]))
                i = j
            else:
                i += 1
        return [
            TypedToken(span, AttributeType.NAME, self.source)
            for span in spans
        ]


class PhoneAnnotator:
    """Extracts phone-number digit strings.

    Handles both written digits (emails/SMS: "9876543210", "555-867")
    and spoken digit-word runs from ASR ("five five five eight six
    seven ...").  Runs shorter than ``min_digits`` are discarded as
    incidental numbers.
    """

    source = "phone"

    def __init__(self, min_digits=5, max_digits=12):
        self._min_digits = min_digits
        self._max_digits = max_digits

    def annotate(self, text):
        """Extract this annotator's typed tokens from the text."""
        return self.annotate_tokens(text, tokenize(text.lower()))

    def annotate_tokens(self, text, tokens):
        """:meth:`annotate`, given the lowered tokens of ``text``."""
        found = []
        for match in _DIGIT_RUN_RE.finditer(text.lower()):
            digits = match.group(0)
            if len(digits) > self._max_digits:
                continue  # card-length runs belong to the CardAnnotator
            found.append(
                TypedToken(digits, AttributeType.PHONE, self.source)
            )
        # Spoken digit words: collapse maximal runs.
        run = []
        for token in tokens + ["<end>"]:
            if token in _WORD_TO_DIGIT:
                run.append(_WORD_TO_DIGIT[token])
            else:
                if len(run) >= self._min_digits:
                    found.append(
                        TypedToken(
                            "".join(run[: self._max_digits]),
                            AttributeType.PHONE,
                            self.source,
                        )
                    )
                run = []
        return found


class DateAnnotator:
    """Extracts dates: ISO strings and spoken "month day year" forms."""

    source = "date"

    _ISO_RE = re.compile(r"\b(\d{4})-(\d{2})-(\d{2})\b")

    def annotate(self, text):
        """Extract this annotator's typed tokens from the text."""
        return self.annotate_tokens(text, tokenize(text.lower()))

    def annotate_tokens(self, text, tokens):
        """:meth:`annotate`, given the lowered tokens of ``text``."""
        found = []
        for match in self._ISO_RE.finditer(text):
            found.append(
                TypedToken(match.group(0), AttributeType.DATE, self.source)
            )
        found.extend(self._spoken_dates(tokens))
        return found

    def _spoken_dates(self, tokens):
        found = []
        for i, token in enumerate(tokens):
            if token not in _MONTHS:
                continue
            day, consumed = _parse_small_number(tokens[i + 1 : i + 3])
            if day is None or not 1 <= day <= 31:
                continue
            year = _parse_spoken_year(tokens[i + 1 + consumed : i + 6])
            if year is None:
                continue
            found.append(
                TypedToken(
                    f"{year:04d}-{_MONTHS[token]:02d}-{day:02d}",
                    AttributeType.DATE,
                    self.source,
                )
            )
        return found


def _parse_small_number(tokens):
    """Parse up to two tokens as a number 0..99; returns (value, used)."""
    if not tokens:
        return None, 0
    first = tokens[0]
    if first in _ONES_WORDS:
        return _ONES_WORDS[first], 1
    if first in _TENS_WORDS:
        if len(tokens) > 1 and tokens[1] in _ONES_WORDS and (
            _ONES_WORDS[tokens[1]] < 10
        ):
            return _TENS_WORDS[first] + _ONES_WORDS[tokens[1]], 2
        return _TENS_WORDS[first], 1
    if first.isdigit() and len(first) <= 2:
        return int(first), 1
    return None, 0


def _parse_spoken_year(tokens):
    """Parse "nineteen seventy two" / "two thousand five" style years."""
    if not tokens:
        return None
    if tokens[0] == "nineteen":
        rest, _ = _parse_small_number(tokens[1:3])
        if rest is not None:
            return 1900 + rest
    if tokens[0] == "two" and len(tokens) > 1 and tokens[1] == "thousand":
        rest, _ = _parse_small_number(tokens[2:4])
        return 2000 + (rest or 0)
    if tokens[0].isdigit() and len(tokens[0]) == 4:
        return int(tokens[0])
    return None


class AmountAnnotator:
    """Extracts money amounts ("forty two dollars", "rs 500", "$42.50")."""

    source = "amount"

    _CURRENCY_RE = re.compile(
        r"(?:rs\.?|\$|inr)\s*(\d+(?:[.,]\d+)*)", re.IGNORECASE
    )
    _SUFFIX_RE = re.compile(r"(\d+(?:[.,]\d+)*)\s*(?:dollars|rupees)")

    def annotate(self, text):
        """Extract this annotator's typed tokens from the text."""
        return self.annotate_tokens(text, tokenize(text.lower()))

    def annotate_tokens(self, text, tokens):
        """:meth:`annotate`, given the lowered tokens of ``text``."""
        found = []
        lowered = text.lower()
        for regex in (self._CURRENCY_RE, self._SUFFIX_RE):
            for match in regex.finditer(lowered):
                found.append(
                    TypedToken(
                        match.group(1).replace(",", ""),
                        AttributeType.MONEY,
                        self.source,
                    )
                )
        # Spoken amounts: "<number words> dollars"
        for i, token in enumerate(tokens):
            if token in ("dollars", "rupees") and i >= 1:
                value, used = _parse_small_number(tokens[max(0, i - 2) : i])
                if value is not None and used >= 1:
                    found.append(
                        TypedToken(
                            str(value), AttributeType.MONEY, self.source
                        )
                    )
        return found


class CardAnnotator:
    """Extracts credit-card-like digit runs (12-16 digits)."""

    source = "card"

    _CARD_RE = re.compile(r"\b(\d[\d -]{10,18}\d)\b")

    def annotate(self, text):
        """Extract this annotator's typed tokens from the text."""
        found = []
        for match in self._CARD_RE.finditer(text):
            digits = "".join(c for c in match.group(1) if c.isdigit())
            if 12 <= len(digits) <= 16:
                found.append(
                    TypedToken(digits, AttributeType.CARD, self.source)
                )
        return found


class AnnotatorSuite:
    """Runs a set of annotators over a document."""

    def __init__(self, annotators):
        if not annotators:
            raise ValueError("need at least one annotator")
        self.annotators = list(annotators)

    def annotate(self, text):
        """All typed tokens from all annotators, in annotator order.

        An ASCII text is tokenized once, lowered, for every annotator
        with ``annotate_tokens``: there ``tokenize(text, lower=True)
        == tokenize(text.lower())``.  Lowering can change the length of
        other text ("İ" lowers to two characters), so each annotator
        tokenizes that itself.  A subclass that changes ``annotate``
        must change ``annotate_tokens`` to match.
        """
        sharing = text.isascii()
        shared = None
        found = []
        for annotator in self.annotators:
            annotate_tokens = getattr(annotator, "annotate_tokens", None)
            if annotate_tokens is None or not sharing:
                found.extend(annotator.annotate(text))
                continue
            if shared is None:
                shared = tokenize(text.lower())
            found.extend(annotate_tokens(text, shared))
        return found

    def tokens_of_type(self, text, attr_type):
        """Only the extracted tokens of one attribute type."""
        return [
            token
            for token in self.annotate(text)
            if token.attr_type is attr_type
        ]


def build_default_annotators(name_words=None):
    """The default suite: names, phones, dates, amounts, cards."""
    return AnnotatorSuite(
        [
            NameAnnotator(name_words=name_words),
            PhoneAnnotator(),
            DateAnnotator(),
            AmountAnnotator(),
            CardAnnotator(),
        ]
    )
