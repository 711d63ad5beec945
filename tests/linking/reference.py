"""The eager linker and its similarity kernels, kept as the reference.

These are the measures the linker scored with before its kernels were
made cheap: a two-row DP edit distance, a quadratic DP longest common
substring computed for every pair, a Jaro that scans each match window
cell by cell, and a name measure that calls Jaro-Winkler for every
word pair.  :func:`reference_registry` plugs them into a
:class:`SimilarityRegistry` in place of the defaults, so a linker built
with it scores exactly as before.  :class:`EagerEntityLinker` scores
every ranked list in full and afresh, for every token of every
document, and merges the materialised lists with the TA body below,
as the linker did before it kept a memo or scored lazily.
:class:`ReferenceCallRecordLinker` scores every blocked candidate of a
call against every identity token, as the call-record linker did
before it certified exact matches.  :class:`ReferenceAnnotatorSuite`
runs the typed-token annotators as they ran before they shared one
trigger pass: each scans every token of the text for itself, and every
regex runs over every text.  Only tests use them.
"""

import re

from repro.core.pipeline import CallRecordLinker
from repro.linking.annotators import (
    _DIGIT_RUN_RE,
    _MONTHS,
    _WORD_TO_DIGIT,
    CardAnnotator,
    TypedToken,
    _parse_small_number,
    _parse_spoken_year,
)
from repro.linking.similarity import default_registry
from repro.linking.single import EntityLinker, LinkResult
from repro.store.schema import AttributeType
from repro.synth.lexicon import FIRST_NAMES, SURNAMES
from repro.util.tokenize import tokenize


def levenshtein(a, b):
    """Edit distance by the two-row DP over the whole matrix."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + cost,
                )
            )
        previous = current
    return previous[-1]


def longest_common_substring(a, b):
    """Length of the longest common substring, by the quadratic DP."""
    best = 0
    previous = [0] * (len(b) + 1)
    for ca in a:
        current = [0]
        for j, cb in enumerate(b, start=1):
            length = previous[j - 1] + 1 if ca == cb else 0
            current.append(length)
            if length > best:
                best = length
        previous = current
    return best


def jaro(a, b):
    """Jaro similarity, scanning each match window cell by cell."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    a_matched = [False] * la
    b_matched = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not b_matched[j] and b[j] == ca:
                a_matched[i] = True
                b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if a_matched[i]:
            while not b_matched[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / la + matches / lb + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a, b, prefix_scale=0.1, max_prefix=4):
    """Jaro-Winkler over the reference :func:`jaro`."""
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def name_similarity(token_value, attribute_value):
    """Best-pairing Jaro-Winkler, one call per word pair, no memo."""
    token_words = str(token_value).lower().split()
    attr_words = str(attribute_value).lower().split()
    if not token_words or not attr_words:
        return 0.0
    total = 0.0
    for token_word in token_words:
        total += max(
            jaro_winkler(token_word, attr_word) for attr_word in attr_words
        )
    return total / len(token_words)


def digits_similarity(token_value, attribute_value):
    """Edit and run similarity, both computed in full for every part."""
    token_digits = "".join(c for c in str(token_value) if c.isdigit())
    if not token_digits:
        return 0.0
    best = 0.0
    for part in str(attribute_value).split():
        attr_digits = "".join(c for c in part if c.isdigit())
        if not attr_digits:
            continue
        if token_digits == attr_digits:
            return 1.0
        longest = max(len(attr_digits), len(token_digits))
        edit_sim = 1.0 - levenshtein(token_digits, attr_digits) / longest
        run_sim = (
            longest_common_substring(token_digits, attr_digits) / longest
        )
        best = max(best, edit_sim, run_sim)
    return best


#: Attribute type -> reference measure, where it differs from the default.
REFERENCE_MEASURES = {
    AttributeType.NAME: name_similarity,
    AttributeType.PHONE: digits_similarity,
    AttributeType.CARD: digits_similarity,
}


def reference_registry():
    """The default registry with the reference name and digit measures."""
    registry = default_registry()
    for attr_type, measure in REFERENCE_MEASURES.items():
        registry.register(attr_type, measure)
    return registry


class EagerEntityLinker(EntityLinker):
    """An :class:`EntityLinker` that scores every ranked list afresh.

    It links as the linker did before its lists were memoised or
    scored lazily: every candidate of every list is scored, the
    materialised lists go through :func:`threshold_merge` (TA, whatever
    ``merge`` says), and each confirmation score is asked of the
    registry.
    """

    def ranked_lists(self, text):
        """Per-(token, attribute) ranked candidate lists and weights."""
        tokens = self.annotators.annotate(text)
        lists = []
        weights = []
        for token in tokens:
            for attribute in self.table.schema.attributes_of_type(
                token.attr_type
            ):
                scored = []
                for entity in self._candidates_for(attribute, token):
                    similarity = self.registry.similarity(
                        attribute.type,
                        token.value,
                        entity.values.get(attribute.name),
                    )
                    if similarity > 0.0:
                        scored.append((entity.entity_id, similarity))
                scored.sort(key=lambda pair: (-pair[1], pair[0]))
                if scored:
                    lists.append(scored)
                    weights.append(self.weight_of(attribute.name))
        return lists, weights, tokens

    def link(self, text, k=1):
        """Best entity for ``text`` (or top-k ranked candidates)."""
        lists, weights, tokens = self.ranked_lists(text)
        if not lists:
            return LinkResult(None, 0.0, [], tokens, self.table_name)
        ranked, _, _ = threshold_merge(lists, weights, max(k, 1))
        if not ranked or ranked[0][1] < self.min_score:
            return LinkResult(None, 0.0, ranked, tokens, self.table_name)
        best_id, best_score = ranked[0]
        entity = self.table.get(best_id)
        if not self._confirmed(entity, tokens):
            return LinkResult(None, 0.0, ranked, tokens, self.table_name)
        return LinkResult(entity, best_score, ranked, tokens, self.table_name)

    def _confirmed(self, entity, tokens):
        """The confirmation rules, every score asked of the registry."""
        for attribute_name, min_similarity in self.confirm.items():
            attribute = self.table.schema[attribute_name]
            best = 0.0
            for token in tokens:
                if token.attr_type is attribute.type:
                    best = max(best, self.registry.similarity(
                        attribute.type,
                        token.value,
                        entity.values.get(attribute.name),
                    ))
            if best < min_similarity:
                return False
        return True


class ReferenceCallRecordLinker(CallRecordLinker):
    """A :class:`CallRecordLinker` that scores every blocked candidate.

    Every candidate's customer is scored against every identity token
    and attribute, looked up afresh per candidate, and the first strict
    maximum wins.
    """

    def _link(self, customer_text, agent_name, day, tokens, span):
        candidates = self._by_agent_day.get((agent_name, day), ())
        span.tag("candidates", len(candidates))
        if not candidates:
            return None
        tokens = (
            self._annotators.annotate(customer_text)
            if tokens is None
            else self._annotators.annotate(customer_text, tokens)
        )
        span.tag("tokens", len(tokens))
        if not tokens:
            return None
        best_record = None
        best_score = 0.0
        for record in candidates:
            customer = self._customers.get(record["customer_ref"])
            score = 0.0
            for token in tokens:
                for attribute in self._customers.schema.attributes_of_type(
                    token.attr_type
                ):
                    score += self._registry.similarity(
                        attribute.type,
                        token.value,
                        customer.values.get(attribute.name),
                    )
            if score > best_score:
                best_score = score
                best_record = record
        span.tag("best_score", best_score)
        if best_score < self._min_score:
            return None
        return best_record


class ReferenceNameAnnotator:
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


class ReferencePhoneAnnotator:
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


class ReferenceDateAnnotator:
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


class ReferenceAmountAnnotator:
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


class ReferenceAnnotatorSuite:
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


def reference_annotators(name_words=None):
    """The default suite over the per-annotator scans above."""
    return ReferenceAnnotatorSuite(
        [
            ReferenceNameAnnotator(name_words=name_words),
            ReferencePhoneAnnotator(),
            ReferenceDateAnnotator(),
            ReferenceAmountAnnotator(),
            CardAnnotator(),
        ]
    )


def threshold_merge(lists, weights, k):
    """The TA body re-sorting every aggregate to read the k-th best.

    Returns ``(ranked, sequential_accesses, random_accesses)``.
    """
    maps = [dict(ranked) for ranked in lists]
    best = {}
    sequential = 0
    random_accesses = 0
    for depth in range(max((len(ranked) for ranked in lists), default=0)):
        frontier = []
        for ranked in lists:
            if depth >= len(ranked):
                frontier.append(0.0)
                continue
            key, score = ranked[depth]
            sequential += 1
            frontier.append(score)
            if key not in best:
                random_accesses += len(lists)
                best[key] = sum(
                    weight * score_map.get(key, 0.0)
                    for score_map, weight in zip(maps, weights)
                )
        threshold = sum(
            weight * score for weight, score in zip(weights, frontier)
        )
        if len(best) >= k:
            kth = sorted(best.values(), reverse=True)[k - 1]
            if kth >= threshold:
                break
    ranked = sorted(best.items(), key=lambda pair: (-pair[1], str(pair[0])))
    return ranked[:k], sequential, random_accesses
