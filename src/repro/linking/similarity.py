"""Pluggable per-attribute similarity measures.

"Our focus is not on specific attribute similarity measures — the best
similarity measure available for specific attributes can be readily
plugged into our architecture." (paper Section IV-B)

:class:`SimilarityRegistry` is that plug point: it maps an
:class:`~repro.store.schema.AttributeType` to a ``sim(token_value,
attribute_value) -> [0, 1]`` callable, with sensible defaults for every
type the reproduction uses.
"""

from repro.store.schema import AttributeType
from repro.util.textdist import jaccard_qgrams, jaro_winkler, levenshtein

#: Word pairs a registry's Jaro-Winkler memo holds before it starts over
#: (one seed-1 churn-email study fills 11,278).
WORD_PAIR_MEMO_LIMIT = 1 << 17


def name_similarity(token_value, attribute_value, word_scores=None):
    """Best-pairing token-level Jaro-Winkler for multi-word names.

    Handles partial recognition ("only the surname or the given name
    may get recognized"): a single matching surname still scores well.

    ``word_scores`` memoises Jaro-Winkler per ``(token word, attribute
    word)`` pair across calls; a registry passes its own (see
    :class:`SimilarityRegistry`).  A score is a pure function of its
    pair, so the memo changes no result.
    """
    token_words = str(token_value).lower().split()
    attr_words = str(attribute_value).lower().split()
    if not token_words or not attr_words:
        return 0.0
    if word_scores is None:
        word_scores = {}
    total = 0.0
    for token_word in token_words:
        best = 0.0
        for attr_word in attr_words:
            pair = (token_word, attr_word)
            score = word_scores.get(pair)
            if score is None:
                score = word_scores[pair] = jaro_winkler(token_word, attr_word)
            if score > best:
                best = score
        total += best
    return total / len(token_words)


def digits_similarity(token_value, attribute_value):
    """Similarity of digit strings, robust to partial recognition.

    ASR leaves two kinds of damage on spoken numbers: digits are
    *substituted* in place (alignment survives) and digits are *dropped*
    ("only 6 out of a 10 digit telephone number may get recognized").
    The measure blends an edit-distance similarity (substitution
    tolerant) with a longest-common-substring ratio (rewarding intact
    runs) and takes the stronger signal.
    """
    token_digits = _digits(str(token_value))
    if not token_digits:
        return 0.0
    # Multi-valued digit attributes (a customer's several card numbers)
    # are whitespace-separated; the token matches its best part.
    best = 0.0
    for part in str(attribute_value).split():
        attr_digits = _digits(part)
        if not attr_digits:
            continue
        if token_digits == attr_digits:
            return 1.0
        longest = max(len(attr_digits), len(token_digits))
        distance = levenshtein(token_digits, attr_digits)
        best = max(best, 1.0 - distance / longest)
        # Only a run of at least ``longest - distance`` can score higher.
        run = _longest_run(token_digits, attr_digits, longest - distance)
        if run:
            best = max(best, run / longest)
    return best


def name_exact_test(token_value):
    """A test of ``name_similarity(token_value, v) == 1.0`` for any ``v``.

    The score is 1.0 exactly when every lowered token word is one of
    the lowered attribute words: Jaro-Winkler is 1.0 only for equal
    words, and any other best word lies far more than an ulp below it,
    so the mean of the best scores reaches 1.0 only when all are.  A
    ``None`` value fails, as :meth:`SimilarityRegistry.similarity`
    scores it 0.0.
    """
    token_words = set(str(token_value).lower().split())
    if not token_words:
        return _never

    def test(attribute_value):
        return attribute_value is not None and token_words.issubset(
            str(attribute_value).lower().split()
        )

    return test


def digits_exact_test(token_value):
    """A test of ``digits_similarity(token_value, v) == 1.0`` for any ``v``.

    The score is 1.0 exactly when some whitespace part of the value has
    the token's digits, and the token has digits: an edit score ``1 -
    d/L`` is below 1.0 for ``d >= 1``, and a run score ``run/L`` is 1.0
    only for equal strings.
    """
    token_digits = _digits(str(token_value))
    if not token_digits:
        return _never

    def test(attribute_value):
        return attribute_value is not None and any(
            _digits(part) == token_digits
            for part in str(attribute_value).split()
        )

    return test


def _never(attribute_value):
    """The exact-match test of a token no value can score 1.0 against."""
    return False


def _digits(text):
    """The digits of ``text``, in order (``text`` itself when all are)."""
    return text if text.isdigit() else "".join(filter(str.isdigit, text))


def _longest_run(a, b, at_least):
    """Longest common substring length of ``a`` and ``b`` if ``>= at_least``.

    Returns 0 when no common run reaches ``at_least``.  The caller's
    bound is inclusive on purpose: a run of exactly ``longest -
    distance`` scores ``run / longest``, which can round one ulp above
    ``1.0 - distance / longest`` (``("5", "0150317041405")`` does), so
    it can still win the ``max``.  A shorter run is a whole
    ``1 / longest`` below the edit score and never can.

    Having a common run of length ``k`` implies one of every shorter
    length, so a binary search over ``k`` finds the longest, testing
    each ``k`` with ``str`` substring searches.
    """
    if len(a) > len(b):
        a, b = b, a
    low, high = max(at_least, 1), len(a)
    if low > high or not _shares_run(a, b, low):
        return 0
    while low < high:
        middle = (low + high + 1) // 2
        if _shares_run(a, b, middle):
            low = middle
        else:
            high = middle - 1
    return low


def _shares_run(short, long, length):
    """True when ``short`` and ``long`` share a substring of ``length``."""
    return any(
        short[start:start + length] in long
        for start in range(len(short) - length + 1)
    )


def date_similarity(token_value, attribute_value):
    """Component-wise date match over ISO-format dates.

    Each matching component (year, month, day) contributes a third;
    noisy recognition frequently garbles one component only.
    """
    token_parts = str(token_value).split("-")
    attr_parts = str(attribute_value).split("-")
    if len(token_parts) != 3 or len(attr_parts) != 3:
        return 1.0 if token_value == attribute_value else 0.0
    matches = sum(
        1 for a, b in zip(token_parts, attr_parts) if a == b
    )
    return matches / 3.0


def date_exact_test(token_value):
    """A test of ``date_similarity(token_value, v) == 1.0`` for any ``v``.

    The score of two ISO dates is the share of equal components, so it
    is 1.0 exactly when all three are equal (two are 2/3); otherwise it
    is 1.0 exactly when the raw values are equal.  The test makes the
    same comparisons without the division.  A ``None`` value fails, as
    :meth:`SimilarityRegistry.similarity` scores it 0.0.
    """
    token_parts = str(token_value).split("-")

    def test(attribute_value):
        if attribute_value is None:
            return False
        attr_parts = str(attribute_value).split("-")
        if len(token_parts) != 3 or len(attr_parts) != 3:
            return bool(token_value == attribute_value)
        return token_parts == attr_parts

    return test


def numeric_similarity(token_value, attribute_value):
    """1 minus relative difference, clamped to [0, 1]."""
    try:
        token_number = float(str(token_value).replace(",", ""))
        attr_number = float(str(attribute_value).replace(",", ""))
    except ValueError:
        return 0.0
    denominator = max(abs(token_number), abs(attr_number), 1.0)
    return max(0.0, 1.0 - abs(token_number - attr_number) / denominator)


def string_similarity(token_value, attribute_value):
    """Default fuzzy string match: q-gram Jaccard."""
    return jaccard_qgrams(
        str(token_value).lower(), str(attribute_value).lower()
    )


def exact_similarity(token_value, attribute_value):
    """Case-insensitive exact match for ids and categories."""
    return float(
        str(token_value).lower() == str(attribute_value).lower()
    )


#: Measure -> the factory of its exact-match test.  Only measures whose
#: score of exactly 1.0 can be recognised without scoring have one;
#: ``numeric_similarity`` rounds to 1.0 for unequal values.
_EXACT_TESTS = {
    name_similarity: name_exact_test,
    digits_similarity: digits_exact_test,
    date_similarity: date_exact_test,
}


class SimilarityRegistry:
    """Maps attribute types to similarity callables.

    A registry owns the Jaro-Winkler word-pair memo that
    :func:`name_similarity` scores through.  It is filled lazily, so a
    new registry costs nothing, and it is scoped to the registry: every
    linker built without one gets its own from :func:`default_registry`,
    and a pickled registry (shipped to a worker process) starts empty.
    Past :data:`WORD_PAIR_MEMO_LIMIT` pairs it starts over, so a
    long-lived linker's memory stays bounded.  Threads that share a
    linker share its memo; at worst two of them score a pair twice.
    """

    def __init__(self, measures=None):
        self._measures = dict(measures or {})
        self._word_scores = {}

    def __getstate__(self):
        return {"_measures": self._measures}

    def __setstate__(self, state):
        self._measures = state["_measures"]
        self._word_scores = {}

    def register(self, attr_type, measure):
        """Plug in a custom measure for ``attr_type``."""
        self._measures[attr_type] = measure
        return self

    def measure_for(self, attr_type):
        """The measure registered for ``attr_type`` (string fallback)."""
        return self._measures.get(attr_type, string_similarity)

    def exact_test(self, attr_type, token_value):
        """A test of ``similarity(attr_type, token_value, v) == 1.0``.

        Returns a predicate on attribute values, or None when the
        measure for ``attr_type`` has no exact-match test: every
        measure plugged in with :meth:`register` has none, nor has
        ``numeric_similarity``.
        """
        factory = _EXACT_TESTS.get(self.measure_for(attr_type))
        return None if factory is None else factory(token_value)

    def similarity(self, attr_type, token_value, attribute_value):
        """Score ``token_value`` against ``attribute_value``."""
        if attribute_value is None:
            return 0.0
        measure = self.measure_for(attr_type)
        if measure is name_similarity:
            if len(self._word_scores) > WORD_PAIR_MEMO_LIMIT:
                self._word_scores = {}
            return name_similarity(
                token_value, attribute_value, self._word_scores
            )
        return measure(token_value, attribute_value)


def default_registry():
    """Registry with the default measure per attribute type."""
    return SimilarityRegistry(
        {
            AttributeType.NAME: name_similarity,
            AttributeType.PHONE: digits_similarity,
            AttributeType.CARD: digits_similarity,
            AttributeType.DATE: date_similarity,
            AttributeType.NUMBER: numeric_similarity,
            AttributeType.MONEY: numeric_similarity,
            AttributeType.PLACE: string_similarity,
            AttributeType.STRING: string_similarity,
            AttributeType.ID: exact_similarity,
            AttributeType.CATEGORY: exact_similarity,
        }
    )
