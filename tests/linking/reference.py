"""The dynamic-programming similarity kernels, kept as the reference.

These are the measures the linker scored with before its kernels were
made cheap: a two-row DP edit distance, a quadratic DP longest common
substring computed for every pair, and a name measure that calls
Jaro-Winkler for every word pair.  :func:`reference_registry` plugs
them into a :class:`SimilarityRegistry` in place of the defaults, so a
linker built with it scores exactly as before.  Only tests use them.
"""

from repro.linking.similarity import default_registry
from repro.store.schema import AttributeType
from repro.util.textdist import jaro_winkler


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
