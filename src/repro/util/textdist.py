"""String distance and similarity measures.

These are the fuzzy-matching primitives used by the data-linking engine
(paper Section IV-B: "the best similarity measure available for specific
attributes can be readily plugged into our architecture") and by the
ASR scoring code (word error rate is computed from a Levenshtein
alignment, Eqn 1 of the paper).

All similarity functions return values in ``[0.0, 1.0]`` where ``1.0``
means identical.
"""


def levenshtein(a, b):
    """Edit distance between sequences ``a`` and ``b``.

    Works on strings (character edits) and on lists/tuples of hashable
    tokens (word edits), which is what WER computation needs.

    Bit-parallel (Myers, JACM 1999, in Hyyrö's 2001 formulation for
    the global distance): one column of the DP matrix is held as two
    bit vectors of vertical +1/-1 deltas, one bit per item of ``a``, so
    each item of ``b`` costs a fixed handful of integer operations
    instead of ``len(a)`` cell updates.  Python integers are unbounded,
    so ``a`` may be any length.

    >>> levenshtein("kitten", "sitting")
    3
    >>> levenshtein(["a", "b"], ["a", "c", "b"])
    1
    """
    if a == b:
        return 0
    n = len(a)
    if not n:
        return len(b)
    if not b:
        return n
    # match[item]: bit i set where a[i] == item.
    match = {}
    bit = 1
    for item in a:
        match[item] = match.get(item, 0) | bit
        bit <<= 1
    full = bit - 1
    last = 1 << (n - 1)
    plus, minus = full, 0  # vertical deltas of the current column
    distance = n
    for item in b:
        eq = match.get(item, 0)
        vertical = eq | minus
        horizontal = (((eq & plus) + plus) ^ plus) | eq
        h_plus = minus | ~(horizontal | plus)
        h_minus = plus & horizontal
        if h_plus & last:
            distance += 1
        elif h_minus & last:
            distance -= 1
        # Row 0 is D[0][j] = j: its horizontal delta is always +1.
        h_plus = (h_plus << 1) | 1
        h_minus <<= 1
        plus = (h_minus | ~(vertical | h_plus)) & full
        minus = h_plus & vertical
    return distance


def levenshtein_alignment(reference, hypothesis):
    """Align ``hypothesis`` against ``reference`` and return edit operations.

    Returns a list of ``(op, ref_item, hyp_item)`` tuples where ``op`` is
    one of ``"match"``, ``"sub"``, ``"del"`` (reference item missing from
    the hypothesis) or ``"ins"`` (hypothesis item not in the reference).
    ``ref_item``/``hyp_item`` are ``None`` where not applicable.

    This is the alignment behind the paper's WER definition
    ``WER = (S + D + I) / N``.
    """
    n, m = len(reference), len(hypothesis)
    # Full DP matrix with backpointers; corpora here are short utterances
    # so the O(n*m) memory is fine.
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if reference[i - 1] == hypothesis[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + cost,
            )
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] and (
            reference[i - 1] == hypothesis[j - 1]
        ):
            ops.append(("match", reference[i - 1], hypothesis[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            ops.append(("sub", reference[i - 1], hypothesis[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(("del", reference[i - 1], None))
            i = i - 1
        else:
            ops.append(("ins", None, hypothesis[j - 1]))
            j = j - 1
    ops.reverse()
    return ops


def levenshtein_similarity(a, b):
    """Normalised edit similarity: ``1 - dist / max(len(a), len(b))``.

    >>> levenshtein_similarity("smith", "smith")
    1.0
    >>> levenshtein_similarity("", "")
    1.0
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def damerau_levenshtein(a, b):
    """Edit distance counting adjacent transpositions as one edit.

    Useful for typo-heavy SMS text where transposed characters are
    common ("teh" for "the").

    This is the optimal-string-alignment (OSA) distance, not
    unrestricted Damerau-Levenshtein: no substring is edited again
    after a transposition, so "ca" -> "ac" -> "abc" (2 edits) is not
    an alignment and the distance below is 3.

    Each OSA edit removes at most one character from each side: an
    insertion or deletion one from one side, a substitution or an
    adjacent transposition one from both.  Two strings within distance
    ``k`` therefore share a string reachable from each by at most
    ``k`` deletes, which is what makes the spelling corrector's
    symmetric-delete index exact.

    Bit-parallel (Hyyrö, Nordic J. Computing 2003): the column
    recurrence of :func:`levenshtein`, whose diagonal-zero vector
    ``zero`` gains one term for transpositions, read from the previous
    column's match and diagonal-zero vectors.  Every complemented
    vector is masked to ``len(a)`` bits.

    >>> damerau_levenshtein("teh", "the")
    1
    >>> damerau_levenshtein("ca", "abc")
    3
    """
    if a == b:
        return 0
    n = len(a)
    if not n:
        return len(b)
    if not b:
        return n
    match = {}
    bit = 1
    for item in a:
        match[item] = match.get(item, 0) | bit
        bit <<= 1
    full = bit - 1
    last = 1 << (n - 1)
    plus, minus = full, 0
    zero = prev_eq = 0  # the previous column's diagonal zeros and match
    distance = n
    for item in b:
        eq = match.get(item, 0)
        # Bit i is set where a[i-1:i+1] is the last two items of b so
        # far, swapped, and the previous column's bit i-1 of ``zero``
        # was clear: there the transposition beats the diagonal.
        transposed = ((~zero & eq) << 1) & prev_eq
        zero = (((eq & plus) + plus) ^ plus) | eq | transposed | minus
        h_plus = minus | (~(zero | plus) & full)
        h_minus = plus & zero
        if h_plus & last:
            distance += 1
        elif h_minus & last:
            distance -= 1
        h_plus = (h_plus << 1) | 1
        plus = ((h_minus << 1) | ~(zero | h_plus)) & full
        minus = h_plus & zero
        prev_eq = eq
    return distance


def jaro(a, b):
    """Jaro similarity between two strings.

    Each character of ``a`` matches the first unmatched equal character
    of ``b`` inside the match window.  ``str.find`` finds the equal
    characters, so only they are visited, not every cell of the window;
    a find that lands on a matched position searches again past it.
    The transpositions are the half of the positions at which the
    matched characters of ``a`` and of ``b``, each in order, differ.

    >>> jaro("martha", "marhta") > 0.9
    True
    """
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    b_matched = [False] * lb
    a_chars = []
    for i, ca in enumerate(a):
        hi = i + window + 1
        j = b.find(ca, i - window if i > window else 0, hi)
        while j != -1 and b_matched[j]:
            j = b.find(ca, j + 1, hi)
        if j != -1:
            b_matched[j] = True
            a_chars.append(ca)
    matches = len(a_chars)
    if matches == 0:
        return 0.0
    b_chars = [cb for cb, matched in zip(b, b_matched) if matched]
    transpositions = sum(
        ca != cb for ca, cb in zip(a_chars, b_chars)
    ) // 2
    return (
        matches / la + matches / lb + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a, b, prefix_scale=0.1, max_prefix=4):
    """Jaro-Winkler similarity: Jaro boosted by common-prefix length.

    The standard measure for noisy person-name matching, which is the
    dominant attribute type in the paper's linking engine.

    >>> jaro_winkler("dixon", "dickson") > jaro("dixon", "dickson")
    True
    """
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def qgrams(text, q=2, pad=True):
    """Return the list of q-grams of ``text``.

    With ``pad=True`` the string is padded with ``q - 1`` boundary
    markers on each side so that prefixes/suffixes carry weight, which
    matters for short attribute values such as surnames.

    >>> qgrams("ab", q=2)
    ['#a', 'ab', 'b#']
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if pad:
        text = "#" * (q - 1) + text + "#" * (q - 1)
    if len(text) < q:
        return [text] if text else []
    return [text[i : i + q] for i in range(len(text) - q + 1)]


def jaccard_qgrams(a, b, q=2):
    """Jaccard similarity of the q-gram sets of two strings.

    >>> jaccard_qgrams("smith", "smith")
    1.0
    """
    ga, gb = set(qgrams(a, q=q)), set(qgrams(b, q=q))
    if not ga and not gb:
        return 1.0
    if not ga or not gb:
        return 0.0
    return len(ga & gb) / len(ga | gb)
