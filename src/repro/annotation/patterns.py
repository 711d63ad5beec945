"""The user-defined pattern language (paper Section IV-C).

"Users are allowed to define patterns of grammatical forms, surface
forms and/or domain dictionary terms", e.g.::

    please + VERB              -> VERB[request]
    just + NUMERIC + dollars   -> mention of good rate[value selling]
    wonderful + rate           -> mention of good rate[value selling]

A pattern is a ``+``-separated sequence of elements; each element is

* a lower-case literal word (``please``),
* an UPPER-CASE part-of-speech class (``VERB``, ``NUMERIC``, ``NEG``),
* ``<category>`` — any token span the domain dictionary tagged with
  that semantic category,
* ``*`` — exactly one arbitrary token, or
* ``a|b|c`` — alternation of literal words.

On match, the pattern emits a concept with its ``canonical`` label and
``category``.  ``capture="pos:VERB"``-style outputs (the paper's
"VERB[request]") replace the canonical with the matched token of that
element.

Matching runs through a :class:`PatternSet`: the patterns compiled
once into a first-element dispatch table, so each token position tries
only the patterns whose first element can match there.
"""

from dataclasses import dataclass

from repro.annotation.concepts import Concept


@dataclass(frozen=True)
class _Element:
    kind: str  # "literal" | "pos" | "category" | "wildcard" | "alt"
    value: object


def _parse_element(raw):
    raw = raw.strip()
    if not raw:
        raise ValueError("empty pattern element")
    if raw == "*":
        return _Element("wildcard", None)
    if raw.startswith("<") and raw.endswith(">"):
        if len(raw) < 3:
            raise ValueError("empty category element '<>'")
        return _Element("category", raw[1:-1])
    if "|" in raw:
        alternatives = raw.lower().split("|")
        if not all(alternatives):
            raise ValueError(f"empty alternative in {raw!r}")
        return _Element("alt", frozenset(alternatives))
    if raw.isupper():
        return _Element("pos", raw)
    return _Element("literal", raw.lower())


@dataclass(frozen=True)
class Pattern:
    """A compiled pattern with its output concept."""

    expression: str
    canonical: str
    category: str
    elements: tuple
    capture_index: int = -1  # element whose token becomes the canonical

    def match(self, tokens, pos_tags, categories_by_position):
        """All matches over the token stream, in start order.

        ``pos_tags[i]`` is the PoS tag of token ``i`` and
        ``categories_by_position[i]`` the set of dictionary categories
        covering it.  Returns Concept objects.
        """
        return PatternSet((self,)).match(
            tokens, pos_tags, categories_by_position
        )


# Tests a compiled element runs on the token at its position.  Literal
# and alternation elements are both a token set; wildcards need no test.
_TOKEN = "token"
_POS = "pos"
_CATEGORY = "category"


def _test_of(element):
    """(test kind, value) for one element; None for a wildcard."""
    if element.kind == "literal":
        return _TOKEN, frozenset((element.value,))
    if element.kind == "alt":
        return _TOKEN, element.value
    if element.kind == "pos":
        return _POS, element.value
    if element.kind == "category":
        return _CATEGORY, element.value
    return None


class PatternSet:
    """Patterns compiled into a first-element dispatch table.

    Each pattern is filed under its first element: token heads
    (literals and alternations) by token, PoS heads by tag,
    ``<category>`` heads by category, and wildcard heads under every
    position.  A position then tries only the patterns filed under
    what is there, and a tried pattern tests only its remaining
    elements.  Built once; :meth:`match` reads it and never changes it.
    """

    def __init__(self, patterns):
        """Compile ``patterns``; their order is the tie order of hits."""
        self.patterns = tuple(patterns)
        self._widths = tuple(len(p.elements) for p in self.patterns)
        tails = []
        by_token, by_tag, by_category, everywhere = {}, {}, {}, []
        for index, pattern in enumerate(self.patterns):
            head, *rest = pattern.elements
            tails.append(tuple(
                (offset, *test)
                for offset, test in enumerate(map(_test_of, rest), 1)
                if test is not None
            ))
            test = _test_of(head)
            if test is None:
                everywhere.append(index)
            elif test[0] == _TOKEN:
                for token in sorted(test[1]):
                    by_token.setdefault(token, []).append(index)
            else:
                table = by_tag if test[0] == _POS else by_category
                table.setdefault(test[1], []).append(index)
        self._tails = tuple(tails)
        self._by_token = {k: tuple(v) for k, v in by_token.items()}
        self._by_tag = {k: tuple(v) for k, v in by_tag.items()}
        self._by_category = {k: tuple(v) for k, v in by_category.items()}
        self._everywhere = tuple(everywhere)
        self.uses_categories = any(
            element.kind == "category"
            for pattern in self.patterns
            for element in pattern.elements
        )

    def match(self, tokens, pos_tags, categories_by_position):
        """Every pattern match in ``tokens`` as a Concept list.

        Concepts come in start order and, at one start, in pattern
        order.  ``pos_tags`` is read by index, and only at positions a
        PoS element tests, so it may be a
        :class:`~repro.annotation.pos.LazyTags`.
        ``categories_by_position`` is read only when a pattern has a
        ``<category>`` element.
        """
        return self.scan(tokens, pos_tags, categories_by_position)[0]

    def scan(self, tokens, pos_tags, categories_by_position):
        """``(concepts, attempts)``: :meth:`match` and its work.

        ``attempts`` is the number of :meth:`_attempt` calls, one per
        (pattern, start) window the dispatch table let through.
        """
        size = len(tokens)
        windows = [
            (start, index)
            for start, index in self._heads(
                tokens, pos_tags, categories_by_position
            )
            if start + self._widths[index] <= size
        ]
        hits = [
            (start, index)
            for start, index in windows
            if self._attempt(index, start, tokens, pos_tags,
                             categories_by_position)
        ]
        hits.sort()
        concepts = []
        for start, index in hits:
            pattern = self.patterns[index]
            end = start + self._widths[index]
            canonical = pattern.canonical
            if pattern.capture_index >= 0:
                canonical = tokens[start + pattern.capture_index]
            concepts.append(Concept(
                canonical=canonical,
                category=pattern.category,
                surface=" ".join(tokens[start:end]),
                start=start,
                end=end,
                source="pattern",
            ))
        return concepts, len(windows)

    def _heads(self, tokens, pos_tags, categories_by_position):
        """(start, pattern index) pairs whose first element matches."""
        if self._by_token:
            for start, token in enumerate(tokens):
                for index in self._by_token.get(token, ()):
                    yield start, index
        if self._by_tag:
            for start in range(len(tokens)):
                for index in self._by_tag.get(pos_tags[start], ()):
                    yield start, index
        if self._by_category:
            for start in range(len(tokens)):
                for category in categories_by_position[start]:
                    for index in self._by_category.get(category, ()):
                        yield start, index
        if self._everywhere:
            for start in range(len(tokens)):
                for index in self._everywhere:
                    yield start, index

    def _attempt(self, index, start, tokens, pos_tags,
                 categories_by_position):
        """True when pattern ``index``'s elements after its head match.

        The head already matched at ``start`` and the pattern fits in
        the document.  One call per (pattern, start) window the
        dispatch table lets through: the unit of pattern-pass work.
        """
        for offset, kind, value in self._tails[index]:
            position = start + offset
            if kind == _TOKEN:
                if tokens[position] not in value:
                    return False
            elif kind == _POS:
                if pos_tags[position] != value:
                    return False
            elif value not in categories_by_position[position]:
                return False
        return True


def parse_pattern(expression, canonical, category, capture=None):
    """Compile a ``+``-separated pattern expression.

    ``capture`` names a PoS class whose matched token should become the
    concept's canonical form (the paper's "please + VERB ->
    VERB[request]": the verb itself is the concept).  An empty
    alternative (``a||b``, ``a|``) or an empty category (``<>``) is a
    ``ValueError``: either would parse into an element that never
    matches.
    """
    elements = tuple(
        _parse_element(part)
        for chunk in expression.split("+")
        for part in chunk.split()
    )
    if not elements:
        raise ValueError("pattern must have at least one element")
    capture_index = -1
    if capture is not None:
        for index, element in enumerate(elements):
            if element.kind == "pos" and element.value == capture:
                capture_index = index
                break
        if capture_index < 0:
            raise ValueError(
                f"capture class {capture!r} not present in {expression!r}"
            )
    return Pattern(
        expression=expression,
        canonical=canonical,
        category=category,
        elements=elements,
        capture_index=capture_index,
    )
