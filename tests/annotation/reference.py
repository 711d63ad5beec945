"""The naive annotation passes, kept as references for the compiled ones.

Every pattern is tried at every start position, element by element,
against eagerly computed PoS tags: the engine's pattern pass before
patterns were compiled into a dispatch table.  The dictionary pass
lowers every token and splits every surface it tries, as
``DomainDictionary.match`` did before its buckets kept each entry's
span.  Only tests use them.
"""

from collections import defaultdict

from repro.annotation.concepts import AnnotatedDocument, Concept
from repro.util.tokenize import tokenize


def element_matches(element, token, pos_tag, token_categories):
    """True when one parsed element matches the token at one position."""
    if element.kind == "literal":
        return token == element.value
    if element.kind == "pos":
        return pos_tag == element.value
    if element.kind == "category":
        return element.value in token_categories
    if element.kind == "alt":
        return token in element.value
    return True  # wildcard


def reference_match(pattern, tokens, pos_tags, categories_by_position):
    """All matches of one pattern, trying every start position."""
    width = len(pattern.elements)
    concepts = []
    for start in range(0, len(tokens) - width + 1):
        if all(
            element_matches(
                element,
                tokens[start + offset],
                pos_tags[start + offset],
                categories_by_position[start + offset],
            )
            for offset, element in enumerate(pattern.elements)
        ):
            canonical = pattern.canonical
            if pattern.capture_index >= 0:
                canonical = tokens[start + pattern.capture_index]
            concepts.append(
                Concept(
                    canonical=canonical,
                    category=pattern.category,
                    surface=" ".join(tokens[start : start + width]),
                    start=start,
                    end=start + width,
                    source="pattern",
                )
            )
    return concepts


def reference_windows(engine, text):
    """(pattern, start) windows the reference pass tries on ``text``."""
    size = len(tokenize(text, lower=True))
    return sum(
        max(0, size - len(pattern.elements) + 1)
        for pattern in engine.patterns
    )


def reference_dictionary_match(dictionary, tokens):
    """``dictionary.match(tokens)``: longest match, entry by entry."""
    by_first_token = defaultdict(list)
    for entry in dictionary:
        bucket = by_first_token[entry.surface_tokens[0]]
        bucket.append(entry)
        bucket.sort(key=lambda e: -len(e.surface_tokens))
    tokens = [token.lower() for token in tokens]
    concepts = []
    i = 0
    while i < len(tokens):
        matched = None
        for entry in by_first_token.get(tokens[i], ()):
            span = entry.surface_tokens
            if tuple(tokens[i : i + len(span)]) == span:
                matched = entry
                break  # longest-first ordering makes this greedy
        if matched is None:
            i += 1
            continue
        width = len(matched.surface_tokens)
        concepts.append(
            Concept(
                canonical=matched.canonical,
                category=matched.category,
                surface=" ".join(tokens[i : i + width]),
                start=i,
                end=i + width,
                source="dictionary",
            )
        )
        i += width
    return concepts


def reference_annotate(engine, text, doc_id=None, metadata=None):
    """``engine.annotate`` computed by the naive passes."""
    tokens = tokenize(text, lower=True)
    pos_tags = engine.tagger.tag(tokens)
    dictionary_concepts = reference_dictionary_match(
        engine.dictionary, tokens
    )
    categories_by_position = [set() for _ in tokens]
    for concept in dictionary_concepts:
        for position in range(concept.start, concept.end):
            categories_by_position[position].add(concept.category)
    pattern_concepts = []
    for pattern in engine.patterns:
        pattern_concepts.extend(
            reference_match(pattern, tokens, pos_tags, categories_by_position)
        )
    concepts = sorted(
        dictionary_concepts + pattern_concepts,
        key=lambda c: (c.start, c.end),
    )
    return AnnotatedDocument(
        doc_id=doc_id,
        text=text,
        tokens=tokens,
        concepts=concepts,
        metadata=dict(metadata or {}),
    )
