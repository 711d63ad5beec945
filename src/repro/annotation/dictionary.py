"""The domain dictionary: surface form → canonical form + category.

Paper Section IV-C: "This dictionary consists of entries with surface
representations, parts of speech (PoS), canonical representations, and
semantic categories", e.g.::

    child seat [noun]   -> child seat [vehicle feature]
    NY [proper noun]    -> New York [place]
    master card [noun]  -> credit card [payment methods]

Lookup is longest-match over the token stream, so multi-word surfaces
win over their single-word prefixes.
"""

from collections import defaultdict
from dataclasses import dataclass

from repro.annotation.concepts import Concept


@dataclass(frozen=True)
class DictionaryEntry:
    """One dictionary row."""

    surface: str  # space-separated lower-case surface form
    canonical: str
    category: str
    pos: str = "noun"  # informational, as in the paper's examples

    def __post_init__(self):
        if not self.surface.strip():
            raise ValueError("surface form must be non-empty")
        object.__setattr__(self, "surface", self.surface.lower().strip())

    @property
    def surface_tokens(self):
        """The surface form split into tokens."""
        return tuple(self.surface.split())


class DomainDictionary:
    """Longest-match dictionary over token streams.

    Entries are bucketed by their first surface token, longest surface
    first.  Each bucket item keeps what matching reads of the entry:
    the tokens after the first (a list, to compare with a slice of the
    token list), the surface width and the joined surface.
    """

    def __init__(self, entries=()):
        self._by_first_token = defaultdict(list)
        self._entries = []
        for entry in entries:
            self.add(entry)

    def add(self, entry, canonical=None, category=None, pos="noun"):
        """Add an entry (or build one from surface/canonical/category)."""
        if not isinstance(entry, DictionaryEntry):
            if canonical is None or category is None:
                raise ValueError(
                    "provide a DictionaryEntry or surface+canonical+category"
                )
            entry = DictionaryEntry(entry, canonical, category, pos)
        self._entries.append(entry)
        span = entry.surface_tokens
        bucket = self._by_first_token[span[0]]
        bucket.append((list(span[1:]), len(span), " ".join(span), entry))
        # Keep longest surfaces first so matching is longest-first.
        bucket.sort(key=lambda item: -item[1])
        return self

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def entries_for_category(self, category):
        """All entries whose semantic category matches."""
        return [e for e in self._entries if e.category == category]

    def match(self, tokens):
        """All dictionary concepts in ``tokens`` (longest match wins).

        Returns :class:`~repro.annotation.concepts.Concept` objects in
        document order; overlapping matches are resolved left-to-right,
        longest-first (a matched span is consumed).  Tokens are compared
        lower-cased.  The engine's tokens already are: when lowering
        their join changes nothing it would change no token either, so
        one lowering of the join stands in for one per token.
        """
        tokens = list(tokens)
        joined = " ".join(tokens)
        if joined != joined.lower():
            tokens = [token.lower() for token in tokens]
        buckets = self._by_first_token
        starts = [i for i, token in enumerate(tokens) if token in buckets]
        concepts = []
        end = 0  # tokens before ``end`` are consumed
        for i in starts:
            if i < end:
                continue
            for rest, width, surface, entry in buckets[tokens[i]]:
                # Longest-first ordering makes the first hit greedy.
                if tokens[i + 1 : i + width] == rest:
                    end = i + width
                    concepts.append(
                        Concept(
                            canonical=entry.canonical,
                            category=entry.category,
                            surface=surface,
                            start=i,
                            end=end,
                            source="dictionary",
                        )
                    )
                    break
        return concepts
