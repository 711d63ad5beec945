"""The annotation engine: dictionary pass + pattern pass.

"The previous dictionary look up process assigns semantic categories to
each word without considering any features around the target word.
The pattern extraction phase extracts groups of words or phrases and
assigns them labels such as value selling and complaint."
(paper Section IV-C)
"""

from repro.annotation.concepts import AnnotatedDocument
from repro.annotation.dictionary import DomainDictionary
from repro.annotation.patterns import PatternSet
from repro.annotation.pos import LazyTags, PosTagger
from repro.obs import get_metrics
from repro.util.tokenize import tokenize


class AnnotationEngine:
    """Applies a domain dictionary and pattern set to documents.

    The patterns are compiled into a :class:`PatternSet` here and in
    :meth:`add_pattern`, never in :meth:`annotate`.  PoS tags are
    computed lazily through :class:`~repro.annotation.pos.LazyTags`:
    ``tagger.tag_token`` runs only on positions a PoS element tests,
    once per position per document.

    Each :meth:`annotate` adds one to the ``annotation.documents``
    counter and its pattern-pass windows to
    ``annotation.patterns.attempts`` (write-only, like every counter).
    """

    def __init__(self, dictionary=None, patterns=(), tagger=None):
        self.dictionary = (
            DomainDictionary() if dictionary is None else dictionary
        )
        self.tagger = tagger or PosTagger()
        self._pattern_set = PatternSet(patterns)

    @property
    def patterns(self):
        """The registered patterns, in registration order (a tuple)."""
        return self._pattern_set.patterns

    def add_pattern(self, pattern):
        """Register one more pattern; returns self for chaining."""
        self._pattern_set = PatternSet(self.patterns + (pattern,))
        return self

    def annotate(self, text, doc_id=None, metadata=None, tokens=None):
        """Annotate one document; returns an :class:`AnnotatedDocument`.

        ``tokens``, when the caller already has them, must be
        ``tokenize(text, lower=True)``; they are then not built again.
        """
        if tokens is None:
            tokens = tokenize(text, lower=True)
        dictionary_concepts = self.dictionary.match(tokens)
        categories_by_position = None
        if self._pattern_set.uses_categories:
            categories_by_position = [set() for _ in tokens]
            for concept in dictionary_concepts:
                for position in range(concept.start, concept.end):
                    categories_by_position[position].add(concept.category)
        pattern_concepts, attempts = self._pattern_set.scan(
            tokens, LazyTags(tokens, self.tagger), categories_by_position
        )
        metrics = get_metrics()
        metrics.counter("annotation.documents").inc()
        metrics.counter("annotation.patterns.attempts").inc(attempts)
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

    def annotate_many(self, texts, ids=None):
        """Annotate an iterable of documents."""
        if ids is None:
            ids = range(len(texts)) if hasattr(texts, "__len__") else None
        if ids is None:
            return [
                self.annotate(text, doc_id=index)
                for index, text in enumerate(texts)
            ]
        return [
            self.annotate(text, doc_id=doc_id)
            for text, doc_id in zip(texts, ids)
        ]
