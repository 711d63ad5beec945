"""Concept annotation engine (paper Section IV-C).

Turns noisy VoC text into *concepts* — canonical forms with semantic
categories — via two mechanisms the paper describes:

* a **domain dictionary** of surface forms with parts of speech,
  canonical representations and semantic categories
  ("child seat [noun] -> child seat [vehicle feature]"), and
* **user-defined patterns** over grammatical and lexical features
  ("please + VERB -> VERB[request]",
  "just + NUMERIC + dollars -> mention of good rate[value selling]"),
  including negation-aware variants ("X was not rude ->
  not rude[commendation]").
"""

from repro.annotation.concepts import AnnotatedDocument, Concept
from repro.annotation.pos import LazyTags, PosTagger
from repro.annotation.dictionary import DictionaryEntry, DomainDictionary
from repro.annotation.patterns import Pattern, PatternSet, parse_pattern
from repro.annotation.matcher import AnnotationEngine
from repro.annotation.termlist import (
    TermEntry,
    frequency_term_list,
    uncovered_terms,
)
from repro.annotation.domains import (
    build_car_rental_engine,
    build_telecom_engine,
)

__all__ = [
    "Concept",
    "AnnotatedDocument",
    "PosTagger",
    "LazyTags",
    "DictionaryEntry",
    "DomainDictionary",
    "Pattern",
    "PatternSet",
    "parse_pattern",
    "AnnotationEngine",
    "TermEntry",
    "frequency_term_list",
    "uncovered_terms",
    "build_car_rental_engine",
    "build_telecom_engine",
]
