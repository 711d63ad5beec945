"""A lightweight lexicon-and-suffix part-of-speech tagger.

The pattern language of the annotation engine references grammatical
classes ("please + VERB", "just + NUMERIC + dollars"); this tagger
supplies them.  It is intentionally small: closed-class words come from
lexicons, numbers from shape, names/places from the synthetic-domain
lexicons, verbs from a list plus suffix heuristics, and everything else
defaults to NOUN — the right bias for noisy, caseless VoC text.
"""

from repro.synth.lexicon import CITIES, FIRST_NAMES, SURNAMES
from repro.util.tokenize import is_number_token

VERB = "VERB"
NOUN = "NOUN"
ADJ = "ADJ"
ADV = "ADV"
PRON = "PRON"
DET = "DET"
PREP = "PREP"
CONJ = "CONJ"
NUMERIC = "NUMERIC"
PROPN = "PROPN"
PUNCT = "PUNCT"
NEG = "NEG"

_PRONOUNS = {
    "i", "you", "he", "she", "it", "we", "they", "me", "him", "her",
    "us", "them", "my", "your", "his", "its", "our", "their", "myself",
}
_DETERMINERS = {"a", "an", "the", "this", "that", "these", "those", "some",
                "any", "each", "every"}
_PREPOSITIONS = {"in", "on", "at", "for", "to", "from", "with", "by",
                 "of", "about", "over", "under", "per"}
_CONJUNCTIONS = {"and", "or", "but", "so", "because", "if", "while"}
_NEGATIONS = {"not", "no", "never", "dont", "didnt", "cant", "wont",
              "isnt", "wasnt"}

_COMMON_VERBS = {
    "is", "am", "are", "was", "were", "be", "been", "being", "have",
    "has", "had", "do", "does", "did", "make", "made", "want", "need",
    "like", "book", "reserve", "rent", "pick", "know", "tell", "call",
    "pay", "offer", "give", "get", "help", "check", "confirm", "cancel",
    "change", "charge", "save", "think", "go", "come", "leave", "say",
    "said", "told", "asked", "apply", "qualify", "receive", "send",
    "disconnect", "activate", "deactivate", "resolve", "switch", "port",
    "mention", "quote", "assure",
}

_COMMON_ADJECTIVES = {
    "good", "great", "wonderful", "fantastic", "nice", "bad", "high",
    "low", "cheap", "expensive", "new", "latest", "comfortable", "full",
    "small", "big", "rude", "polite", "happy", "free", "wrong", "best",
    "better", "existing", "corporate", "promotional",
}

_NUMBER_WORDS = {
    "zero", "one", "two", "three", "four", "five", "six", "seven",
    "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
    "fifteen", "sixteen", "seventeen", "eighteen", "nineteen", "twenty",
    "thirty", "forty", "fifty", "sixty", "seventy", "eighty", "ninety",
    "hundred", "thousand",
}

_VERB_SUFFIXES = ("ing", "ed", "ate", "ify", "ise", "ize")


class PosTagger:
    """Tags lower-cased tokens with coarse part-of-speech labels."""

    def __init__(self, proper_nouns=None):
        if proper_nouns is None:
            proper_nouns = set(FIRST_NAMES) | set(SURNAMES)
            for city in CITIES:
                proper_nouns.update(city.split())
        self._proper = {word.lower() for word in proper_nouns}

    def tag_token(self, token):
        """PoS label for one token."""
        token = token.lower()
        if not token or not token[0].isalnum():
            return PUNCT
        if is_number_token(token) or token in _NUMBER_WORDS:
            return NUMERIC
        if token in _NEGATIONS:
            return NEG
        if token in _PRONOUNS:
            return PRON
        if token in _DETERMINERS:
            return DET
        if token in _PREPOSITIONS:
            return PREP
        if token in _CONJUNCTIONS:
            return CONJ
        if token in _COMMON_VERBS:
            return VERB
        if token in _COMMON_ADJECTIVES:
            return ADJ
        if token in self._proper:
            return PROPN
        if len(token) > 4 and token.endswith(_VERB_SUFFIXES):
            return VERB
        if token.endswith("ly") and len(token) > 3:
            return ADV
        return NOUN

    def tag(self, tokens):
        """PoS labels aligned with ``tokens``."""
        return [self.tag_token(token) for token in tokens]


class LazyTags:
    """The PoS tags of one token list, each computed on first read.

    ``tags[i]`` tags token ``i`` with ``tagger.tag_token`` the first
    time it is read and memoises the result, so a position no pattern
    element tests is never tagged.  Reads equal ``tagger.tag(tokens)``
    for any tagger whose tags are per token.
    """

    __slots__ = ("_tokens", "_tagger", "_tags")

    def __init__(self, tokens, tagger):
        """Tags for ``tokens``; none is computed yet."""
        self._tokens = tokens
        self._tagger = tagger
        self._tags = [None] * len(tokens)

    def __getitem__(self, position):
        tag = self._tags[position]
        if tag is None:
            tag = self._tagger.tag_token(self._tokens[position])
            self._tags[position] = tag
        return tag
