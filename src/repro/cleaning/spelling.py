"""Noisy-channel spelling correction.

"The domain of noisy text correction is comparatively new, though
considerable insight into probable approaches may be taken from the
field of automatic spelling correctors [Kukich 1992]."

The corrector is the classic noisy-channel design: a unigram language
model over a domain vocabulary, candidate generation by edit distance
(with adjacent transpositions counted once, since they dominate typing
noise), and a per-edit penalty.  Out-of-vocabulary tokens are replaced
by the most probable in-vocabulary candidate within the edit budget.

Candidates come from a symmetric-delete index (Garbe's SymSpell idea)
rather than a scan of the vocabulary: each vocabulary word is indexed
under every string its deletes reach, a query looks up the strings its
own deletes reach, and only that pool is verified with the distance
function.  The index is compiled once per corpus and edit budget in a
process and shared, read-only, by every corrector built over them.
"""

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from repro.synth.lexicon import (
    CALL_CENTER_SENTENCES,
    CHURN_DRIVERS,
    CHURN_INTENT_PHRASES,
    CITIES,
    GENERAL_ENGLISH_SENTENCES,
    NEUTRAL_TELECOM_PHRASES,
    SMS_LINGO,
    VEHICLE_SURFACES,
)
from repro.util.textdist import damerau_levenshtein


def default_spelling_corpus():
    """Sentences whose words form the default correction vocabulary."""
    sentences = list(GENERAL_ENGLISH_SENTENCES)
    sentences.extend(CALL_CENTER_SENTENCES)
    sentences.extend(NEUTRAL_TELECOM_PHRASES)
    sentences.extend(CHURN_INTENT_PHRASES)
    for phrases in CHURN_DRIVERS.values():
        sentences.extend(phrases)
    # The standard forms behind the SMS lingo table are exactly the
    # words SMS customers write (and misspell) most.
    sentences.append(" ".join(SMS_LINGO))
    # Car-rental domain vocabulary (cities, vehicle surfaces, the words
    # agents type in after-call notes): without these, the corrector
    # "fixes" valid domain words into lookalikes ("compact"->"company").
    sentences.extend(CITIES)
    for surfaces in VEHICLE_SURFACES.values():
        sentences.extend(surfaces)
    sentences.append(
        "customer called wanted needs asked asking quoted agreed rates "
        "prices dates status details satisfied expensive ready think "
        "change existing requested done only back call will days"
    )
    return sentences


@dataclass(frozen=True)
class CompiledVocabulary:
    """Read-only correction tables compiled from one corpus.

    ``counts`` maps each word to its frequency and ``ranks`` to its
    first-occurrence rank.  ``deletes`` is the symmetric-delete index
    (Garbe's SymSpell idea): every string reachable from a vocabulary
    word by up to ``max_edit`` single-character deletes maps to the
    tuple of words it is reachable from, in rank order.  The mappings
    are :class:`types.MappingProxyType` views, so correctors can share
    one instance without sharing mutable state.
    """

    counts: MappingProxyType
    total: int
    ranks: MappingProxyType
    deletes: MappingProxyType
    max_edit: int


def _deletes(word, depth):
    """``word`` and every string made from it by up to ``depth`` deletes."""
    variants = {word}
    frontier = {word}
    for _ in range(depth):
        frontier = {
            variant[:i] + variant[i + 1:]
            for variant in frontier
            for i in range(len(variant))
        }
        variants |= frontier
    return variants


@lru_cache(maxsize=8)
def compile_vocabulary(sentences, max_edit_distance):
    """Compile ``sentences`` (a tuple of strings) into correction tables.

    A pure function of its arguments, cached so that every corrector
    over the same corpus and edit budget shares one compile.
    """
    counts = {}
    for sentence in sentences:
        for word in sentence.lower().split():
            if word.isalpha():
                counts[word] = counts.get(word, 0) + 1
    deletes = {}
    for word in counts:
        for variant in _deletes(word, max_edit_distance):
            deletes.setdefault(variant, []).append(word)
    return CompiledVocabulary(
        counts=MappingProxyType(counts),
        total=sum(counts.values()),
        ranks=MappingProxyType(
            {word: rank for rank, word in enumerate(counts)}
        ),
        deletes=MappingProxyType(
            {variant: tuple(words) for variant, words in deletes.items()}
        ),
        max_edit=max_edit_distance,
    )


class SpellCorrector:
    """Edit-distance spell corrector over a unigram vocabulary."""

    def __init__(self, corpus=None, max_edit_distance=2, min_length=4):
        if corpus is None:
            corpus = default_spelling_corpus()
        self._tables = compile_vocabulary(tuple(corpus), max_edit_distance)
        self._min_length = min_length

    @property
    def vocabulary(self):
        """The correction vocabulary as a set."""
        return set(self._tables.counts)

    def known(self, word):
        """True when the word is in the correction vocabulary."""
        return word.lower() in self._tables.counts

    def _candidates(self, word):
        """In-vocabulary words within the edit budget, with distances.

        Any two words within OSA distance ``k`` share a string reachable
        from each by at most ``k`` deletes (see
        :func:`~repro.util.textdist.damerau_levenshtein`), so the union
        of the postings of the word's own deletes holds every candidate.
        Only that pool is verified, in the order of a scan by length
        then first occurrence, so ``max`` breaks score ties as a full
        scan of the vocabulary would.
        """
        tables = self._tables
        pool = set()
        for variant in _deletes(word, tables.max_edit):
            pool.update(tables.deletes.get(variant, ()))
        found = []
        for candidate in sorted(
            pool, key=lambda c: (len(c), tables.ranks[c])
        ):
            distance = damerau_levenshtein(word, candidate)
            if distance <= tables.max_edit:
                found.append((candidate, distance))
        return found

    def correct_word(self, word):
        """Best correction for one token (or the token unchanged).

        Tokens that are known, too short to correct safely, or
        non-alphabetic pass through untouched.
        """
        lowered = word.lower()
        if (
            not lowered.isalpha()
            or len(lowered) < self._min_length
            or lowered in self._tables.counts
        ):
            return word
        candidates = self._candidates(lowered)
        if not candidates:
            return word
        # Noisy channel: maximise P(candidate) * P(typo | candidate),
        # the channel term decaying geometrically with edit distance.
        def score(pair):
            candidate, distance = pair
            prior = self._tables.counts[candidate] / self._tables.total
            return prior * (0.08 ** distance)

        best, _ = max(candidates, key=score)
        return best

    def correct(self, text):
        """Correct every token of a message."""
        return " ".join(self.correct_word(token) for token in text.split())
