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
Each corrector memoises its own candidate searches, so a word it has
corrected once is looked up, not searched, the next time.
"""

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from repro.obs import get_metrics
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

#: Candidate searches a corrector remembers; past it the memo starts over.
SEARCH_MEMO_LIMIT = 1 << 16


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

    ``counts`` maps each word to its frequency, in first-occurrence
    (rank) order, and ``scan`` maps it to its position in a scan of the
    vocabulary by length, then rank.  ``deletes`` is the
    symmetric-delete index (Garbe's SymSpell idea): every string
    reachable from a vocabulary word by up to ``max_edit``
    single-character deletes maps to the tuple of words it is reachable
    from, in rank order.  The mappings are
    :class:`types.MappingProxyType` views, so correctors can share one
    instance without sharing mutable state.
    """

    counts: MappingProxyType
    total: int
    scan: MappingProxyType
    deletes: MappingProxyType
    max_edit: int


def _deletes(word, depth):
    """``word`` and every string made from it by up to ``depth`` deletes.

    Positions are deleted left to right: a variant cut at ``i`` is only
    cut again at ``i`` or later, so each set of deleted positions is
    cut once, not once per order of its deletes.
    """
    variants = {word}
    frontier = [(word, 0)]
    for _ in range(depth):
        frontier = [
            (variant[:i] + variant[i + 1:], i)
            for variant, start in frontier
            for i in range(start, len(variant))
        ]
        variants.update([variant for variant, _ in frontier])
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
    # counts is in rank order and sorted() is stable: length, then rank.
    scan = sorted(counts, key=len)
    return CompiledVocabulary(
        counts=MappingProxyType(counts),
        total=sum(counts.values()),
        scan=MappingProxyType(
            {word: position for position, word in enumerate(scan)}
        ),
        deletes=MappingProxyType(
            {variant: tuple(words) for variant, words in deletes.items()}
        ),
        max_edit=max_edit_distance,
    )


class SpellCorrector:
    """Edit-distance spell corrector over a unigram vocabulary.

    The best correction of an out-of-vocabulary word is a pure function
    of the lowered word, the compiled tables and ``min_length``, so each
    corrector memoises it per lowered word.  The memo belongs to the
    corrector and starts empty; past :data:`SEARCH_MEMO_LIMIT` words it
    starts over, so a long-lived corrector cannot grow without limit.
    """

    def __init__(self, corpus=None, max_edit_distance=2, min_length=4):
        if corpus is None:
            corpus = default_spelling_corpus()
        self._tables = compile_vocabulary(tuple(corpus), max_edit_distance)
        self._min_length = min_length
        self._searches = {}

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
        then first occurrence (``scan``), so ``max`` breaks score ties
        as a full scan of the vocabulary would.  Counts one search, and
        one distance evaluation per pooled word, on
        ``cleaning.spelling.searches`` and ``.evaluations``.
        """
        tables = self._tables
        pool = set().union(*filter(None, map(
            tables.deletes.get, _deletes(word, tables.max_edit)
        )))
        metrics = get_metrics()
        metrics.counter("cleaning.spelling.searches").inc()
        metrics.counter("cleaning.spelling.evaluations").inc(len(pool))
        found = []
        for candidate in sorted(pool, key=tables.scan.__getitem__):
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
        best = self._searches.get(lowered)
        if best is None:
            if len(self._searches) > SEARCH_MEMO_LIMIT:
                self._searches = {}
            best = self._searches[lowered] = self._search(lowered)
        # "" means no candidate: the token keeps its own case.
        return best or word

    def _search(self, lowered):
        """The best candidate for ``lowered``, or "" when there is none."""
        candidates = self._candidates(lowered)
        if not candidates:
            return ""
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
