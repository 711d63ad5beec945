"""Exact and fuzzy indexes over attribute values.

Candidate generation is what makes linking scale: "the highest-scoring
entity can be determined efficiently, without computing scores
explicitly for all entities" (paper Section IV-B).  Four index families
cover the attribute types:

* :class:`HashIndex` — exact value lookup (ids, categories).
* :class:`TokenIndex` — inverted index over whitespace tokens
  (multi-word strings, addresses).
* :class:`QGramIndex` — character q-gram index; candidates ranked by
  shared-q-gram count (typo-tolerant: names, places).
* :class:`SoundexIndex` — phonetic blocking for ASR-corrupted names
  (similar-sounding substitutions keep the Soundex block).

All indexes share the same tiny interface: ``add(entity_id, value)`` and
``candidates(query, limit)`` returning entity ids, best first.

Candidate order never depends on ``PYTHONHASHSEED``.  Postings are
insertion-ordered dicts keyed by entity id, and a query walks its grams
and codes in first-occurrence order, so the counts ``Counter`` sees,
and the first-counted order that breaks count ties, are fixed by the
data alone.  Iterating a ``set`` of ``str`` grams would follow the
interpreter's hash salt and change which entities make a capped list.
"""

from collections import Counter, defaultdict
from operator import itemgetter

from repro.store.schema import AttributeType
from repro.util.phonetics import soundex
from repro.util.textdist import qgrams


class HashIndex:
    """Exact-match index: normalised value → entity ids."""

    def __init__(self, normalize=str.lower):
        self._normalize = normalize
        self._postings = defaultdict(list)

    def add(self, entity_id, value):
        """Index one (entity_id, value) pair."""
        self._postings[self._normalize(value)].append(entity_id)

    def candidates(self, query, limit=50):
        """Candidate entity ids for a query value, best first."""
        return list(self._postings.get(self._normalize(query), ()))[:limit]

    def __len__(self):
        return sum(len(ids) for ids in self._postings.values())


def _most_counted(counts, limit):
    """The ``limit`` ids with the highest counts, best first.

    Ties stay in first-counted order.  This is the order of
    ``Counter.most_common(limit)``, whose ``heapq.nlargest`` is
    specified as exactly this stable sort, without the heap.
    """
    ranked = sorted(counts.items(), key=itemgetter(1), reverse=True)
    return [entity_id for entity_id, _ in ranked[:limit]]


class _SharedKeyIndex:
    """Inverted index ranking entities by the query keys they share.

    A subclass says what the keys of a value are (:meth:`_keys`).
    Postings map each key to an insertion-ordered dict of entity ids.
    """

    def __init__(self):
        self._postings = defaultdict(dict)
        self._size = 0

    def _keys(self, value):
        raise NotImplementedError

    def add(self, entity_id, value):
        """Index one (entity_id, value) pair."""
        for key in self._keys(value):
            self._postings[key][entity_id] = None
        self._size += 1

    def candidates(self, query, limit=50):
        """Candidate entity ids for a query value, best first."""
        counts = Counter()
        for key in self._keys(query):
            entity_ids = self._postings.get(key)
            if entity_ids:
                counts.update(entity_ids.keys())
        return _most_counted(counts, limit)

    def __len__(self):
        return self._size

    def __getstate__(self):
        # Postings pickle as tuples: the same order in fewer bytes than
        # dicts of None (a process backend ships the index per chunk).
        state = self.__dict__.copy()
        state["_postings"] = {
            key: tuple(entity_ids)
            for key, entity_ids in self._postings.items()
        }
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._postings = defaultdict(dict, {
            key: dict.fromkeys(entity_ids)
            for key, entity_ids in state["_postings"].items()
        })


class TokenIndex(_SharedKeyIndex):
    """Inverted index over lower-cased whitespace tokens.

    Candidates are ranked by the number of query tokens they share.
    """

    def _keys(self, value):
        return [token for token in value.lower().split() if token]


class QGramIndex(_SharedKeyIndex):
    """Character q-gram index with shared-gram candidate ranking.

    The ranking score is the count of query q-grams present in the
    indexed value, so near-misses ("SHMIT" for "SMITH") still surface
    the right candidates; exact similarity is computed later by the
    linking engine's measure.
    """

    def __init__(self, q=2):
        if q <= 0:
            raise ValueError("q must be positive")
        super().__init__()
        self.q = q

    def _grams(self, value):
        return qgrams(value.lower(), q=self.q)

    def _keys(self, value):
        return dict.fromkeys(self._grams(value))


class SoundexIndex(_SharedKeyIndex):
    """Phonetic-block index over the tokens of a value.

    A query matches every entity that shares a Soundex block with any of
    its tokens; blocks are intersected with q-gram ranking by the
    composite used for NAME attributes (see
    :func:`build_index_for_attribute`).
    """

    def _keys(self, value):
        return dict.fromkeys(
            soundex(token) for token in value.split() if token
        )


class CompositeIndex:
    """Merge candidates from several indexes (rank-sum fusion).

    NAME attributes use q-grams (typo tolerance) plus Soundex (phonetic
    tolerance): ASR noise produces *similar-sounding* corruptions that
    q-grams alone can miss, and SMS typos produce *similar-looking*
    corruptions that Soundex alone can miss.
    """

    def __init__(self, indexes):
        if not indexes:
            raise ValueError("CompositeIndex needs at least one sub-index")
        self._indexes = list(indexes)

    def add(self, entity_id, value):
        """Index one (entity_id, value) pair."""
        for index in self._indexes:
            index.add(entity_id, value)

    def candidates(self, query, limit=50):
        """Candidate entity ids for a query value, best first."""
        scores = Counter()
        for index in self._indexes:
            ranked = index.candidates(query, limit=limit)
            for rank, entity_id in enumerate(ranked):
                scores[entity_id] += len(ranked) - rank
        return _most_counted(scores, limit)

    def __len__(self):
        return len(self._indexes[0])


class DigitsIndex(QGramIndex):
    """Q-gram index over the digit string of a value.

    Phone numbers and card numbers arrive partially recognised ("only 6
    out of a 10 digit telephone number may get recognized"), so indexing
    digit q-grams lets a partial number still surface its record.
    """

    def __init__(self, q=3):
        super().__init__(q=q)

    def _grams(self, value):
        digits = "".join(ch for ch in value if ch.isdigit())
        return qgrams(digits, q=self.q)


def build_index_for_attribute(attr_type):
    """Default index construction per :class:`AttributeType`."""
    if attr_type in (AttributeType.ID, AttributeType.CATEGORY):
        return HashIndex()
    if attr_type is AttributeType.NAME:
        return CompositeIndex([QGramIndex(q=2), SoundexIndex()])
    if attr_type in (AttributeType.PHONE, AttributeType.CARD):
        return DigitsIndex(q=3)
    if attr_type in (AttributeType.DATE, AttributeType.NUMBER,
                     AttributeType.MONEY):
        return HashIndex(normalize=lambda v: v.strip())
    if attr_type is AttributeType.PLACE:
        return QGramIndex(q=2)
    return TokenIndex()
