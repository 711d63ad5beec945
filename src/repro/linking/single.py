"""Single-type entity identification (paper Section IV-B, Eqn 2).

Given a document and one table, find the entity the document is about:

    score(d, e) = sum_i sum_j  w_j * sim(t_i, e.A_j)

with annotators restricting which attributes each token is compared
against, fuzzy indexes generating candidates, and a ranked-list merge
(Fagin/TA) producing the top-scoring entity without scanning the table.
The lists TA reads are scored lazily (:class:`LazyRankedList`): the
candidates an exact-match test places at 1.0 go first unscored, and
the rest are scored only when the merge reads past them or asks for
one of them by key.
"""

from dataclasses import dataclass

from repro.linking.annotators import build_default_annotators
from repro.linking.fagin import SortedList, threshold_merge
from repro.linking.similarity import default_registry
from repro.obs import get_metrics

#: Ranked lists a linker's memo holds before it starts over (one
#: seed-1 churn-email study fills 400).
RANKED_LIST_MEMO_LIMIT = 1 << 13


@dataclass
class LinkResult:
    """Outcome of linking one document against one table."""

    entity: object  # best Entity, or None when nothing matched
    score: float
    ranked: list  # [(entity_id, score)] best first
    tokens: list  # the TypedTokens that drove the match
    table_name: str

    @property
    def linked(self):
        """True when an entity cleared the score/confirmation gates."""
        return self.entity is not None


class LazyRankedList(SortedList):
    """One ``(attribute, token value)`` ranked list, scored as it is read.

    Its *head* is the candidates that pass the registry's exact-match
    test (:meth:`~repro.linking.similarity.SimilarityRegistry.exact_test`),
    each at 1.0, in id order: the exact head of the ``(-score, id)``
    order, placed without scoring.  A registry without the test, or a
    measure without one, gives an empty head.

    - **Sorted access** within the head costs nothing.  Past it, the
      remaining candidates are scored (reusing any score already read
      by key), their nonzero scores sorted by ``(-score, id)`` and
      appended to the head, once.
    - **Random access** (:meth:`get`) scores one candidate and keeps
      its score; a key that is not a candidate gets ``default``.

    Every score goes through ``registry.similarity``, so the list reads
    exactly what the eager list did.  A list keeps its registry but no
    reference to its linker, so a linker's memo holds no cycle.
    """

    __slots__ = (
        "_registry", "_attr_type", "_attribute_name", "_token_value",
        "_candidates", "_head", "_by_id",
    )

    def __init__(self, registry, attribute, token_value, candidates):
        self._registry = registry
        self._attr_type = attribute.type
        self._attribute_name = attribute.name
        self._token_value = token_value
        self._candidates = candidates
        self._entries = None
        self._by_id = None
        exact_test = getattr(registry, "exact_test", None)
        test = exact_test(attribute.type, token_value) if exact_test else None
        if test is None:
            self._head = ()
        else:
            self._head = tuple(
                (entity_id, 1.0)
                for entity_id in sorted(
                    entity.entity_id
                    for entity in candidates
                    if test(entity.values.get(attribute.name))
                )
            )
        self._scores = dict(self._head)

    @property
    def certified(self):
        """Entries placed at 1.0 by the exact-match test, unscored."""
        return len(self._head)

    def entry(self, depth):
        """The ``(entity_id, score)`` at ``depth``, or None past the end."""
        head = self._head
        if depth < len(head):
            return head[depth]
        entries = self._entries
        if entries is None:
            entries = self._materialise()
        return entries[depth] if depth < len(entries) else None

    def get(self, key, default=None):
        """``key``'s score if it is a candidate, else ``default``."""
        score = self._scores.get(key)
        if score is not None:
            return score
        if self._entries is not None:  # every candidate is scored
            return default
        by_id = self._by_id
        if by_id is None:
            by_id = self._by_id = {
                entity.entity_id: entity for entity in self._candidates
            }
        entity = by_id.get(key)
        if entity is None:
            return default
        score = self._scores[key] = self._score(entity)
        return score

    def __iter__(self):
        entries = self._entries
        return iter(self._materialise() if entries is None else entries)

    def _score(self, entity):
        return self._registry.similarity(
            self._attr_type,
            self._token_value,
            entity.values.get(self._attribute_name),
        )

    def _materialise(self):
        """Score the candidates past the head; the whole list, in order."""
        scores = self._scores
        head_ids = {entity_id for entity_id, _ in self._head}
        rest = []
        for entity in self._candidates:
            entity_id = entity.entity_id
            if entity_id in head_ids:
                continue
            score = scores.get(entity_id)
            if score is None:
                score = scores[entity_id] = self._score(entity)
            if score > 0.0:
                rest.append((entity_id, score))
        rest.sort(key=lambda pair: (-pair[1], pair[0]))
        entries = self._entries = self._head + tuple(rest)
        return entries


class EntityLinker:
    """Links documents to entities of a single table.

    A linker builds each ranked list once: the
    :class:`LazyRankedList` of one ``(attribute name, token value)``
    pair is kept, with whatever scores its reads have filled in, in a
    memo that belongs to the linker, starts empty and starts over past
    :data:`RANKED_LIST_MEMO_LIMIT` lists.  A pickled linker (shipped to
    a worker process) carries no memo.  Threads that share a linker
    share its memo; at worst two of them score an entry twice.
    """

    def __init__(self, database, table_name, annotators=None,
                 registry=None, weights=None, candidate_limit=25,
                 min_score=0.0, confirm=None):
        """``confirm`` maps attribute names to a minimum similarity one
        of the document's tokens must reach against the winning entity
        (high-precision mode: "accept only with near-exact phone
        evidence").  Links failing confirmation are rejected."""
        self.database = database
        self.table_name = table_name
        self.table = database.table(table_name)
        self.annotators = annotators or build_default_annotators()
        self.registry = registry or default_registry()
        self.weights = dict(weights or {})
        self.candidate_limit = candidate_limit
        self.min_score = min_score
        self.confirm = dict(confirm or {})
        # (table version, {(attribute name, token value): LazyRankedList}),
        # swapped as one tuple so a reader never pairs a memo with the
        # wrong version.
        self._ranked = (None, {})

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_ranked"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._ranked = (None, {})

    def weight_of(self, attribute_name):
        """Weight w_j for an attribute (default 1.0)."""
        return self.weights.get(attribute_name, 1.0)

    def _candidates_for(self, attribute, token):
        """Candidate entities for one (token, attribute) pair."""
        if self.database.has_index(self.table_name, attribute.name):
            return self.database.candidates(
                self.table_name,
                attribute.name,
                token.value,
                limit=self.candidate_limit,
            )
        # Unindexed attribute: scan (fine for small dimension tables).
        return list(self.table)

    def _lists(self, tokens):
        """The memoised list and weight of every (token, attribute) pair.

        Returns ``(lists, weights)`` in token and attribute order; a
        list may be empty, and one read twice in a document is the
        same object.

        A list is a function of its attribute and token value alone, so
        it is built once per ``(attribute name, token value)`` and
        reused from the linker's memo after that.  The memo assumes the
        registry's measures and ``candidate_limit`` stay fixed once the
        linker has linked.  It starts over when the table grows (rows
        are append-only, so its length versions it) or when
        :meth:`~repro.store.database.Database.build_indexes` runs again
        (:attr:`~repro.store.database.Database.generation`).  Counts
        the lists built (one candidate search each) and reused, the
        candidates they hold and those placed unscored at 1.0, on
        ``linking.lists.scored``, ``.reused``, ``.entries`` and
        ``.certified``.
        """
        version = (self.database.generation, len(self.table))
        memo_version, memo = self._ranked
        if memo_version != version or len(memo) > RANKED_LIST_MEMO_LIMIT:
            memo = {}
            self._ranked = (version, memo)
        lists = []
        weights = []
        scored = reused = entries = certified = 0
        for token in tokens:
            for attribute in self.table.schema.attributes_of_type(
                token.attr_type
            ):
                key = (attribute.name, token.value)
                ranked = memo.get(key)
                if ranked is None:
                    candidates = self._candidates_for(attribute, token)
                    ranked = memo[key] = LazyRankedList(
                        self.registry, attribute, token.value, candidates
                    )
                    scored += 1
                    entries += len(candidates)
                    certified += ranked.certified
                else:
                    reused += 1
                lists.append(ranked)
                weights.append(self.weight_of(attribute.name))
        metrics = get_metrics()
        metrics.counter("linking.lists.scored").inc(scored)
        metrics.counter("linking.lists.reused").inc(reused)
        metrics.counter("linking.lists.entries").inc(entries)
        metrics.counter("linking.lists.certified").inc(certified)
        return lists, weights

    def ranked_lists(self, text):
        """Per-(token, attribute) ranked candidate lists and weights.

        Returns ``(lists, weights, tokens)`` ready for the merge.  Each
        list is a fresh ``list`` of ``(entity_id, score)``, best first,
        scored in full; empty lists are left out.
        """
        tokens = self.annotators.annotate(text)
        lists = []
        weights = []
        for ranked, weight in zip(*self._lists(tokens)):
            entries = list(ranked)
            if entries:
                lists.append(entries)
                weights.append(weight)
        return lists, weights, tokens

    def link(self, text, k=1):
        """Best entity for ``text`` (or top-k ranked candidates).

        The threshold algorithm (TA) merges the memoised lazy lists,
        reading each only as deep as it must.  A list with no exact
        head is scored in full before the merge and left out when that
        leaves it empty, as :meth:`ranked_lists` leaves it out.
        """
        tokens = self.annotators.annotate(text)
        lists = []
        weights = []
        for ranked, weight in zip(*self._lists(tokens)):
            if ranked.entry(0) is not None:
                lists.append(ranked)
                weights.append(weight)
        if not lists:
            return LinkResult(None, 0.0, [], tokens, self.table_name)
        merged = threshold_merge(lists, weights=weights, k=max(k, 1))
        ranked = merged.ranked
        if not ranked or ranked[0][1] < self.min_score:
            return LinkResult(None, 0.0, ranked, tokens, self.table_name)
        best_id, best_score = ranked[0]
        entity = self.table.get(best_id)
        if not self._confirmed(entity, tokens):
            return LinkResult(None, 0.0, ranked, tokens, self.table_name)
        return LinkResult(
            entity=entity,
            score=best_score,
            ranked=ranked,
            tokens=tokens,
            table_name=self.table_name,
        )

    def _confirmed(self, entity, tokens):
        """Check the high-precision confirmation rules, if any.

        A token's score against the winner is read from the memoised
        ``(attribute name, token value)`` list by random access when
        the winner is one of its candidates (TA has usually read it
        already); the registry scores it only when it is not.  A score
        depends on the two values alone, so both give the same float.
        """
        memo = self._ranked[1]
        for attribute_name, min_similarity in self.confirm.items():
            attribute = self.table.schema[attribute_name]
            best = 0.0
            for token in tokens:
                if token.attr_type is not attribute.type:
                    continue
                ranked = memo.get((attribute.name, token.value))
                score = (
                    None if ranked is None else ranked.get(entity.entity_id)
                )
                if score is None:
                    score = self.registry.similarity(
                        attribute.type,
                        token.value,
                        entity.values.get(attribute.name),
                    )
                best = max(best, score)
            if best < min_similarity:
                return False
        return True

    def top_identities(self, text, n=5):
        """Top-N candidate entities (for two-pass ASR, paper IV-A)."""
        result = self.link(text, k=n)
        return [
            self.table.get(entity_id) for entity_id, _ in result.ranked[:n]
        ]

