"""Single-type entity identification (paper Section IV-B, Eqn 2).

Given a document and one table, find the entity the document is about:

    score(d, e) = sum_i sum_j  w_j * sim(t_i, e.A_j)

with annotators restricting which attributes each token is compared
against, fuzzy indexes generating candidates, and a ranked-list merge
(Fagin/TA) producing the top-scoring entity without scanning the table.
"""

from dataclasses import dataclass

from repro.linking.annotators import build_default_annotators
from repro.linking.fagin import fagin_merge, full_scan_merge, threshold_merge
from repro.linking.similarity import default_registry
from repro.obs import get_metrics

#: Ranked lists a linker's memo holds before it starts over (one
#: seed-1 churn-email study fills 400).
RANKED_LIST_MEMO_LIMIT = 1 << 13

_MERGE_STRATEGIES = {
    "fagin": fagin_merge,
    "threshold": threshold_merge,
    "scan": full_scan_merge,
}


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


class EntityLinker:
    """Links documents to entities of a single table.

    A linker builds each ranked list once: the scored, sorted
    candidates of one ``(attribute name, token value)`` pair are kept
    in a memo that belongs to the linker, starts empty and starts over
    past :data:`RANKED_LIST_MEMO_LIMIT` lists.  A pickled linker
    (shipped to a worker process) carries no memo.  Threads that share
    a linker share its memo; at worst two of them score a list twice.
    """

    def __init__(self, database, table_name, annotators=None,
                 registry=None, weights=None, candidate_limit=25,
                 merge="threshold", min_score=0.0, confirm=None):
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
        if merge not in _MERGE_STRATEGIES:
            raise ValueError(
                f"merge must be one of {sorted(_MERGE_STRATEGIES)}"
            )
        self._merge = _MERGE_STRATEGIES[merge]
        # (table version, {(attribute name, token value): ranked tuple}),
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

    def ranked_lists(self, text):
        """Per-(token, attribute) ranked candidate lists and weights.

        Returns ``(lists, weights, tokens)`` ready for the merge.  Each
        list is a fresh ``list`` of ``(entity_id, score)``, best first.

        A list is a function of its attribute and token value alone, so
        it is scored once per ``(attribute name, token value)`` and
        reused from the linker's memo after that.  The memo assumes the
        registry's measures and ``candidate_limit`` stay fixed once the
        linker has linked.  It starts over when the table grows (rows
        are append-only, so its length versions it) or when
        :meth:`~repro.store.database.Database.build_indexes` runs again
        (:attr:`~repro.store.database.Database.generation`).  Counts
        the lists scored and reused, and the candidates scored, on
        ``linking.lists.scored``, ``.reused`` and ``.entries``.
        """
        tokens = self.annotators.annotate(text)
        version = (self.database.generation, len(self.table))
        memo_version, memo = self._ranked
        if memo_version != version or len(memo) > RANKED_LIST_MEMO_LIMIT:
            memo = {}
            self._ranked = (version, memo)
        lists = []
        weights = []
        scored = reused = entries = 0
        for token in tokens:
            for attribute in self.table.schema.attributes_of_type(
                token.attr_type
            ):
                key = (attribute.name, token.value)
                ranked = memo.get(key)
                if ranked is None:
                    candidates = self._candidates_for(attribute, token)
                    ranked = memo[key] = self._scored(
                        attribute, token, candidates
                    )
                    scored += 1
                    entries += len(candidates)
                else:
                    reused += 1
                if ranked:
                    lists.append(list(ranked))
                    weights.append(self.weight_of(attribute.name))
        metrics = get_metrics()
        metrics.counter("linking.lists.scored").inc(scored)
        metrics.counter("linking.lists.reused").inc(reused)
        metrics.counter("linking.lists.entries").inc(entries)
        return lists, weights, tokens

    def _scored(self, attribute, token, candidates):
        """The nonzero scores of ``candidates``, best first, as a tuple."""
        scored = []
        for entity in candidates:
            similarity = self.registry.similarity(
                attribute.type,
                token.value,
                entity.values.get(attribute.name),
            )
            if similarity > 0.0:
                scored.append((entity.entity_id, similarity))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return tuple(scored)

    def link(self, text, k=1):
        """Best entity for ``text`` (or top-k ranked candidates)."""
        lists, weights, tokens = self.ranked_lists(text)
        if not lists:
            return LinkResult(None, 0.0, [], tokens, self.table_name)
        merged = self._merge(lists, weights=weights, k=max(k, 1))
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
        ``(attribute name, token value)`` list when the winner is in
        it; the registry scores it only when it is absent (the list
        keeps just its candidates' nonzero scores).  A score depends
        on the two values alone, and rows are append-only, so any
        list holding the winner holds its score.
        """
        memo = self._ranked[1]
        for attribute_name, min_similarity in self.confirm.items():
            attribute = self.table.schema[attribute_name]
            best = 0.0
            for token in tokens:
                if token.attr_type is not attribute.type:
                    continue
                score = _score_of(
                    memo.get((attribute.name, token.value), ()),
                    entity.entity_id,
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


def _score_of(ranked, entity_id):
    """``entity_id``'s score in a ranked list, or None when absent."""
    for candidate_id, score in ranked:
        if candidate_id == entity_id:
            return score
    return None
