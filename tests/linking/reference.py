"""The eager linker and its similarity kernels, kept as the reference.

These are the measures the linker scored with before its kernels were
made cheap: a two-row DP edit distance, a quadratic DP longest common
substring computed for every pair, a Jaro that scans each match window
cell by cell, and a name measure that calls Jaro-Winkler for every
word pair.  :func:`reference_registry` plugs them into a
:class:`SimilarityRegistry` in place of the defaults, so a linker built
with it scores exactly as before.  :class:`EagerEntityLinker` scores
every ranked list in full and afresh, for every token of every
document, and merges the materialised lists with the TA body below,
as the linker did before it kept a memo or scored lazily.
:class:`ReferenceCallRecordLinker` scores every blocked candidate of a
call against every identity token, as the call-record linker did
before it certified exact matches.  Only tests use them.
"""

from repro.core.pipeline import CallRecordLinker
from repro.linking.similarity import default_registry
from repro.linking.single import EntityLinker, LinkResult
from repro.store.schema import AttributeType


def levenshtein(a, b):
    """Edit distance by the two-row DP over the whole matrix."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + cost,
                )
            )
        previous = current
    return previous[-1]


def longest_common_substring(a, b):
    """Length of the longest common substring, by the quadratic DP."""
    best = 0
    previous = [0] * (len(b) + 1)
    for ca in a:
        current = [0]
        for j, cb in enumerate(b, start=1):
            length = previous[j - 1] + 1 if ca == cb else 0
            current.append(length)
            if length > best:
                best = length
        previous = current
    return best


def jaro(a, b):
    """Jaro similarity, scanning each match window cell by cell."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    a_matched = [False] * la
    b_matched = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not b_matched[j] and b[j] == ca:
                a_matched[i] = True
                b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if a_matched[i]:
            while not b_matched[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / la + matches / lb + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a, b, prefix_scale=0.1, max_prefix=4):
    """Jaro-Winkler over the reference :func:`jaro`."""
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def name_similarity(token_value, attribute_value):
    """Best-pairing Jaro-Winkler, one call per word pair, no memo."""
    token_words = str(token_value).lower().split()
    attr_words = str(attribute_value).lower().split()
    if not token_words or not attr_words:
        return 0.0
    total = 0.0
    for token_word in token_words:
        total += max(
            jaro_winkler(token_word, attr_word) for attr_word in attr_words
        )
    return total / len(token_words)


def digits_similarity(token_value, attribute_value):
    """Edit and run similarity, both computed in full for every part."""
    token_digits = "".join(c for c in str(token_value) if c.isdigit())
    if not token_digits:
        return 0.0
    best = 0.0
    for part in str(attribute_value).split():
        attr_digits = "".join(c for c in part if c.isdigit())
        if not attr_digits:
            continue
        if token_digits == attr_digits:
            return 1.0
        longest = max(len(attr_digits), len(token_digits))
        edit_sim = 1.0 - levenshtein(token_digits, attr_digits) / longest
        run_sim = (
            longest_common_substring(token_digits, attr_digits) / longest
        )
        best = max(best, edit_sim, run_sim)
    return best


#: Attribute type -> reference measure, where it differs from the default.
REFERENCE_MEASURES = {
    AttributeType.NAME: name_similarity,
    AttributeType.PHONE: digits_similarity,
    AttributeType.CARD: digits_similarity,
}


def reference_registry():
    """The default registry with the reference name and digit measures."""
    registry = default_registry()
    for attr_type, measure in REFERENCE_MEASURES.items():
        registry.register(attr_type, measure)
    return registry


class EagerEntityLinker(EntityLinker):
    """An :class:`EntityLinker` that scores every ranked list afresh.

    It links as the linker did before its lists were memoised or
    scored lazily: every candidate of every list is scored, the
    materialised lists go through :func:`threshold_merge` (TA, whatever
    ``merge`` says), and each confirmation score is asked of the
    registry.
    """

    def ranked_lists(self, text):
        """Per-(token, attribute) ranked candidate lists and weights."""
        tokens = self.annotators.annotate(text)
        lists = []
        weights = []
        for token in tokens:
            for attribute in self.table.schema.attributes_of_type(
                token.attr_type
            ):
                scored = []
                for entity in self._candidates_for(attribute, token):
                    similarity = self.registry.similarity(
                        attribute.type,
                        token.value,
                        entity.values.get(attribute.name),
                    )
                    if similarity > 0.0:
                        scored.append((entity.entity_id, similarity))
                scored.sort(key=lambda pair: (-pair[1], pair[0]))
                if scored:
                    lists.append(scored)
                    weights.append(self.weight_of(attribute.name))
        return lists, weights, tokens

    def link(self, text, k=1):
        """Best entity for ``text`` (or top-k ranked candidates)."""
        lists, weights, tokens = self.ranked_lists(text)
        if not lists:
            return LinkResult(None, 0.0, [], tokens, self.table_name)
        ranked, _, _ = threshold_merge(lists, weights, max(k, 1))
        if not ranked or ranked[0][1] < self.min_score:
            return LinkResult(None, 0.0, ranked, tokens, self.table_name)
        best_id, best_score = ranked[0]
        entity = self.table.get(best_id)
        if not self._confirmed(entity, tokens):
            return LinkResult(None, 0.0, ranked, tokens, self.table_name)
        return LinkResult(entity, best_score, ranked, tokens, self.table_name)

    def _confirmed(self, entity, tokens):
        """The confirmation rules, every score asked of the registry."""
        for attribute_name, min_similarity in self.confirm.items():
            attribute = self.table.schema[attribute_name]
            best = 0.0
            for token in tokens:
                if token.attr_type is attribute.type:
                    best = max(best, self.registry.similarity(
                        attribute.type,
                        token.value,
                        entity.values.get(attribute.name),
                    ))
            if best < min_similarity:
                return False
        return True


class ReferenceCallRecordLinker(CallRecordLinker):
    """A :class:`CallRecordLinker` that scores every blocked candidate.

    Every candidate's customer is scored against every identity token
    and attribute, looked up afresh per candidate, and the first strict
    maximum wins.
    """

    def _link(self, customer_text, agent_name, day, span):
        candidates = self._by_agent_day.get((agent_name, day), ())
        span.tag("candidates", len(candidates))
        if not candidates:
            return None
        tokens = self._annotators.annotate(customer_text)
        span.tag("tokens", len(tokens))
        if not tokens:
            return None
        best_record = None
        best_score = 0.0
        for record in candidates:
            customer = self._customers.get(record["customer_ref"])
            score = 0.0
            for token in tokens:
                for attribute in self._customers.schema.attributes_of_type(
                    token.attr_type
                ):
                    score += self._registry.similarity(
                        attribute.type,
                        token.value,
                        customer.values.get(attribute.name),
                    )
            if score > best_score:
                best_score = score
                best_record = record
        span.tag("best_score", best_score)
        if best_score < self._min_score:
            return None
        return best_record


def threshold_merge(lists, weights, k):
    """The TA body re-sorting every aggregate to read the k-th best.

    Returns ``(ranked, sequential_accesses, random_accesses)``.
    """
    maps = [dict(ranked) for ranked in lists]
    best = {}
    sequential = 0
    random_accesses = 0
    for depth in range(max((len(ranked) for ranked in lists), default=0)):
        frontier = []
        for ranked in lists:
            if depth >= len(ranked):
                frontier.append(0.0)
                continue
            key, score = ranked[depth]
            sequential += 1
            frontier.append(score)
            if key not in best:
                random_accesses += len(lists)
                best[key] = sum(
                    weight * score_map.get(key, 0.0)
                    for score_map, weight in zip(maps, weights)
                )
        threshold = sum(
            weight * score for weight, score in zip(weights, frontier)
        )
        if len(best) >= k:
            kth = sorted(best.values(), reverse=True)[k - 1]
            if kth >= threshold:
                break
    ranked = sorted(best.items(), key=lambda pair: (-pair[1], str(pair[0])))
    return ranked[:k], sequential, random_accesses
