"""Ranked-list merge: Fagin's algorithm and the Threshold Algorithm.

"Performing fuzzy match on each extracted token in the document results
in a ranked list of possible entities.  Then, we can use the Fagin
Merge algorithm to efficiently merge multiple ranked lists to find the
highest-scoring entities for the entire document." (paper Section IV-B,
citing Fagin, PODS 1998)

Both algorithms take ``lists``: a sequence of ranked lists, each a
list of ``(key, score)`` sorted by descending score, plus per-list
weights; the aggregate is the weighted sum with missing keys scoring 0
(a token that matches no attribute of an entity contributes nothing).
Both return the exact top-k under that aggregate and report how many
sequential/random accesses were spent — the ablation bench compares
those counts against a full scan.

TA reads each list only through its two accesses, sorted
(:meth:`SortedList.entry`) and random (:meth:`SortedList.get`), so it
also takes :class:`SortedList` objects that compute their entries as they
are read (the linker's lazily scored lists); FA and the scan read
every list whole.

Each merge is a traced hot path: it runs once per document per linker
call, so under an active tracer every merge contributes a span tagged
with its access counts, and the ambient metrics registry accumulates
the totals the paper's efficiency argument is about (see
:mod:`repro.obs`; with the null collectors the annotations cost one
no-op call per merge).
"""

import heapq
from dataclasses import dataclass

from repro.obs import get_metrics, get_tracer


@dataclass
class MergeResult:
    """Top-k results plus the access accounting of the merge."""

    ranked: list  # [(key, aggregate_score)] best first
    sequential_accesses: int
    random_accesses: int

    @property
    def top(self):
        """The best (key, score) pair, or None when empty."""
        return self.ranked[0] if self.ranked else None


class SortedList:
    """Sorted and random access to one ranked list, as TA reads it.

    This class reads a materialised ``[(key, score)]`` list, best
    first; a subclass may score its entries only when they are read.
    Iterating yields every entry in order.
    """

    __slots__ = ("_entries", "_scores")

    def __init__(self, ranked):
        self._entries = list(ranked)
        self._scores = dict(self._entries)

    def entry(self, depth):
        """The ``(key, score)`` at ``depth``, or None past the end."""
        entries = self._entries
        return entries[depth] if depth < len(entries) else None

    def get(self, key, default=None):
        """``key``'s score, or ``default`` when ``key`` is not listed."""
        return self._scores.get(key, default)

    def __iter__(self):
        return iter(self._entries)


def _as_maps(lists):
    return [dict(ranked) for ranked in lists]


def _aggregate(key, maps, weights):
    return sum(
        weight * score_map.get(key, 0.0)
        for score_map, weight in zip(maps, weights)
    )


def _observed_merge(name, algorithm, lists, weights, k):
    """Run one merge under a span plus access-count metrics.

    The span and counters are pure observation: the result is whatever
    ``algorithm`` returns, untouched, so traced merges rank
    identically to untraced ones.
    """
    with get_tracer().span(
        f"fagin:{name}",
        category="linking",
        tags={"lists": len(lists), "k": k},
    ) as span:
        result = algorithm(lists, weights, k)
        span.tag("sequential", result.sequential_accesses)
        span.tag("random", result.random_accesses)
    metrics = get_metrics()
    metrics.counter(f"linking.fagin.{name}.merges").inc()
    metrics.counter(f"linking.fagin.{name}.sequential_accesses").inc(
        result.sequential_accesses
    )
    metrics.counter(f"linking.fagin.{name}.random_accesses").inc(
        result.random_accesses
    )
    return result


def fagin_merge(lists, weights=None, k=1):
    """Fagin's original algorithm (FA).

    Phase 1 reads the lists round-robin until ``k`` keys have been seen
    in *every* list; phase 2 random-accesses the scores of every key
    seen so far and aggregates.  Exact for monotone aggregates.
    """
    return _observed_merge(
        "fa", _fagin_merge, _materialised(lists), weights, k
    )


def _fagin_merge(lists, weights, k):
    """The FA body; ``lists`` already materialised by the wrapper."""
    if weights is None:
        weights = [1.0] * len(lists)
    if len(weights) != len(lists):
        raise ValueError("one weight per list required")
    if not lists:
        return MergeResult([], 0, 0)
    maps = _as_maps(lists)
    seen = set()
    seen_in = [set() for _ in lists]
    sequential = 0
    depth = 0
    max_len = max((len(ranked) for ranked in lists), default=0)
    while depth < max_len:
        for list_index, ranked in enumerate(lists):
            if depth < len(ranked):
                key, _ = ranked[depth]
                sequential += 1
                seen.add(key)
                seen_in[list_index].add(key)
        everywhere = (
            set.intersection(*seen_in) if seen_in else set()
        )
        if len(everywhere) >= k:
            break
        depth += 1
    random_accesses = 0
    scored = []
    for key in seen:
        random_accesses += len(lists)
        scored.append((key, _aggregate(key, maps, weights)))
    scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
    return MergeResult(scored[:k], sequential, random_accesses)


def threshold_merge(lists, weights=None, k=1):
    """The Threshold Algorithm (TA) variant.

    Reads lists round-robin; each newly seen key is immediately fully
    scored by random access.  Stops as soon as the k-th best aggregate
    reaches the threshold (the aggregate of the current list frontiers)
    — usually far fewer accesses than FA.
    """
    return _observed_merge("ta", _threshold_merge, list(lists), weights, k)


def _threshold_merge(lists, weights, k):
    """The TA body, reading every list through :class:`SortedList`."""
    if weights is None:
        weights = [1.0] * len(lists)
    if len(weights) != len(lists):
        raise ValueError("one weight per list required")
    lists = [
        ranked if isinstance(ranked, SortedList) else SortedList(ranked)
        for ranked in lists
    ]
    best = {}
    sequential = 0
    random_accesses = 0
    depth = 0
    while True:
        frontier = []
        read = False
        for ranked in lists:
            entry = ranked.entry(depth)
            if entry is None:
                frontier.append(0.0)
                continue
            key, score = entry
            read = True
            sequential += 1
            frontier.append(score)
            if key not in best:
                random_accesses += len(lists)
                best[key] = _aggregate(key, lists, weights)
        if not read:
            break
        threshold = sum(
            weight * score for weight, score in zip(weights, frontier)
        )
        if len(best) >= k:
            kth = heapq.nlargest(k, best.values())[-1]
            if kth >= threshold:
                break
        depth += 1
    ranked = sorted(best.items(), key=lambda pair: (-pair[1], str(pair[0])))
    return MergeResult(ranked[:k], sequential, random_accesses)


def _materialised(lists):
    """Every list read whole into a fresh ``list``."""
    return [list(ranked) for ranked in lists]


def full_scan_merge(lists, weights=None, k=1):
    """Naive baseline: aggregate every key in every list.

    Used by the ablation bench to show the access advantage of
    FA/TA.  Returns the same exact top-k.
    """
    return _observed_merge(
        "scan", _full_scan_merge, _materialised(lists), weights, k
    )


def _full_scan_merge(lists, weights, k):
    """The scan body; ``lists`` already materialised by the wrapper."""
    if weights is None:
        weights = [1.0] * len(lists)
    if len(weights) != len(lists):
        raise ValueError("one weight per list required")
    maps = _as_maps(lists)
    keys = set()
    sequential = 0
    for ranked in lists:
        for key, _ in ranked:
            sequential += 1
            keys.add(key)
    random_accesses = len(keys) * len(lists)
    scored = [(key, _aggregate(key, maps, weights)) for key in keys]
    scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
    return MergeResult(scored[:k], sequential, random_accesses)
