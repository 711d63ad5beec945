"""Tests for Fagin/Threshold/scan ranked-list merges.

TA over the linker's lazily scored lists
(:class:`~repro.linking.single.LazyRankedList`) is held ``==`` the
reference TA over the same lists scored in full: the same ranking and
the same sequential and random access counts.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.linking.fagin import fagin_merge, full_scan_merge, threshold_merge
from repro.linking.single import LazyRankedList
from repro.store.schema import AttributeType
from tests.linking import reference

LISTS = [
    [("a", 0.9), ("b", 0.8), ("c", 0.1)],
    [("b", 0.95), ("a", 0.5), ("d", 0.4)],
]

ALL_MERGES = [fagin_merge, threshold_merge, full_scan_merge]


def ranked_lists_strategy():
    keys = st.sampled_from(["a", "b", "c", "d", "e", "f"])
    entry = st.tuples(keys, st.floats(0.0, 1.0))

    def sort_unique(entries):
        best = {}
        for key, score in entries:
            best[key] = max(best.get(key, 0.0), score)
        return sorted(best.items(), key=lambda pair: -pair[1])

    one_list = st.lists(entry, min_size=0, max_size=6).map(sort_unique)
    return st.lists(one_list, min_size=1, max_size=4)


class TestMergesAgree:
    @pytest.mark.parametrize("merge", ALL_MERGES)
    def test_top1(self, merge):
        result = merge(LISTS, k=1)
        assert result.top[0] == "b"  # 0.8 + 0.95 = 1.75
        assert result.top[1] == pytest.approx(1.75)

    @pytest.mark.parametrize("merge", ALL_MERGES)
    def test_weighted(self, merge):
        result = merge(LISTS, weights=[10.0, 0.1], k=1)
        assert result.top[0] == "a"  # first list dominates

    @pytest.mark.parametrize("merge", ALL_MERGES)
    def test_top2_ordering(self, merge):
        result = merge(LISTS, k=2)
        keys = [key for key, _ in result.ranked]
        assert keys == ["b", "a"]

    @given(ranked_lists_strategy())
    def test_all_three_agree_on_top1(self, lists):
        results = [merge(lists, k=1).top for merge in ALL_MERGES]
        scores = [r[1] if r else None for r in results]
        if scores[0] is None:
            assert all(s is None for s in scores)
        else:
            for score in scores[1:]:
                assert score == pytest.approx(scores[0])

    @given(
        ranked_lists_strategy(),
        st.lists(st.sampled_from([0.5, 1.0, 4.0]), min_size=4, max_size=4),
        st.integers(1, 7),
    )
    def test_threshold_equals_the_sorting_reference(self, lists, weights, k):
        # The k-th best aggregate read by a heap, not a full sort: the
        # same ranking and the same access counts.
        weights = weights[:len(lists)]
        result = threshold_merge(lists, weights=weights, k=k)
        assert (
            result.ranked, result.sequential_accesses,
            result.random_accesses,
        ) == reference.threshold_merge(lists, weights, k)

    @given(ranked_lists_strategy())
    def test_threshold_never_more_sequential_than_scan(self, lists):
        ta = threshold_merge(lists, k=1)
        scan = full_scan_merge(lists, k=1)
        assert ta.sequential_accesses <= scan.sequential_accesses


class TestEdgeCases:
    @pytest.mark.parametrize("merge", ALL_MERGES)
    def test_empty_lists(self, merge):
        assert merge([], k=1).ranked == []

    @pytest.mark.parametrize("merge", [fagin_merge, threshold_merge])
    def test_all_empty_sublists(self, merge):
        assert merge([[], []], k=1).ranked == []

    def test_weight_count_validated(self):
        with pytest.raises(ValueError):
            fagin_merge(LISTS, weights=[1.0])
        with pytest.raises(ValueError):
            threshold_merge(LISTS, weights=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0, 3.0]])
    def test_scan_weight_count_validated(self, weights):
        # A short weight list used to drop the unweighted lists
        # silently: "b" came back at 0.5 instead of an error.
        lists = [[("a", 1.0), ("b", 0.5)], [("b", 1.0)]]
        with pytest.raises(ValueError, match="one weight per list"):
            full_scan_merge(lists, weights=weights, k=2)

    def test_missing_key_scores_zero(self):
        # "d" appears only in list 2; aggregate must not crash.
        result = full_scan_merge(LISTS, k=4)
        scores = dict(result.ranked)
        assert scores["d"] == pytest.approx(0.4)

    def test_single_list(self):
        result = threshold_merge([[("x", 0.5), ("y", 0.4)]], k=1)
        assert result.top == ("x", 0.5)


class TestAccessAccounting:
    def test_threshold_early_stop_saves_accesses(self):
        # A clear winner at the head of both lists lets TA stop early.
        lists = [
            [("w", 1.0)] + [(f"x{i}", 0.01) for i in range(50)],
            [("w", 1.0)] + [(f"y{i}", 0.01) for i in range(50)],
        ]
        ta = threshold_merge(lists, k=1)
        scan = full_scan_merge(lists, k=1)
        assert ta.sequential_accesses < scan.sequential_accesses / 5
        assert ta.top[0] == "w"


#: The attribute every lazy list below scores.
ATTRIBUTE = SimpleNamespace(name="value", type=AttributeType.NAME)


class HeldScores:
    """A registry scoring each candidate with the number it holds.

    With ``exact`` it has the exact-match hook, which certifies the
    candidates holding 1.0; without it, lists have no head.  It counts
    the scores it is asked for.
    """

    def __init__(self, exact):
        self.calls = 0
        if exact:
            self.exact_test = lambda attr_type, token_value: (
                lambda value: value == 1.0
            )

    def similarity(self, attr_type, token_value, attribute_value):
        self.calls += 1
        return 0.0 if attribute_value is None else attribute_value


def lazy_list(registry, scores):
    """A lazy list over candidates ``i`` holding ``scores[i]``."""
    candidates = [
        SimpleNamespace(entity_id=key, values={"value": score})
        for key, score in scores
    ]
    return LazyRankedList(registry, ATTRIBUTE, "token", candidates)


def scored_in_full(scores):
    """The eager list: nonzero scores, ``(-score, id)`` order."""
    return sorted(
        ((key, score) for key, score in scores if score > 0.0),
        key=lambda pair: (-pair[1], pair[0]),
    )


def candidate_scores():
    """One list's candidates: distinct ids, many ties at 1.0 and 0.0."""
    score = st.one_of(
        st.sampled_from([1.0, 1.0, 0.75, 0.5, 0.0]), st.floats(0.0, 1.0)
    )
    return st.lists(
        st.tuples(st.integers(0, 11), score),
        max_size=8, unique_by=lambda pair: pair[0],
    )


class TestLazyThresholdMerge:
    @given(
        st.lists(
            st.tuples(candidate_scores(), st.booleans()),
            min_size=1, max_size=4,
        ),
        st.lists(st.sampled_from([0.5, 1.0, 4.0]), min_size=4, max_size=4),
        st.integers(1, 3),
    )
    def test_equals_the_reference_over_full_lists(self, drawn, weights, k):
        # Lists with and without an exact head, empty ones and ones
        # that run out before the others.
        weights = weights[:len(drawn)]
        registries = [HeldScores(exact) for _, exact in drawn]
        lazy = [
            lazy_list(registry, scores)
            for registry, (scores, _) in zip(registries, drawn)
        ]
        full = [scored_in_full(scores) for scores, _ in drawn]
        result = threshold_merge(lazy, weights=weights, k=k)
        assert (
            result.ranked, result.sequential_accesses,
            result.random_accesses,
        ) == reference.threshold_merge(full, weights, k)
        for registry, (scores, exact) in zip(registries, drawn):
            assert registry.calls <= len(scores)
        assert [list(ranked) for ranked in lazy] == full

    @given(candidate_scores(), st.booleans(), st.integers(-1, 12))
    def test_random_access_scores_candidates_only(self, scores, exact, key):
        registry = HeldScores(exact)
        ranked = lazy_list(registry, scores)
        held = dict(scores)
        assert ranked.get(key) == held.get(key)
        assert ranked.get(key, 0.0) == held.get(key, 0.0)
        assert list(ranked) == scored_in_full(scores)
        assert ranked.get(key, 0.0) == held.get(key, 0.0)
        assert registry.calls == len(scores) - (
            sum(score == 1.0 for _, score in scores) if exact else 0
        )

    def test_a_merge_inside_the_heads_scores_nothing(self):
        registry = HeldScores(exact=True)
        lists = [
            lazy_list(registry, [(3, 0.5), (2, 1.0), (1, 1.0)]),
            lazy_list(registry, [(2, 1.0), (4, 0.9), (5, 0.1)]),
        ]
        result = threshold_merge(lists, k=1)
        assert result.ranked == [(2, 2.0)]
        assert registry.calls == 0  # key 1 is no candidate of list 2
        assert [ranked.certified for ranked in lists] == [2, 1]

    def test_fagin_and_scan_read_lazy_lists_whole(self):
        registry = HeldScores(exact=True)
        scores = [(3, 0.5), (2, 1.0), (1, 1.0), (4, 0.0)]
        for merge in (fagin_merge, full_scan_merge):
            lazy = merge([lazy_list(registry, scores)], k=3)
            assert lazy == merge([scored_in_full(scores)], k=3)
