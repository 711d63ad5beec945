"""Tests for Fagin/Threshold/scan ranked-list merges."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.linking.fagin import fagin_merge, full_scan_merge, threshold_merge
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
