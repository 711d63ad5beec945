"""Tests for exact and fuzzy indexes."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.store.index import (
    CompositeIndex,
    DigitsIndex,
    HashIndex,
    QGramIndex,
    SoundexIndex,
    TokenIndex,
    build_index_for_attribute,
)
from repro.store.schema import AttributeType


class TestHashIndex:
    def test_exact_lookup(self):
        index = HashIndex()
        index.add(1, "Reserved")
        index.add(2, "Unbooked")
        assert index.candidates("reserved") == [1]

    def test_multiple_matches(self):
        index = HashIndex()
        index.add(1, "suv")
        index.add(2, "SUV")
        assert set(index.candidates("suv")) == {1, 2}

    def test_no_match(self):
        assert HashIndex().candidates("anything") == []

    def test_len(self):
        index = HashIndex()
        index.add(1, "a")
        index.add(2, "a")
        assert len(index) == 2


class TestTokenIndex:
    def test_shared_tokens_ranked_first(self):
        index = TokenIndex()
        index.add(1, "full size sedan")
        index.add(2, "full size suv")
        index.add(3, "compact hatchback")
        ranked = index.candidates("full size suv")
        assert ranked[0] == 2
        assert 3 not in ranked

    def test_case_insensitive(self):
        index = TokenIndex()
        index.add(1, "New York")
        assert index.candidates("new york") == [1]


class TestQGramIndex:
    def test_typo_tolerance(self):
        index = QGramIndex(q=2)
        index.add(1, "smith")
        index.add(2, "walker")
        assert index.candidates("smyth")[0] == 1

    def test_limit_respected(self):
        index = QGramIndex(q=2)
        for i in range(100):
            index.add(i, "smith")
        assert len(index.candidates("smith", limit=10)) == 10

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramIndex(q=0)

    @given(st.text(alphabet="abcdef", min_size=2, max_size=8))
    def test_exact_value_always_candidate(self, value):
        index = QGramIndex(q=2)
        index.add(7, value)
        assert 7 in index.candidates(value)


class TestSoundexIndex:
    def test_phonetic_match(self):
        index = SoundexIndex()
        index.add(1, "John Smith")
        index.add(2, "Mary Walker")
        # ASR-style corruption: similar-sounding surname.
        assert 1 in index.candidates("Jon Smyth")
        assert 2 not in index.candidates("Jon Smyth")


class TestDigitsIndex:
    def test_partial_phone_number(self):
        index = DigitsIndex(q=3)
        index.add(1, "555-867-5309")
        index.add(2, "444-123-9999")
        # Only 7 of 10 digits survived recognition.
        assert index.candidates("8675309")[0] == 1

    def test_formatting_ignored(self):
        index = DigitsIndex(q=3)
        index.add(1, "(555) 867 5309")
        assert index.candidates("5558675309")[0] == 1


class TestCompositeIndex:
    def test_merges_both_views(self):
        composite = CompositeIndex([QGramIndex(q=2), SoundexIndex()])
        composite.add(1, "catherine")
        composite.add(2, "katharine")  # phonetic twin, spelling differs
        ranked = composite.candidates("katherine")
        assert set(ranked) >= {1, 2}

    def test_requires_subindexes(self):
        with pytest.raises(ValueError):
            CompositeIndex([])


class TestBuildIndexForAttribute:
    def test_name_gets_composite(self):
        assert isinstance(
            build_index_for_attribute(AttributeType.NAME), CompositeIndex
        )

    def test_phone_gets_digits(self):
        assert isinstance(
            build_index_for_attribute(AttributeType.PHONE), DigitsIndex
        )

    def test_category_gets_hash(self):
        assert isinstance(
            build_index_for_attribute(AttributeType.CATEGORY), HashIndex
        )

    def test_string_gets_token(self):
        assert isinstance(
            build_index_for_attribute(AttributeType.STRING), TokenIndex
        )

    def test_place_gets_qgram(self):
        assert isinstance(
            build_index_for_attribute(AttributeType.PLACE), QGramIndex
        )


NAMES = ["john smith", "jon smyth", "mary walker", "smith john", "joan smit"]


class TestCandidateOrder:
    @pytest.mark.parametrize(
        "make", [TokenIndex, QGramIndex, SoundexIndex, DigitsIndex]
    )
    def test_count_ties_fall_in_insertion_order(self, make):
        index = make()
        values = ["5551234 smith", "5551234 smith", "5551234 smith"]
        for entity_id in (30, 10, 20):
            index.add(entity_id, values.pop())
        assert index.candidates("5551234 smith") == [30, 10, 20]

    def test_repeated_query_tokens_count_twice(self):
        index = TokenIndex()
        index.add(1, "elm street")
        index.add(2, "oak oak")
        assert index.candidates("oak oak elm") == [2, 1]

    @pytest.mark.parametrize(
        "make", [TokenIndex, QGramIndex, SoundexIndex, DigitsIndex]
    )
    def test_pickled_index_ranks_the_same(self, make):
        index = make()
        for entity_id, name in enumerate(NAMES):
            index.add(entity_id, f"{name} 55512{entity_id}4")
        copy = pickle.loads(pickle.dumps(index))
        assert len(copy) == len(index)
        for query in NAMES + ["5551234", "smith"]:
            assert copy.candidates(query) == index.candidates(query)
        copy.add(9, "smith 5551294")
        assert 9 in copy.candidates("smith 5551294")
