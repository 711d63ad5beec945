"""The bit-parallel OSA kernel and the delete generator, against references.

The oracle: :func:`~repro.util.textdist.damerau_levenshtein` (Hyyrö's
bit-vector recurrence) equals
:func:`~tests.cleaning.reference.reference_osa_distance` (the full
dynamic program) on every pair of strings over {a,b} up to length 6
and over {a,b,c} up to length 5, and on hypothesis pairs with
non-ASCII and repeated characters, strings longer than one 64-bit
word, and strings made from one another by edits.  The spelling
corrector's ``_deletes`` (each set of deleted positions cut once)
equals :func:`~tests.cleaning.reference.reference_deletes` at depths
0-3 on every string over {a,b,c} up to length 7 and on the seed-1
``telecom-stream`` words.

The work gate: the kernel runs a bounded number of lines per item of
its inputs, so a fall-back to the O(n*m) dynamic program fails
:class:`TestWork` by name.
"""

import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning.spelling import _deletes
from repro.util.textdist import damerau_levenshtein
from tests.cleaning.corpus import stream_words, telecom_corpus
from tests.cleaning.reference import reference_deletes, reference_osa_distance


def all_strings(alphabet, longest):
    """Every string over ``alphabet`` of length 0 to ``longest``."""
    return [
        "".join(letters)
        for length in range(longest + 1)
        for letters in product(alphabet, repeat=length)
    ]


class TestExhaustive:
    @pytest.mark.parametrize("alphabet,longest", [("ab", 6), ("abc", 5)])
    def test_every_pair(self, alphabet, longest):
        strings = all_strings(alphabet, longest)
        mismatches = [
            (a, b)
            for a in strings
            for b in strings
            if damerau_levenshtein(a, b) != reference_osa_distance(a, b)
        ]
        assert mismatches == []


class TestPinned:
    def test_transposition_counts_once(self):
        assert damerau_levenshtein("teh", "the") == 1

    def test_no_edit_after_a_transposition(self):
        """"ca" is 2 unrestricted Damerau edits from "abc" but 3 OSA."""
        assert damerau_levenshtein("ca", "abc") == 3
        assert damerau_levenshtein("abc", "ca") == 3

    def test_longer_than_one_word(self):
        a = "ab" * 40
        b = "ba" * 40
        assert damerau_levenshtein(a, b) == reference_osa_distance(a, b)
        assert damerau_levenshtein(a, a[1:]) == 1


#: Few letters, so repeats and transpositions are common; two non-ASCII.
LETTERS = "abcé中"

texts = st.text(alphabet=st.sampled_from(LETTERS), max_size=140)

#: Longer than one 64-bit machine word.
long_texts = st.text(
    alphabet=st.sampled_from(LETTERS), min_size=65, max_size=140
)


@st.composite
def edited_pairs(draw, base=texts):
    """A string and a copy of it with a few random edits applied."""
    a = draw(base)
    b = list(a)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["sub", "ins", "del", "swap"]))
        at = draw(st.integers(0, len(b)))
        letter = draw(st.sampled_from(LETTERS))
        if kind == "ins" or not b:
            b.insert(at, letter)
        elif at == len(b):
            continue
        elif kind == "sub":
            b[at] = letter
        elif kind == "del":
            del b[at]
        elif at + 1 < len(b):
            b[at], b[at + 1] = b[at + 1], b[at]
    return a, "".join(b)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(texts, texts)
    def test_random_pairs(self, a, b):
        assert damerau_levenshtein(a, b) == reference_osa_distance(a, b)

    @settings(max_examples=300, deadline=None)
    @given(edited_pairs())
    def test_edited_pairs(self, pair):
        a, b = pair
        assert damerau_levenshtein(a, b) == reference_osa_distance(a, b)

    @settings(max_examples=100, deadline=None)
    @given(edited_pairs(long_texts))
    def test_edited_long_pairs(self, pair):
        a, b = pair
        assert damerau_levenshtein(a, b) == reference_osa_distance(a, b)

    @settings(max_examples=300, deadline=None)
    @given(edited_pairs())
    def test_symmetric_and_bounded(self, pair):
        a, b = pair
        distance = damerau_levenshtein(a, b)
        assert distance == damerau_levenshtein(b, a)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))


def traced_lines(function, *args):
    """Python lines ``function(*args)`` runs, in its frame and below."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        function(*args)
    finally:
        sys.settrace(previous)
    return lines


class TestWork:
    @pytest.mark.parametrize("size", [10, 100])
    def test_lines_grow_with_the_inputs_not_their_product(self, size):
        """The DP runs a line per cell: 10,000 cells at size 100."""
        a = ("abcé" * size)[:size]
        b = ("bacé" * size)[:size]
        lines = traced_lines(damerau_levenshtein, a, b)
        assert 0 < lines <= 20 * (len(a) + len(b))


class TestDeletes:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_every_short_string(self, depth):
        for word in all_strings("abc", 7):
            assert _deletes(word, depth) == reference_deletes(
                word, depth
            ), word

    def test_stream_words(self):
        words = {word.lower() for word in stream_words(telecom_corpus(1))}
        assert len(words) > 400
        for word in sorted(words):
            for depth in range(4):
                assert _deletes(word, depth) == reference_deletes(
                    word, depth
                ), (word, depth)
