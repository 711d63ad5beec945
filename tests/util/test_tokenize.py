"""Tests for the forgiving VoC tokenizer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.tokenize import is_number_token, sentences, tokenize, words


class TestTokenize:
    def test_basic_words(self):
        assert tokenize("book a car") == ["book", "a", "car"]

    def test_contractions_kept_whole(self):
        assert "I'd" in tokenize("I'd pay")

    def test_numbers_with_separators(self):
        assert tokenize("Rs 2,013 paid") == ["Rs", "2,013", "paid"]

    def test_punctuation_isolated(self):
        assert tokenize("hello, world!") == ["hello", ",", "world", "!"]

    def test_lowercasing(self):
        assert tokenize("PLEASE TELL ME", lower=True) == [
            "please",
            "tell",
            "me",
        ]

    def test_empty_text(self):
        assert tokenize("") == []

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=st.characters(max_codepoint=0x7F)) | st.text())
    def test_lowering_is_token_by_token(self, text):
        """Lowered tokens == each token lowered after matching.

        ASCII text is lowered before matching; the ASCII alphabet draws
        letters, digits, apostrophes and separators densely.
        """
        assert tokenize(text, lower=True) == [
            token.lower() for token in tokenize(text)
        ]

    def test_lowering_a_non_ascii_text(self):
        """"İ" lowers to two characters; its token is lowered whole."""
        assert tokenize("İSTANBUL", lower=True) == ["i̇", "stanbul"]

    def test_noisy_sms_text(self):
        tokens = tokenize("pl confrm rcpt of Rs. 500 @ Karanagar")
        assert "500" in tokens
        assert "@" in tokens

    def test_words_drops_punctuation(self):
        assert words("hello, world!") == ["hello", "world"]

    def test_words_keeps_numbers(self):
        assert words("pay 275 fees") == ["pay", "275", "fees"]


class TestSentences:
    def test_split_on_terminals(self):
        parts = sentences("I want a car. Can you help? Yes!")
        assert parts == ["I want a car.", "Can you help?", "Yes!"]

    def test_no_punctuation_single_sentence(self):
        assert sentences("no punctuation at all") == ["no punctuation at all"]

    def test_empty(self):
        assert sentences("") == []


class TestIsNumberToken:
    def test_plain_integer(self):
        assert is_number_token("2013")

    def test_thousands(self):
        assert is_number_token("2,013")

    def test_decimal(self):
        assert is_number_token("42.50")

    def test_ordinal_rejected(self):
        assert not is_number_token("2nd")

    def test_word_rejected(self):
        assert not is_number_token("two")
