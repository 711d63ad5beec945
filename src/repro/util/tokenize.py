"""Tokenisation primitives shared by the ASR, cleaning and annotation engines.

VoC text is noisy (paper Section III), so the tokenizer is deliberately
forgiving: it never raises on malformed input, keeps currency/number
shapes intact, and lowercases on request rather than by default
(call transcripts arrive fully upper-case, see Fig 1 of the paper).
"""

import re

_TOKEN_RE = re.compile(
    r"""
    [A-Za-z]+(?:'[A-Za-z]+)?   # words, with apostrophe contractions
    | \d+(?:[.,]\d+)*          # integers, decimals, 1,000 shapes
    | [^\sA-Za-z0-9]           # any single punctuation mark
    """,
    re.VERBOSE,
)

_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")

_NUMBER_RE = re.compile(r"^\d+(?:[.,]\d+)*$")


def tokenize(text, lower=False):  # bivoc: effects[pure]
    """Split ``text`` into word, number and punctuation tokens.

    Declared effect-free for ``bivoc effects``: it only reads ``text``
    and the module's compiled pattern and returns a fresh list (the
    effect checker cannot see through a compiled pattern's methods on
    its own).

    >>> tokenize("I'd pay $42.50, sir!")
    ["I'd", 'pay', '$', '42.50', ',', 'sir', '!']

    With ``lower``, an ASCII text is lowered once before matching:
    lowering maps A-Z to a-z, which every branch of the pattern treats
    alike, so the matches and their lowered texts are the same.
    Lowering can change the length of other text ("İ" lowers to two
    characters), so there each token is lowered after matching.
    """
    if lower and text.isascii():
        return _TOKEN_RE.findall(text.lower())
    tokens = _TOKEN_RE.findall(text)
    if lower:
        tokens = [token.lower() for token in tokens]
    return tokens


def words(text, lower=False):
    """Like :func:`tokenize` but drops punctuation tokens.

    >>> words("hello, world!")
    ['hello', 'world']
    """
    return [
        token
        for token in tokenize(text, lower=lower)
        if token[0].isalnum()
    ]


def sentences(text):
    """Split ``text`` into sentences on terminal punctuation.

    Noisy VoC text frequently omits punctuation entirely; in that case
    the whole text is returned as a single sentence.
    """
    parts = [part.strip() for part in _SENTENCE_RE.split(text)]
    return [part for part in parts if part]


def is_number_token(token):
    """True if ``token`` is a purely numeric token (``42``, ``2,013``).

    >>> is_number_token("2013")
    True
    >>> is_number_token("2nd")
    False
    """
    return bool(_NUMBER_RE.match(token))
