"""SMS lingo normalisation.

"Most of the efforts involved in cleaning sms comes from building
domain specific dictionaries which are built to capture common
variations of product names and services.  We also build dictionaries
for common lingo used in text messaging." (paper Section IV-A.2)

The default lingo table inverts the generator's
:data:`repro.synth.lexicon.SMS_LINGO` plus a hand-written set of common
variations, and is extensible with domain-specific entries.
"""

from repro.synth.lexicon import SMS_LINGO

# Extra real-world variations beyond the generator's table; several
# lingo forms map from multiple sources, the table direction here is
# lingo -> standard form.
_EXTRA_LINGO = {
    "plz": "please",
    "pl": "please",
    "cust": "customer",
    "custmer": "customer",
    "msgs": "messages",
    "recd": "received",
    "rcvd": "received",
    "amt": "amount",
    "asap": "as soon as possible",
    "btw": "by the way",
    "tmrw": "tomorrow",
    "wk": "week",
    "yr": "your",
    "hv": "have",
    "gd": "good",
    "tx": "thanks",
    "thnx": "thanks",
    "inf": "informed",
    "tht": "that",
    "disconn": "disconnected",
}


# Lingo forms that are themselves ordinary English words must not be
# blindly reversed ("no" is usually the negation, not "number").
_AMBIGUOUS_LINGO = {"no"}


def default_lingo_table():
    """lingo -> standard mapping covering the generator's table."""
    table = {
        lingo: word
        for word, lingo in SMS_LINGO.items()
        if lingo not in _AMBIGUOUS_LINGO
    }
    table.update(_EXTRA_LINGO)
    return table


class SmsNormalizer:
    """Expands SMS shorthand back to standard forms, token by token.

    Ambiguous digit-shorthand ("2", "4") is only expanded when the
    token is sandwiched between alphabetic words — "paid 2 dollars"
    keeps its number, "go 2 the shop" becomes "go to the shop".
    """

    _DIGIT_SHORTHAND = {"2": "to", "4": "for"}

    # "2"/"4" expand only before function words ("go 2 the shop",
    # "thx 4 ur help"); before content words they stay numeric
    # ("paid 2 dollars").
    _SHORTHAND_FOLLOWERS = {
        "the", "a", "an", "my", "your", "ur", "u", "me", "you", "this",
        "that", "it", "them", "us", "her", "him", "know", "go", "see",
        "get", "be", "do", "have", "hv", "all", "everyone", "day",
        "morrow", "moro",
    }

    def __init__(self, lingo_table=None, domain_terms=None):
        self._table = dict(
            default_lingo_table() if lingo_table is None else lingo_table
        )
        if domain_terms:
            self._table.update(domain_terms)
        # Digit shorthand is context-dependent; never expand it blindly.
        for digit in self._DIGIT_SHORTHAND:
            self._table.pop(digit, None)

    def add_domain_term(self, variant, standard):
        """Register a domain-specific variation ("10000sms" -> ...)."""
        self._table[variant.lower()] = standard
        return self

    def normalize(self, text):
        """Normalise a whole message, preserving word order."""
        tokens = text.split()
        normalized = []
        for index, token in enumerate(tokens):
            lowered = token.lower()
            if lowered in self._DIGIT_SHORTHAND:
                after = tokens[index + 1] if index + 1 < len(tokens) else ""
                if after.lower() in self._SHORTHAND_FOLLOWERS:
                    normalized.append(self._DIGIT_SHORTHAND[lowered])
                    continue
                normalized.append(token)
                continue
            normalized.append(self._table.get(lowered, token))
        return " ".join(normalized)
