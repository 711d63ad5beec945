"""The simulated acoustic channel.

For each spoken word the channel emits a *confusion-network slot*: the
word's phonetic confusables with noisy acoustic log-scores.  Structural
errors are sampled too — deletions (the slot disappears: crosstalk,
breath noise, clipped audio) and insertions (a filler slot appears:
hold music, false starts).  The per-class score noise ``sigma`` is the
knob that moves WER; :func:`calibrate_channel` searches it against a
reference corpus so Table I's operating point (45/65/45) is reproduced
by measurement rather than by fiat.
"""

from dataclasses import dataclass, replace

from repro.asr.vocabulary import (
    GENERAL_CLASS,
    NAME_CLASS,
    NUMBER_CLASS,
)
from repro.util.rng import derive_rng

_FILLER_WORDS = ["the", "a", "to", "you", "i", "is", "and", "it", "that"]


@dataclass(frozen=True)
class ChannelConfig:
    """Acoustic-channel noise parameters.

    ``sigma_*`` are the standard deviations of the Gaussian score noise
    per token class; ``acoustic_scale`` is how strongly the score
    prefers the truly spoken word; ``deletion_rate``/``insertion_rate``
    are per-slot structural error probabilities.
    """

    # Default sigmas are the output of ``calibrate_channel`` on the
    # default corpora, so an out-of-the-box channel already sits near
    # the paper's Table I operating point (WER 45/65/45).
    acoustic_scale: float = 3.0
    sigma_general: float = 2.8
    sigma_name: float = 1.6
    sigma_number: float = 1.9
    deletion_rate: float = 0.07
    insertion_rate: float = 0.05
    # Names compete against a far larger effective vocabulary than other
    # words ("the number of conflicting words in the vocabulary is very
    # high ... when it comes to recognizing names", paper IV-A): extra
    # random name candidates are injected into every name slot.
    extra_name_candidates: int = 6
    name_deletion_multiplier: float = 1.5
    seed: int = 0

    def sigma_for(self, token_class):
        """The score-noise sigma of one token class."""
        if token_class == NAME_CLASS:
            return self.sigma_name
        if token_class == NUMBER_CLASS:
            return self.sigma_number
        return self.sigma_general

    def with_sigmas(self, general=None, name=None, number=None):
        """Copy of the config with some sigmas replaced."""
        return replace(
            self,
            sigma_general=(
                self.sigma_general if general is None else general
            ),
            sigma_name=self.sigma_name if name is None else name,
            sigma_number=self.sigma_number if number is None else number,
        )


@dataclass
class Slot:
    """One confusion-network position.

    ``candidates`` is a list of ``(word, acoustic_logscore)``;
    ``reference`` is the truly spoken word (``None`` for insertion
    slots); ``token_class`` tags the reference's class for WER
    attribution and for two-pass constraints.
    """

    candidates: list
    reference: object
    token_class: str
    kind: str = "ref"  # "ref" | "ins"

    def words(self):
        """The candidate words of this slot, best-scored first."""
        return [word for word, _ in self.candidates]


@dataclass
class ConfusionNetwork:
    """The channel's output for one utterance: an ordered slot list,
    plus the reference tokens (including any deleted ones) for WER."""

    slots: list
    reference_tokens: list
    reference_classes: list


class AcousticChannel:
    """Simulated acoustics: words in, confusion network out."""

    def __init__(self, vocabulary, config=None):
        self.vocabulary = vocabulary
        self.config = config or ChannelConfig()
        self._rng = derive_rng(self.config.seed, "acoustic-channel")

    def reset(self, seed=None):
        """Re-seed the channel's noise stream (for reproducible runs)."""
        self._rng = derive_rng(
            self.config.seed if seed is None else seed, "acoustic-channel"
        )

    def _slot_for(self, word, token_class):
        rng = self._rng
        config = self.config
        sigma = config.sigma_for(token_class)
        candidates = [(word, float(rng.normal(0.0, sigma)))]
        seen = {word}
        for other, similarity in self.vocabulary.confusions(word):
            penalty = config.acoustic_scale * (1.0 - similarity)
            candidates.append(
                (other, float(rng.normal(-penalty, sigma)))
            )
            seen.add(other)
        if (
            token_class == NAME_CLASS
            and config.extra_name_candidates > 0
            and self.vocabulary.name_words
        ):
            pool = self.vocabulary.name_words
            penalty = config.acoustic_scale * 0.45
            for _ in range(config.extra_name_candidates):
                other = pool[int(rng.integers(0, len(pool)))]
                if other in seen:
                    continue
                seen.add(other)
                candidates.append(
                    (other, float(rng.normal(-penalty, sigma)))
                )
        candidates.sort(key=lambda pair: pair[1], reverse=True)
        return Slot(
            candidates=candidates,
            reference=word,
            token_class=token_class,
        )

    def _insertion_slot(self):
        rng = self._rng
        word = _FILLER_WORDS[int(rng.integers(0, len(_FILLER_WORDS)))]
        return Slot(
            candidates=[(word, float(rng.normal(0.0, 0.5)))],
            reference=None,
            token_class=GENERAL_CLASS,
            kind="ins",
        )

    def encode(self, tokens, classes=None):
        """Produce the confusion network for one utterance.

        ``classes`` defaults to the vocabulary classifier's tags.
        """
        tokens = [token.lower() for token in tokens]
        if classes is None:
            classes = self.vocabulary.classifier.classify_all(tokens)
        if len(classes) != len(tokens):
            raise ValueError("classes must align with tokens")
        rng = self._rng
        slots = []
        for token, token_class in zip(tokens, classes):
            deletion_rate = self.config.deletion_rate
            if token_class == NAME_CLASS:
                deletion_rate *= self.config.name_deletion_multiplier
            if rng.random() < deletion_rate:
                continue  # the word never reaches the decoder
            slots.append(self._slot_for(token, token_class))
            if rng.random() < self.config.insertion_rate:
                slots.append(self._insertion_slot())
        return ConfusionNetwork(
            slots=slots,
            reference_tokens=tokens,
            reference_classes=list(classes),
        )
