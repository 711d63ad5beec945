"""Interpolated n-gram language model (paper Section IV-A).

"Language model used in BIVoC system is an interpolated N-gram model.
Independent N-gram models constructed from general purpose US English
text and call center specific text are linearly combined with high
weight given to call-center specific model."

:class:`NGramLM` is a trigram model with Jelinek-Mercer interpolation
down to the uniform distribution, and :func:`build_interpolated_lm`
performs the corpus-level linear combination.
"""

import math
from collections import Counter, defaultdict

_BOS = "<s>"
_UNK = "<unk>"


class NGramLM:
    """Trigram LM with Jelinek-Mercer smoothing.

    Scores are natural-log probabilities.  Unknown words fall back to a
    uniform floor over the vocabulary so the decoder never sees -inf
    for in-lattice candidates.
    """

    def __init__(self, order=3, lambdas=(0.5, 0.3, 0.2)):
        if order < 1 or order > 3:
            raise ValueError("order must be 1, 2 or 3")
        if len(lambdas) != order or abs(sum(lambdas) - 1.0) > 1e-9:
            raise ValueError(
                "lambdas must have one weight per order and sum to 1"
            )
        self.order = order
        self.lambdas = tuple(lambdas)
        self._counts = [defaultdict(Counter) for _ in range(order)]
        self._context_totals = [defaultdict(int) for _ in range(order)]
        self.vocabulary = set()

    def fit(self, sentences):
        """Count n-grams over an iterable of token lists."""
        for sentence in sentences:
            tokens = [token.lower() for token in sentence]
            self.vocabulary.update(tokens)
            padded = [_BOS] * (self.order - 1) + tokens
            for i in range(self.order - 1, len(padded)):
                word = padded[i]
                for n in range(self.order):
                    context = tuple(padded[i - n : i])
                    self._counts[n][context][word] += 1
                    self._context_totals[n][context] += 1
        return self

    def _order_prob(self, n, context, word):
        total = self._context_totals[n].get(context, 0)
        if total == 0:
            return None
        return self._counts[n][context][word] / total

    def probability(self, word, context=()):
        """Interpolated P(word | context); context is prior tokens."""
        word = word.lower()
        context = tuple(token.lower() for token in context)
        vocab_size = max(len(self.vocabulary), 1)
        uniform = 1.0 / (vocab_size + 1)  # +1 reserves mass for <unk>
        prob = 0.0
        weight_used = 0.0
        for n in range(self.order):
            needed = context[len(context) - n :] if n else ()
            if n > len(context):
                continue
            order_prob = self._order_prob(n, needed, word)
            if order_prob is not None:
                prob += self.lambdas[n] * order_prob
                weight_used += self.lambdas[n]
        # Unused interpolation mass (unseen contexts) backs off to uniform.
        prob += (1.0 - weight_used) * uniform
        if prob <= 0.0:
            prob = uniform * self.lambdas[0]
        return prob

    def logprob(self, word, context=()):
        """Natural-log interpolated probability."""
        return math.log(self.probability(word, context))

    def sentence_logprob(self, tokens):
        """Log probability of a full token sequence."""
        tokens = [token.lower() for token in tokens]
        history = [_BOS] * (self.order - 1)
        total = 0.0
        for token in tokens:
            total += self.logprob(token, tuple(history))
            history = (history + [token])[-(self.order - 1) :]
        return total

    def perplexity(self, sentences):
        """Corpus perplexity over an iterable of token lists."""
        log_total = 0.0
        n_tokens = 0
        for sentence in sentences:
            log_total += self.sentence_logprob(sentence)
            n_tokens += len(sentence)
        if n_tokens == 0:
            raise ValueError("cannot compute perplexity of empty corpus")
        return math.exp(-log_total / n_tokens)


class InterpolatedLM:
    """Linear combination of component LMs at the probability level.

    The paper combines a general-English model and a call-center model
    "with high weight given to call-center specific model".
    """

    def __init__(self, components):
        """``components`` is a list of ``(lm, weight)``; weights sum to 1."""
        if not components:
            raise ValueError("need at least one component LM")
        total = sum(weight for _, weight in components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        self._components = list(components)

    @property
    def vocabulary(self):
        """Union vocabulary of the component models."""
        vocab = set()
        for lm, _ in self._components:
            vocab |= lm.vocabulary
        return vocab

    def probability(self, word, context=()):
        """Weighted mixture of the component probabilities."""
        return sum(
            weight * lm.probability(word, context)
            for lm, weight in self._components
        )

    def logprob(self, word, context=()):
        """Natural log of the mixture probability."""
        return math.log(self.probability(word, context))


def choose_domain_weight(general_lm, domain_lm, heldout_sentences,
                         candidates=(0.5, 0.6, 0.7, 0.8, 0.9)):
    """Pick the interpolation weight by held-out likelihood.

    The paper fixes "high weight given to call-center specific model";
    this selects that weight empirically: the candidate maximising the
    held-out log-likelihood of domain text wins.  Returns
    ``(best_weight, best_avg_logprob)``.
    """
    heldout = [
        sentence.split() if isinstance(sentence, str) else list(sentence)
        for sentence in heldout_sentences
    ]
    n_tokens = sum(len(sentence) for sentence in heldout)
    if n_tokens == 0:
        raise ValueError("held-out corpus must contain tokens")
    best_weight = None
    best_avg = None
    for weight in candidates:
        mixture = InterpolatedLM(
            [(domain_lm, weight), (general_lm, 1.0 - weight)]
        )
        total = 0.0
        for sentence in heldout:
            history = []
            for token in sentence:
                total += mixture.logprob(token, tuple(history[-2:]))
                history.append(token)
        average = total / n_tokens
        if best_avg is None or average > best_avg:
            best_avg = average
            best_weight = weight
    return best_weight, best_avg


def build_interpolated_lm(general_sentences, domain_sentences,
                          domain_weight=0.8, order=3):
    """Build the paper's two-corpus interpolated LM.

    ``*_sentences`` are iterables of token lists (or whitespace strings).
    """

    def tokenized(sentences):
        for sentence in sentences:
            if isinstance(sentence, str):
                yield sentence.split()
            else:
                yield list(sentence)

    general = NGramLM(order=order).fit(tokenized(general_sentences))
    domain = NGramLM(order=order).fit(tokenized(domain_sentences))
    return InterpolatedLM(
        [(domain, domain_weight), (general, 1.0 - domain_weight)]
    )
