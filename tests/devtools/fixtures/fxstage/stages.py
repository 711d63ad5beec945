"""Stages that lie about their purity, one per checker rule.

* :class:`CachingStage` — inherits ``pure = True`` from ``MapStage``
  but memoises into ``self._cache`` inside ``apply``: shared mutable
  state across parallel workers (``effect-shared-state-race``).
* :class:`SamplingStage` — also declared pure, but its ``apply``
  reaches ``random.random()`` two call-graph hops away
  (``apply`` -> ``jitter`` -> ``_draw``): ``effect-pure-mismatch``.
* :class:`HonestStage` — provably clean yet declared ``pure = False``:
  the ``effect-missed-parallelism`` advisory.
* :func:`build_dedupe_stage` — a ``FunctionStage`` mis-declared
  ``pure=True`` whose lambda appends to a closure-captured list:
  the construction-site race finding.
* :class:`MemoStage` — declared pure, but writes a module-level dict
  by item: a race, although the write binds no name.
* :class:`TallyStage` — declared pure, but sets an attribute of a
  module-level object: a race too.
"""

from fxstage.engine import FunctionStage, MapStage
from fxstage.noise import jitter

#: Per-key texts shared by every stage instance.
_MEMO = {}


class _Tally:
    """The last key any stage saw."""

    last = None


_TALLY = _Tally()


class CachingStage(MapStage):
    """Memoises per-key results in an instance dict — a data race."""

    def __init__(self):
        self._cache = {}

    def apply(self, document):
        """Annotate ``document`` from the (shared) cache."""
        key = document.key
        if key not in self._cache:
            self._cache[key] = [document.text]
        document.tokens = self._cache[key]


class SamplingStage(MapStage):
    """Perturbs scores with an unseeded draw buried two calls deep."""

    def apply(self, document):
        """Jitter the document score."""
        document.score = jitter(document.score)


class HonestStage(MapStage):
    """Provably pure, but modestly declared impure."""

    pure = False

    def apply(self, document):
        """Tokenise the document text in place."""
        document.tokens = [t for t in document.text.split() if t]


def build_dedupe_stage():
    """Construct a ``FunctionStage`` that lies about its purity.

    The lambda appends every key to ``seen`` — an enclosing local
    captured by closure, so parallel workers would share it.
    """
    seen = []
    return FunctionStage(
        "dedupe",
        lambda document: seen.append(document.key),
        pure=True,
    )


class MemoStage(MapStage):
    """Memoises per-key texts in a module-level dict — a data race."""

    def apply(self, document):
        """Annotate ``document`` from the module-level memo."""
        _MEMO[document.key] = document.text.split()
        document.tokens = _MEMO[document.key]


class TallyStage(MapStage):
    """Records the last key on a module-level object — a data race."""

    def apply(self, document):
        """Note ``document``'s key on the shared tally."""
        _TALLY.last = document.key
