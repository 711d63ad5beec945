"""Seeded property-based differential testing (see DESIGN.md §15).

One generator (:func:`generate_case`), one oracle
(:func:`check_equivalences`): a seed fully determines a random
corpus/configuration combination, and the oracle asserts every
bit-identity invariant the repo guarantees on it — every execution
backend == serial, traced == untraced, and stream
crash/resume == uninterrupted.  ``tests/prop`` runs 25 seeds of the
oracle in tier-1; ``bivoc prop --seed N`` replays one seed for
debugging.
"""

from repro.prop.harness import (
    PropCase,
    check_equivalences,
    describe_case,
    generate_case,
)

__all__ = [
    "PropCase",
    "check_equivalences",
    "describe_case",
    "generate_case",
]
