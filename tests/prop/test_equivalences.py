"""25 seeded differential cases + the generator's own guarantees.

Each seed draws a random corpus and configuration, then asserts the
equivalence oracles in :func:`repro.prop.check_equivalences`: every
backend == serial, crash/resume == uninterrupted, traced ==
untraced.  A failing seed prints a one-line ``bivoc prop --seed N``
reproduction command.
"""

import pytest

from repro.exec import BACKEND_KINDS
from repro.prop import check_equivalences, describe_case, generate_case
from repro.prop.harness import _check, make_documents

N_SEEDS = 25


class TestEquivalences:
    """The harness oracle over a fixed band of seeds."""

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_seed(self, seed):
        check_equivalences(seed)


class TestCaseGenerator:
    """Determinism and coverage of the seeded case generator."""

    def test_same_seed_same_case(self):
        assert generate_case(7) == generate_case(7)
        assert describe_case(7) == describe_case(7)

    def test_distinct_seeds_vary(self):
        cases = {generate_case(seed) for seed in range(N_SEEDS)}
        assert len(cases) > N_SEEDS // 2

    def test_band_covers_every_backend(self):
        drawn = {
            generate_case(seed).backend for seed in range(N_SEEDS)
        }
        assert drawn == set(BACKEND_KINDS)

    def test_seeds_keep_their_cases(self):
        # The cases each seed has always generated: a failing seed's
        # printed repro line must keep replaying the same run.
        pinned = [
            (33, ("call", "email"), 8, 2, "process", 13, 2, 2),
            (79, ("call", "email"), 21, 3, "process", 7, 3, 2),
            (61, ("sms",), 25, 4, "serial", 19, 2, 1),
            (71, ("call",), 9, 2, "process", 5, 2, 1),
            (38, ("call",), 28, 3, "process", 6, 1, 2),
            (72, ("sms",), 31, 4, "process", 8, 1, 2),
        ]
        drawn = [
            (
                case.n_docs, case.channels, case.batch_size,
                case.workers, case.backend, case.batch_docs,
                case.checkpoint_interval, case.crash_after,
            )
            for case in map(generate_case, range(len(pinned)))
        ]
        assert drawn == pinned

    def test_documents_are_deterministic(self):
        case = generate_case(3)
        first = [
            (d.doc_id, d.channel, d.text, d.artifacts)
            for d in make_documents(case)
        ]
        second = [
            (d.doc_id, d.channel, d.text, d.artifacts)
            for d in make_documents(case)
        ]
        assert first == second
        assert len(first) == case.n_docs

    def test_case_bounds(self):
        for seed in range(N_SEEDS):
            case = generate_case(seed)
            assert 24 <= case.n_docs <= 96
            assert 2 <= case.workers <= 4
            assert case.backend in BACKEND_KINDS
            assert case.channels == tuple(sorted(case.channels))


class TestFailureReporting:
    """A violated property must hand the user a repro command."""

    def test_check_mismatch_prints_repro_line(self):
        case = generate_case(5)
        with pytest.raises(AssertionError) as err:
            _check("unit-test-property", {"a": 1}, {"a": 2}, case)
        message = str(err.value)
        assert "property violated: unit-test-property" in message
        assert "bivoc prop --seed 5" in message
        assert "a" in message
