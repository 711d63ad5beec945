"""The gate: the repository's own stage graph must verify pure.

Companion to ``test_lint_clean.py``: any change that makes a declared-
pure stage provably racy or non-deterministic — or leaves a stale
``effect-*`` suppression behind — fails the tier-1 suite, not just CI.
"""

from pathlib import Path

import pytest

from repro.devtools.effectsrunner import effects_paths
from repro.devtools.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_PACKAGE = REPO_ROOT / "src" / "repro"

#: The mining analytics, each one counting function and one result.
ANALYTICS = (
    "relative_frequency",
    "associate",
    "trend_series",
    "emerging_concepts",
    "concept_cube",
)


@pytest.fixture(scope="module")
def src_run():
    """One ``bivoc effects`` run over ``src/repro``: (report, stages)."""
    return effects_paths([SRC_PACKAGE])


class TestSourceTreeVerifiesPure:
    def test_zero_effect_findings_over_src_repro(self, src_run):
        report, _ = src_run
        rendered = "\n".join(v.render() for v in report.violations)
        assert report.violations == [], f"effect findings:\n{rendered}"
        assert report.exit_code() == 0

    def test_the_stage_graph_was_actually_checked(self, src_run):
        # Guard against the gate passing vacuously: the engine's stage
        # protocol and the pipeline's concrete stages must be found.
        _, stage_reports = src_run
        names = {r.name for r in stage_reports}
        assert any(".engine." in name for name in names)
        assert len(stage_reports) >= 10

    def test_no_stage_is_mis_verdicted(self, src_run):
        # Every stage — class-declared or declared per construction —
        # must verify ``consistent``: ``unverifiable`` here would mean
        # the checker lost precision over our own tree (a regression
        # even without a finding).
        _, stage_reports = src_run
        bad = {
            r.name: r.verdict
            for r in stage_reports
            if r.verdict != "consistent"
        }
        assert bad == {}, f"non-consistent stage verdicts: {bad}"

    def test_every_analytic_counting_pass_is_checked(self, src_run):
        # Each mining analytic's counting pass is an ``Analytic``
        # construction; the gate must have checked all five by name.
        _, stage_reports = src_run
        verdicts = {
            r.name: r.verdict
            for r in stage_reports if r.kind == "construction"
        }
        for analytic in ANALYTICS:
            name = f"Analytic construction in {analytic}"
            assert verdicts.get(name) == "consistent", name

    def test_lint_with_effects_stays_clean(self):
        report = lint_paths([SRC_PACKAGE], effects=True)
        rendered = "\n".join(v.render() for v in report.violations)
        assert report.violations == [], f"findings:\n{rendered}"
        assert report.exit_code() == 0
