"""The purity checker against the adversarial fixture package.

``tests/devtools/fixtures/fxstage`` is analysed statically (never
imported): a vendored mini-engine plus one stage per finding the
checker must produce — a ``self._cache`` write in ``apply``, an
unseeded RNG draw two call-graph hops down, an under-claimed pure
stage, a ``FunctionStage(pure=True)`` whose lambda mutates a
closure-captured list, and item and attribute writes into module-level
objects.
"""

from pathlib import Path

import pytest

from repro.devtools.effects import analyse_package
from repro.devtools.effectsrunner import effects_paths
from repro.devtools.purity import (
    RULE_MISSED_PARALLELISM,
    RULE_PURE_MISMATCH,
    RULE_SHARED_STATE,
    check_purity,
    declared_purity,
    find_stage_roots,
    stage_classes,
)
from repro.devtools.violations import Severity

FXSTAGE = Path(__file__).parent / "fixtures" / "fxstage"
STAGES_PY = FXSTAGE / "stages.py"
NOISE_PY = FXSTAGE / "noise.py"


def _line_of(path, needle):
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), 1
    ):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found in {path}")


@pytest.fixture(scope="module")
def fixture_run():
    return effects_paths([FXSTAGE])


def _findings(fixture_run, rule_id):
    report, _ = fixture_run
    return [v for v in report.violations if v.rule_id == rule_id]


class TestStageDiscovery:
    def test_vendored_engine_found_structurally(self):
        analysis = analyse_package(FXSTAGE)
        # Both Stage and MapStage define their own ``pure`` + ``process``.
        assert find_stage_roots(analysis.graph) == [
            "fxstage.engine.MapStage",
            "fxstage.engine.Stage",
        ]
        assert "fxstage.stages.CachingStage" in stage_classes(
            analysis.graph
        )

    def test_declared_purity_reads_mro_and_init(self):
        analysis = analyse_package(FXSTAGE)
        graph = analysis.graph
        # Inherited from MapStage's class attribute.
        assert declared_purity(graph, "fxstage.stages.CachingStage") is True
        # Overridden in the class body.
        assert declared_purity(graph, "fxstage.stages.HonestStage") is False


class TestSharedStateRace:
    def test_self_cache_write_in_apply(self, fixture_run):
        races = _findings(fixture_run, RULE_SHARED_STATE)
        (finding,) = [v for v in races if "CachingStage" in v.message]
        assert finding.path == str(STAGES_PY)
        assert finding.line == _line_of(STAGES_PY, "class CachingStage")
        assert finding.severity == Severity.ERROR
        assert "mutates-self" in finding.message
        write_line = _line_of(STAGES_PY, "self._cache[key] =")
        assert f"stages.py:{write_line}" in finding.message

    def test_closure_capturing_function_stage(self, fixture_run):
        races = _findings(fixture_run, RULE_SHARED_STATE)
        (finding,) = [v for v in races if "FunctionStage" in v.message]
        assert finding.path == str(STAGES_PY)
        assert finding.line == _line_of(STAGES_PY, "return FunctionStage(")
        assert "mutates-global" in finding.message
        append_line = _line_of(STAGES_PY, "seen.append")
        assert f"stages.py:{append_line}" in finding.message

    @pytest.mark.parametrize("stage, write, what", [
        ("MemoStage", "_MEMO[document.key] =", "item of shared '_MEMO'"),
        ("TallyStage", "_TALLY.last =", "attribute of shared '_TALLY'"),
    ])
    def test_write_into_module_level_object(
        self, fixture_run, stage, write, what
    ):
        # ``x[k] = v`` and ``x.attr = v`` bind no name: ``x`` stays the
        # module-level object, so the write is shared state.
        races = _findings(fixture_run, RULE_SHARED_STATE)
        (finding,) = [v for v in races if f"'{stage}'" in v.message]
        assert finding.line == _line_of(STAGES_PY, f"class {stage}")
        assert "mutates-global" in finding.message
        assert what in finding.message
        assert f"stages.py:{_line_of(STAGES_PY, write)}" in finding.message


class TestPureMismatch:
    def test_rng_two_hops_down_is_reported(self, fixture_run):
        (finding,) = _findings(fixture_run, RULE_PURE_MISMATCH)
        assert "SamplingStage" in finding.message
        assert finding.path == str(STAGES_PY)
        assert finding.line == _line_of(STAGES_PY, "class SamplingStage")
        assert "unseeded-rng" in finding.message
        # The witness names both intermediate hops and the draw site.
        assert "via noise.jitter" in finding.message
        assert "via noise._draw" in finding.message
        draw_line = _line_of(NOISE_PY, "return random.random()")
        assert f"noise.py:{draw_line}" in finding.message


class TestMissedParallelism:
    def test_underclaimed_stage_gets_advisory(self, fixture_run):
        (finding,) = _findings(fixture_run, RULE_MISSED_PARALLELISM)
        assert "HonestStage" in finding.message
        assert finding.line == _line_of(STAGES_PY, "class HonestStage")
        assert finding.severity == Severity.WARNING

    def test_base_classes_are_exempt(self, fixture_run):
        # ``Stage``/``MapStage`` are provably clean and declared
        # impure/pure respectively, but templates with subclasses must
        # not be advised to flip their default.
        _, stage_reports = fixture_run
        verdicts = {r.name: r.verdict for r in stage_reports}
        assert verdicts["fxstage.engine.Stage"] == "consistent"
        assert verdicts["fxstage.engine.MapStage"] == "consistent"


class TestVerdictTable:
    def test_every_fixture_stage_has_the_expected_verdict(
        self, fixture_run
    ):
        _, stage_reports = fixture_run
        verdicts = {r.name: r.verdict for r in stage_reports}
        assert verdicts["fxstage.stages.CachingStage"] == "race"
        assert verdicts["fxstage.stages.SamplingStage"] == "mismatch"
        assert verdicts["fxstage.stages.HonestStage"] == "advisory"
        assert verdicts[
            "FunctionStage construction in build_dedupe_stage"
        ] == "race"
        assert verdicts["fxstage.stages.MemoStage"] == "race"
        assert verdicts["fxstage.stages.TallyStage"] == "race"

    def test_finding_count_and_exit_code(self, fixture_run):
        report, _ = fixture_run
        assert len(report.violations) == 6
        assert report.exit_code() == 1


class TestNoqaIntegration:
    def test_effect_finding_is_suppressable(self, make_package):
        package = make_package({
            "a.py": '''\
                """a."""


                class Stage:
                    pure = False

                    def process(self, batch):
                        raise NotImplementedError


                class Bad(Stage):  # bivoc: noqa[effect-shared-state-race]
                    pure = True

                    def process(self, batch):
                        self._seen = batch
                        return batch
                ''',
        })
        report, _ = effects_paths([package])
        assert report.violations == []
        assert report.suppressed == 1
        assert report.exit_code() == 0

    def test_namespace_wildcard_suppresses(self, make_package):
        package = make_package({
            "a.py": '''\
                """a."""


                class Stage:
                    pure = False

                    def process(self, batch):
                        raise NotImplementedError


                class Bad(Stage):  # bivoc: noqa[effect-*]
                    pure = True

                    def process(self, batch):
                        self._seen = batch
                        return batch
                ''',
        })
        report, _ = effects_paths([package])
        assert report.violations == []
        assert report.suppressed == 1

    def test_unverifiable_stays_silent(self, make_package):
        # UNKNOWN effects must never produce a finding — the checker
        # reports "unverifiable", not a false positive.
        package = make_package({
            "a.py": '''\
                """a."""

                import mystery


                class Stage:
                    pure = False

                    def process(self, batch):
                        raise NotImplementedError


                class Dynamic(Stage):
                    pure = True

                    def process(self, batch):
                        return mystery.transform(batch)
                ''',
        })
        report, stage_reports = effects_paths([package])
        assert report.violations == []
        verdicts = {r.name: r.verdict for r in stage_reports}
        assert verdicts["fx.a.Dynamic"] == "unverifiable"


class TestCheckPurityDirect:
    def test_sorted_violations_and_reports(self):
        analysis = analyse_package(FXSTAGE)
        violations, reports = check_purity(analysis)
        assert violations == sorted(violations)
        assert [
            (r.path, r.line) for r in reports
        ] == sorted((r.path, r.line) for r in reports)
