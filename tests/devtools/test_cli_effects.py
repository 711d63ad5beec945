"""The ``bivoc effects`` subcommand end to end."""

import json
from pathlib import Path

from repro.cli import main

FXSTAGE = Path(__file__).parent / "fixtures" / "fxstage"


class TestEffectsCommand:
    def test_fixture_package_fails_with_rule_ids_in_json(self, capsys):
        code = main(["effects", str(FXSTAGE), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        rules = {v["rule"] for v in payload["violations"]}
        assert rules == {
            "effect-shared-state-race",
            "effect-pure-mismatch",
            "effect-missed-parallelism",
        }
        assert payload["summary"]["total"] == 6

    def test_advisories_do_not_gate_by_default(self, capsys, make_package):
        # --fail-on defaults to error: a warning-only report exits 0,
        # but tightening to --fail-on warning gates on the advisory.
        package = make_package({
            "a.py": '''\
                """a."""


                class Stage:
                    pure = False

                    def process(self, batch):
                        raise NotImplementedError


                class Shy(Stage):
                    pure = False

                    def process(self, batch):
                        return batch
                ''',
        })
        assert main(["effects", str(package)]) == 0
        capsys.readouterr()
        assert main([
            "effects", str(package), "--fail-on", "warning",
        ]) == 1
        capsys.readouterr()

    def test_text_format_lists_locations(self, capsys):
        code = main(["effects", str(FXSTAGE)])
        assert code == 1
        out = capsys.readouterr().out
        assert "stages.py:" in out
        assert "effect-shared-state-race" in out

    def test_explain_lists_verdicts(self, capsys):
        code = main(["effects", str(FXSTAGE), "--explain"])
        assert code == 1
        out = capsys.readouterr().out
        assert "stage purity verdicts:" in out
        assert "race" in out
        assert "fxstage.stages.SamplingStage" in out

    def test_default_path_is_src_repro_and_clean(self, capsys):
        code = main(["effects"])
        assert code == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_non_package_path_is_usage_error(self, capsys):
        code = main(["effects", str(FXSTAGE / "stages.py")])
        assert code == 2
        assert "package" in capsys.readouterr().err

    def test_lint_effects_flag_runs_both_systems(self, capsys):
        code = main([
            "lint", str(FXSTAGE), "--effects", "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        rules = {v["rule"] for v in payload["violations"]}
        assert "effect-shared-state-race" in rules
