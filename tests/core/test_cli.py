"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_defaults(self):
        args = build_parser().parse_args(["tables"])
        assert args.agents == 30
        assert not args.asr

    def test_churn_options(self):
        args = build_parser().parse_args(
            ["churn", "--scale", "0.01", "--channel", "sms"]
        )
        assert args.scale == pytest.approx(0.01)
        assert args.channel == "sms"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dance"])


class TestCommands:
    def test_tables_runs(self, capsys):
        rc = main(
            ["tables", "--agents", "8", "--days", "2", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Table IV" in out
        assert "Table II" in out

    def test_asr_runs(self, capsys):
        rc = main(["asr", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Names" in out

    def test_churn_runs(self, capsys):
        rc = main(
            ["churn", "--scale", "0.02", "--customers", "1200",
             "--seed", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "detection" in out

    def test_training_runs_small(self, capsys):
        rc = main(["training", "--days", "6", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "improvement" in out

    @pytest.mark.parametrize("argv", [
        ["tables", "--agents", "2", "--days", "1"],
        ["churn", "--scale", "0.002", "--customers", "50"],
    ], ids=["tables", "churn"])
    def test_batch_command_rejects_negative_workers(self, argv, capsys):
        # The batch commands run inline and take no --workers at all,
        # so any value is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--workers", "-1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["serve", "chaos"])
    def test_rejects_window(self, command, capsys):
        # Only ``stream`` reports a window, so only it takes --window.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--window", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --window" in (
            capsys.readouterr().err
        )


class TestTrace:
    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace", "asr"])
        assert args.trace_format == "chrome"
        assert args.out is None
        assert args.argv == ["asr"]

    def test_trace_wrapper_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main([
            "trace", "--out", str(out),
            "tables", "--agents", "6", "--days", "2", "--seed", "3",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Table III" in text  # the traced command still prints
        assert "trace:" in text and "spans" in text
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        names = {event["name"] for event in events}
        # The stage -> batch -> hot-path hierarchy is all present.
        assert "pipeline:run" in names
        assert "batch" in names
        assert "link:call-record" in names
        assert any(name.startswith("stage:") for name in names)

    def test_trace_flame_format(self, tmp_path, capsys):
        out = tmp_path / "trace.flame"
        rc = main([
            "trace", "--format", "flame", "--out", str(out),
            "asr", "--seed", "3",
        ])
        assert rc == 0
        capsys.readouterr()
        # The asr command runs no engine pipeline, so the flame view
        # reports an empty trace — the export path still works.
        assert "flame" in out.read_text()

    def test_trace_requires_a_command(self, capsys):
        assert main(["trace"]) == 2
        assert "no command" in capsys.readouterr().err

    def test_trace_rejects_nested_trace(self, capsys):
        assert main(["trace", "trace", "asr"]) == 2
        assert "not supported" in capsys.readouterr().err

    def test_trace_rejects_inner_trace_flag(self, tmp_path, capsys):
        inner_out = str(tmp_path / "inner.json")
        rc = main(["trace", "tables", "--trace", inner_out])
        assert rc == 2
        assert "drop --trace" in capsys.readouterr().err

    def test_trace_flag_on_engine_command(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        rc = main([
            "tables", "--agents", "6", "--days", "2", "--seed", "3",
            "--trace", str(out),
        ])
        assert rc == 0
        assert "trace:" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert document["traceEvents"]
