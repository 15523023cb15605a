"""Tests for the command-line interface."""

from __future__ import annotations

import os

import pytest

from repro import cli, settings
from repro.cli import build_parser, main
from repro.runtime.simulator import Simulator


class TestParser:
    def test_requires_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self) -> None:
        args = build_parser().parse_args(["demo"])
        assert args.topology == "random-sparse"
        assert args.size == 8
        assert args.cycles == 1

    def test_unknown_topology_rejected(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--topology", "moebius"])


class TestCommands:
    def test_topologies(self, capsys) -> None:
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        assert "line" in out and "hypercube" in out

    def test_demo(self, capsys) -> None:
        assert main(["demo", "--topology", "line", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "round | phases" in out
        assert "PIF1" in out

    def test_demo_async(self, capsys) -> None:
        assert main(
            ["demo", "--topology", "star", "--size", "5", "--async-daemon"]
        ) == 0
        assert "cycles" in capsys.readouterr().out

    def test_stabilize(self, capsys) -> None:
        code = main(
            ["stabilize", "--topology", "ring", "--size", "6", "--mode", "fake_wave"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Theorem 1" in out
        assert "within all bounds: True" in out

    def test_bounds(self, capsys) -> None:
        assert main(["bounds", "--topology", "line", "--size", "5"]) == 0
        out = capsys.readouterr().out
        assert "5h+5" in out
        assert "cycle, measured" in out

    def test_verify_small(self, capsys) -> None:
        assert main(["verify", "--network", "line-3", "--cap", "60"]) == 0
        out = capsys.readouterr().out
        assert "snap safety" in out
        assert "closure" in out


class TestEngineFlag:
    @pytest.mark.parametrize("preset", [None, "columnar"])
    def test_engine_applies_for_the_command_only(
        self, preset, capsys, monkeypatch
    ) -> None:
        if preset is None:
            monkeypatch.delenv("REPRO_ENGINE", raising=False)
        else:
            monkeypatch.setenv("REPRO_ENGINE", preset)
        engines = []

        class Spy(Simulator):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                engines.append(self.engine)

        monkeypatch.setattr(cli, "Simulator", Spy)
        before = dict(os.environ)
        assert main(["demo", "--engine", "full", "--size", "4"]) == 0
        capsys.readouterr()
        assert engines == ["full"]
        assert dict(os.environ) == before


class TestConfig:
    def test_lists_every_knob_with_value_and_source(
        self, capsys, monkeypatch
    ) -> None:
        for row in settings.SETTINGS:
            monkeypatch.delenv(row.env, raising=False)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert main(["config"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for row in settings.SETTINGS:
            assert any(line.startswith(f"{row.env} ") for line in lines)
        jobs = next(line for line in lines if line.startswith("REPRO_JOBS "))
        assert [cell.strip() for cell in jobs.split("|")][1:3] == ["3", "env"]
        engine = next(
            line for line in lines if line.startswith("REPRO_ENGINE ")
        )
        assert [cell.strip() for cell in engine.split("|")][1:3] == [
            "incremental",
            "default",
        ]

    def test_bad_value_exits_nonzero_naming_the_variable(
        self, capsys, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_CHANNEL_CAPACITY", "eight")
        assert main(["config"]) != 0
        err = capsys.readouterr().err
        assert "REPRO_CHANNEL_CAPACITY" in err
        assert "'eight'" in err

    def test_knob_flags_take_help_from_the_rows(self) -> None:
        parser = build_parser()
        chaos = parser._subparsers._group_actions[0].choices["chaos"]
        helps = {a.dest: a.help for a in chaos._actions}
        assert helps["capacity"] == settings.row("channel_capacity").help
        assert helps["jobs"] == settings.row("jobs").help
        assert helps["engine"] == settings.row("engine").help


class TestTelemetryFlag:
    def test_verify_writes_trace_and_stats_renders_it(
        self, tmp_path, capsys
    ) -> None:
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "verify",
                    "--network",
                    "line-3",
                    "--cap",
                    "60",
                    "--telemetry",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert trace.exists()

        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "check.snap-safety" in out

    def test_telemetry_disabled_after_command(self, tmp_path, capsys) -> None:
        from repro import telemetry

        trace = tmp_path / "trace.jsonl"
        main(
            [
                "verify", "--network", "line-3", "--cap", "60",
                "--telemetry", str(trace),
            ]
        )
        capsys.readouterr()
        assert telemetry.enabled is False
        assert telemetry.sink is None

    def test_chaos_trace_carries_cell_spans(self, tmp_path, capsys) -> None:
        from repro.telemetry import read_trace

        trace = tmp_path / "chaos.jsonl"
        assert (
            main(
                [
                    "chaos",
                    "--topology", "ring", "--size", "6",
                    "--budget", "60", "--daemons", "central",
                    "--telemetry", str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        records = read_trace(str(trace))
        assert any(
            r.get("type") == "span" and r.get("name") == "chaos.cell"
            for r in records
        )
        assert any(r.get("type") == "metrics" for r in records)


class TestStatsCommand:
    def _write_trace(self, tmp_path) -> str:
        import json

        path = tmp_path / "t.jsonl"
        records = [
            {"type": "span", "name": "chaos.cell", "seconds": 0.5},
            {
                "type": "metrics",
                "label": "final",
                "metrics": {"sim.steps": {"kind": "counter", "value": 42}},
            },
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        return str(path)

    def test_renders_tables(self, tmp_path, capsys) -> None:
        assert main(["stats", self._write_trace(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sim.steps" in out
        assert "chaos.cell" in out

    def test_json_output_is_merged_snapshot(self, tmp_path, capsys) -> None:
        import json

        assert main(["stats", self._write_trace(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["sim.steps"]["value"] == 42

    def test_missing_trace_fails_cleanly(self, tmp_path, capsys) -> None:
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 2
        assert "absent" in capsys.readouterr().err

    def test_malformed_trace_fails_cleanly(self, tmp_path, capsys) -> None:
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["stats", str(bad)]) == 2
        assert "malformed" in capsys.readouterr().err


class TestServe:
    def test_serve_runs_a_session(self, capsys) -> None:
        assert main(
            ["serve", "--topology", "star", "--size", "8",
             "--requests", "12", "--clients", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "served 12 wave requests on star-8" in out
        assert "'phase': 'accepted'" in out
        assert "wave service" in out
        assert "topologies" in out

    def test_serve_json_payload(self, capsys) -> None:
        import json

        assert main(
            ["serve", "--topology", "line", "--size", "5",
             "--requests", "8", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["topology"] == "line-5"
        assert payload["requests"] == 8
        assert payload["failed"] == 0
        assert payload["stats"]["accepted"] == 8
        assert sum(payload["kinds"].values()) == 8

    def test_serve_is_deterministic_across_runs(self, capsys) -> None:
        import json

        def run() -> dict:
            assert main(
                ["serve", "--topology", "ring", "--size", "6",
                 "--requests", "10", "--seed", "3", "--json"]
            ) == 0
            return json.loads(capsys.readouterr().out)

        first, second = run(), run()
        assert first["kinds"] == second["kinds"]
        assert first["requests"] == second["requests"]

    def test_serve_rejects_bad_knobs(self) -> None:
        import pytest as _pytest

        from repro.parallel.executor import ParallelError

        with _pytest.raises(ParallelError):
            main(
                ["serve", "--topology", "star", "--size", "5",
                 "--requests", "2", "--batch-window", "0"]
            )
