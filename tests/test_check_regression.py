"""Unit tests for the benchmark regression gate (benchmarks/check_regression.py)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.check_regression import TRACKED, compare_speedups, main


class TestCompareSpeedups:
    def test_identical_passes(self) -> None:
        base = {"line-3": 2.1, "ring-16": 3.3}
        assert compare_speedups(base, dict(base), 0.10) == []

    def test_small_drop_within_threshold_passes(self) -> None:
        assert (
            compare_speedups({"a": 2.0}, {"a": 1.85}, 0.10) == []
        )  # 7.5% drop

    def test_large_drop_fails(self) -> None:
        failures = compare_speedups({"a": 2.0}, {"a": 1.7}, 0.10)  # 15% drop
        assert len(failures) == 1
        assert "a" in failures[0] and "drop" in failures[0]

    def test_improvement_passes(self) -> None:
        assert compare_speedups({"a": 2.0}, {"a": 3.0}, 0.10) == []

    def test_missing_case_fails(self) -> None:
        failures = compare_speedups({"a": 2.0, "b": 1.5}, {"a": 2.0}, 0.10)
        assert failures == ["b: missing from current report"]

    def test_extra_current_case_ignored(self) -> None:
        assert compare_speedups({"a": 2.0}, {"a": 2.0, "new": 9.0}, 0.10) == []

    def test_boundary_exactly_threshold_passes(self) -> None:
        assert compare_speedups({"a": 2.0}, {"a": 1.8}, 0.10) == []


class TestMainEndToEnd:
    def _write(self, directory: Path, speedups: dict[str, float]) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for filename, keys in TRACKED.items():
            (directory / filename).write_text(
                json.dumps({key: speedups for key in keys})
            )

    def test_clean_run_exits_zero(self, tmp_path, capsys) -> None:
        self._write(tmp_path / "baselines", {"case": 2.0})
        self._write(tmp_path / "current", {"case": 2.0})
        code = main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--current-dir", str(tmp_path / "current"),
            ]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys) -> None:
        self._write(tmp_path / "baselines", {"case": 2.0})
        self._write(tmp_path / "current", {"case": 1.0})
        code = main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--current-dir", str(tmp_path / "current"),
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_current_report_exits_nonzero(self, tmp_path) -> None:
        self._write(tmp_path / "baselines", {"case": 2.0})
        (tmp_path / "current").mkdir()
        code = main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--current-dir", str(tmp_path / "current"),
            ]
        )
        assert code == 1

    def test_missing_baseline_is_skipped(self, tmp_path, capsys) -> None:
        (tmp_path / "baselines").mkdir()
        self._write(tmp_path / "current", {"case": 2.0})
        code = main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--current-dir", str(tmp_path / "current"),
            ]
        )
        assert code == 0
        assert "skipped" in capsys.readouterr().out

    def test_threshold_flag_respected(self, tmp_path) -> None:
        self._write(tmp_path / "baselines", {"case": 2.0})
        self._write(tmp_path / "current", {"case": 1.9})  # 5% drop
        args = [
            "--baseline-dir", str(tmp_path / "baselines"),
            "--current-dir", str(tmp_path / "current"),
        ]
        assert main(args) == 0
        assert main(args + ["--threshold", "0.01"]) == 1

    def test_committed_baselines_are_valid(self) -> None:
        """The committed baseline files parse and carry the tracked keys."""
        for filename, keys in TRACKED.items():
            path = REPO_ROOT / "benchmarks" / "baselines" / filename
            payload = json.loads(path.read_text())
            for key in keys:
                assert isinstance(payload[key], dict) and payload[key]

    def test_one_regressed_key_of_many_fails(self, tmp_path, capsys) -> None:
        """Multi-key reports gate every tracked key independently."""
        baselines = tmp_path / "baselines"
        current = tmp_path / "current"
        baselines.mkdir()
        current.mkdir()
        filename = "BENCH_engine.json"
        keys = TRACKED[filename]
        assert len(keys) >= 2
        (baselines / filename).write_text(
            json.dumps({key: {"case": 2.0} for key in keys})
        )
        healthy = {keys[0]: {"case": 2.0}, keys[1]: {"case": 1.0}}
        (current / filename).write_text(json.dumps(healthy))
        code = main(
            [
                "--baseline-dir", str(baselines),
                "--current-dir", str(current),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert f"ok ({keys[0]}" in out
        assert f"FAIL ({keys[1]})" in out

    def test_report_missing_one_key_fails(self, tmp_path, capsys) -> None:
        baselines = tmp_path / "baselines"
        current = tmp_path / "current"
        baselines.mkdir()
        current.mkdir()
        filename = "BENCH_engine.json"
        keys = TRACKED[filename]
        (baselines / filename).write_text(
            json.dumps({key: {"case": 2.0} for key in keys})
        )
        (current / filename).write_text(
            json.dumps({keys[0]: {"case": 2.0}})
        )
        code = main(
            [
                "--baseline-dir", str(baselines),
                "--current-dir", str(current),
            ]
        )
        assert code == 1
        assert f"no current report with {keys[1]!r}" in capsys.readouterr().out


class TestHostMismatch:
    def test_identical_hosts_silent(self) -> None:
        from benchmarks.check_regression import host_mismatch

        host = {"cpu_model": "X", "cpu_count": 4, "python": "3.11.7"}
        assert host_mismatch({"host": dict(host)}, {"host": dict(host)}) == []

    def test_differing_fields_reported(self) -> None:
        from benchmarks.check_regression import host_mismatch

        base = {"host": {"cpu_model": "X", "cpu_count": 4, "python": "3.11.7"}}
        cur = {"host": {"cpu_model": "Y", "cpu_count": 1, "python": "3.11.7"}}
        notes = host_mismatch(base, cur)
        assert len(notes) == 2
        assert any("cpu_model" in n for n in notes)
        assert any("cpu_count" in n for n in notes)

    def test_missing_metadata_is_a_mismatch(self) -> None:
        from benchmarks.check_regression import host_mismatch

        assert host_mismatch({}, {"host": {}}) == [
            "host metadata missing from baseline or current report"
        ]


class TestUpdateBaselines:
    def test_copies_tracked_reports(self, tmp_path) -> None:
        from benchmarks.check_regression import TRACKED, update_baselines

        current = tmp_path / "current"
        baselines = tmp_path / "baselines"
        current.mkdir()
        filename, keys = next(iter(TRACKED.items()))
        (current / filename).write_text(
            json.dumps(
                {key: {"case": 2.0} for key in keys}
                | {"host": {"cpu_count": 1}}
            )
        )
        copied = update_baselines(baselines, current)
        assert copied == 1
        payload = json.loads((baselines / filename).read_text())
        for key in keys:
            assert payload[key] == {"case": 2.0}

    def test_skips_report_missing_one_tracked_key(self, tmp_path) -> None:
        from benchmarks.check_regression import TRACKED, update_baselines

        current = tmp_path / "current"
        baselines = tmp_path / "baselines"
        current.mkdir()
        filename = "BENCH_engine.json"
        keys = TRACKED[filename]
        (current / filename).write_text(
            json.dumps({keys[0]: {"case": 2.0}})
        )
        assert update_baselines(baselines, current) == 0
        assert not (baselines / filename).exists()

    def test_skips_malformed_reports(self, tmp_path) -> None:
        from benchmarks.check_regression import TRACKED, update_baselines

        current = tmp_path / "current"
        baselines = tmp_path / "baselines"
        current.mkdir()
        filename = next(iter(TRACKED))
        (current / filename).write_text(json.dumps({"unrelated": 1}))
        assert update_baselines(baselines, current) == 0
        assert not (baselines / filename).exists()

    def test_parallel_report_is_tracked(self) -> None:
        from benchmarks.check_regression import TRACKED

        assert TRACKED["BENCH_parallel.json"] == (
            "speedup_parallel_over_serial",
        )

    def test_telemetry_report_is_tracked(self) -> None:
        from benchmarks.check_regression import TRACKED

        assert TRACKED["BENCH_telemetry.json"] == ("telemetry_throughput",)

    def test_engine_report_tracks_all_speedups(self) -> None:
        from benchmarks.check_regression import TRACKED

        assert TRACKED["BENCH_engine.json"] == (
            "speedup_incremental_over_full",
            "speedup_columnar_over_incremental",
            "speedup_columnar_over_incremental_by_protocol",
        )


class TestMainUpdateFlag:
    def test_update_then_gate_passes(self, tmp_path, capsys) -> None:
        from benchmarks.check_regression import TRACKED, main

        current = tmp_path / "current"
        baselines = tmp_path / "baselines"
        current.mkdir()
        for filename, keys in TRACKED.items():
            (current / filename).write_text(
                json.dumps(
                    {key: {"case": 2.0} for key in keys}
                    | {"host": {"cpu_count": 1}}
                )
            )
        assert (
            main(
                [
                    "--baseline-dir", str(baselines),
                    "--current-dir", str(current),
                    "--update-baselines",
                ]
            )
            == 0
        )
        assert (
            main(
                ["--baseline-dir", str(baselines), "--current-dir", str(current)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "WARNING" not in out

    def test_host_warning_printed_on_mismatch(self, tmp_path, capsys) -> None:
        from benchmarks.check_regression import TRACKED, main

        current = tmp_path / "current"
        baselines = tmp_path / "baselines"
        current.mkdir()
        baselines.mkdir()
        filename, keys = next(iter(TRACKED.items()))
        (baselines / filename).write_text(
            json.dumps(
                {key: {"case": 2.0} for key in keys}
                | {"host": {"cpu_count": 8}}
            )
        )
        (current / filename).write_text(
            json.dumps(
                {key: {"case": 2.0} for key in keys}
                | {"host": {"cpu_count": 1}}
            )
        )
        assert (
            main(
                ["--baseline-dir", str(baselines), "--current-dir", str(current)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "WARNING host shape differs" in out
        assert "cpu_count" in out
