"""Tests for the perf gate over committed e2e records (benchmarks/records/gate.py)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "records"))

import gate  # noqa: E402

NOISE = [100, 104, 96, 102, 98, 101, 99, 103, 97, 100]  # spread ~5%
WIDE = [100, 140, 70, 130, 80, 120, 90, 135, 75, 110]  # spread ~50%


def write(path: Path, throughput, workloads=("pif-ring-65536", "mc-line-5"), **fields) -> Path:
    """One trace-0 record per (workload, seed); ``throughput`` lists one value per seed."""
    with open(path, "w", encoding="utf-8") as fh:
        for workload in workloads:
            for seed, value in enumerate(throughput):
                record = {"workload": workload, "seed": seed, "trace": 0, "correct": True,
                          "attempted": 10, "failed": 0,
                          "metrics": {"throughput_per_s": {"value": value, "unit": "1/s"}}}
                fh.write(json.dumps({**record, **fields}) + "\n")
    return path


def pair(tmp_path: Path, parent, change, **change_fields) -> list[str]:
    return gate.check_pair(
        write(tmp_path / "x-parent.jsonl", parent),
        write(tmp_path / "x-change.jsonl", change, **change_fields),
    )


class TestCheckPair:
    def test_identical_passes(self, tmp_path: Path) -> None:
        assert pair(tmp_path, NOISE, NOISE) == []

    def test_small_drop_within_bound_passes(self, tmp_path: Path) -> None:
        assert pair(tmp_path, NOISE, [v * 0.95 for v in NOISE]) == []

    def test_improvement_passes(self, tmp_path: Path) -> None:
        assert pair(tmp_path, NOISE, [v * 1.3 for v in NOISE]) == []

    def test_large_drop_fails(self, tmp_path: Path) -> None:
        problems = pair(tmp_path, NOISE, [v * 0.7 for v in NOISE])
        assert "compare reads a pair worse" in problems

    def test_every_run_worse_fails_despite_wide_spread(self, tmp_path: Path) -> None:
        # compare alone reads this `unresolved` and exits 0: the parent's
        # spread exceeds the 20% bound.
        problems = pair(tmp_path, WIDE, [v * 0.45 for v in NOISE])
        assert "compare reads a pair worse" not in problems
        assert any("every change run worse than every parent run" in p for p in problems)

    def test_wide_spread_overlap_passes(self, tmp_path: Path) -> None:
        assert pair(tmp_path, WIDE, [v * 0.8 for v in WIDE]) == []

    def test_failed_operations_fail(self, tmp_path: Path) -> None:
        problems = pair(tmp_path, NOISE, NOISE, failed=10, correct=False)
        assert len(problems) == 20 and "10/10 operations failed" in problems[0]

    def test_missing_seed_fails(self, tmp_path: Path) -> None:
        assert pair(tmp_path, NOISE, NOISE[:9]) == [
            "parent and change cover different workloads or seeds, or none"
        ]

    def test_missing_workload_fails(self, tmp_path: Path) -> None:
        problems = gate.check_pair(
            write(tmp_path / "x-parent.jsonl", NOISE),
            write(tmp_path / "x-change.jsonl", NOISE, workloads=("pif-ring-65536",)),
        )
        assert problems == ["parent and change cover different workloads or seeds, or none"]

    def test_too_few_seeds_fails(self, tmp_path: Path) -> None:
        assert pair(tmp_path, NOISE[:5], NOISE[:5]) == [
            "mc-line-5: 5 seeds, fewer than 10", "pif-ring-65536: 5 seeds, fewer than 10",
        ]


class TestGate:
    def test_committed_records_pass(self) -> None:
        assert gate.gate(gate.HERE) == 0

    def test_clean_pair_exits_zero(self, tmp_path: Path) -> None:
        write(tmp_path / "a-parent.jsonl", NOISE)
        write(tmp_path / "a-change.jsonl", NOISE)
        assert gate.gate(tmp_path) == 0

    def test_regression_exits_nonzero(self, tmp_path: Path) -> None:
        write(tmp_path / "a-parent.jsonl", NOISE)
        write(tmp_path / "a-change.jsonl", [v * 0.7 for v in NOISE])
        assert gate.gate(tmp_path) == 1

    def test_one_regressed_pair_of_many_fails(self, tmp_path: Path, capsys) -> None:
        for name in ("a", "b", "c"):
            write(tmp_path / f"{name}-parent.jsonl", NOISE)
            write(tmp_path / f"{name}-change.jsonl", [v * (0.7 if name == "b" else 1) for v in NOISE])
        assert gate.gate(tmp_path) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 1 and "== b-parent.jsonl" in out.split("FAIL")[0]

    def test_missing_change_record_exits_nonzero(self, tmp_path: Path, capsys) -> None:
        write(tmp_path / "a-parent.jsonl", NOISE)
        assert gate.gate(tmp_path) == 1
        assert "FAIL: a-change.jsonl is missing" in capsys.readouterr().out

    def test_no_records_exits_nonzero(self, tmp_path: Path) -> None:
        assert gate.gate(tmp_path) == 1
