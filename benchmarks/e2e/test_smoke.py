"""Smoke test of the end-to-end benchmark.

Runs every workload in ``--smoke`` mode (same shapes and checks at
N <= 1024), traced and untraced, and asserts that every metric named in
BENCHMARK.json is emitted with its unit::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
from compare import main as compare_main  # noqa: E402


def _smoke(trace: int, tmp_path_factory) -> tuple[Path, list[dict]]:
    out = tmp_path_factory.mktemp("e2e") / "results.jsonl"
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", "all",
            "--smoke",
            "--trace", str(trace),
            "--out", str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return out, [json.loads(line) for line in out.read_text().splitlines()]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _smoke(0, tmp_path_factory)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _smoke(1, tmp_path_factory)


@pytest.mark.parametrize("run,metrics", [("untraced", "end_to_end"), ("traced", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(run, metrics, request):
    _out, records = request.getfixturevalue(run)
    assert [r["workload"] for r in records] == [w["name"] for w in SPEC["workloads"]]
    expected = {m["name"]: m["unit"] for m in SPEC[metrics]}
    for record in records:
        assert record["correct"] and record["failed"] == 0, record
        assert record["attempted"] >= 1
        emitted = {name: entry["unit"] for name, entry in record["metrics"].items()}
        assert emitted == expected, record["workload"]


def test_end_to_end_metrics_are_never_zero(untraced):
    _out, records = untraced
    for record in records:
        assert all(e["value"] > 0 for e in record["metrics"].values()), record


def test_compare_finds_a_result_set_unchanged_against_itself(untraced, capsys):
    out, records = untraced
    assert compare_main([str(out), str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == len(records) * len(SPEC["end_to_end"])
    assert all(line.endswith("unchanged") for line in lines)
