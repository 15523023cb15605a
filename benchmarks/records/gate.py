"""The perf gate over the committed end-to-end record pairs in this directory.

Run it as ``python3 benchmarks/records/gate.py``; the rules it adds to
``run.py compare`` (``benchmarks/e2e/compare.py``) are in README.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import compare  # noqa: E402

MIN_SEEDS = 10


def every_run_worse(a: dict[int, float], b: dict[int, float], better: str, bound: float) -> bool:
    """Every run of B worse than every run of A, medians apart by more than ``bound``."""
    sign = 1 if better == "higher" else -1
    a_med, b_med = compare.quartiles(list(a.values()))[1], compare.quartiles(list(b.values()))[1]
    separated = min(sign * v for v in a.values()) > max(sign * v for v in b.values())
    return separated and sign * (b_med - a_med) / a_med < -bound


def check_pair(parent: Path, change: Path) -> list[str]:
    """The reasons the pair fails the gate; empty when it passes."""
    problems = []
    cover: dict[Path, dict[str, set[int]]] = {parent: {}, change: {}}
    for path in (parent, change):
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        for r in records:
            if not r["correct"] or r["failed"]:
                problems.append(
                    f"{path.name}: {r['workload']} seed {r['seed']} failed its output "
                    f"checks ({r['failed']}/{r['attempted']} operations failed)"
                )
            if not r["trace"]:
                cover[path].setdefault(r["workload"], set()).add(r["seed"])
    if not cover[parent] or cover[parent] != cover[change]:
        problems.append("parent and change cover different workloads or seeds, or none")
    for workload, seeds in sorted(cover[parent].items()):
        if len(seeds) < MIN_SEEDS:
            problems.append(f"{workload}: {len(seeds)} seeds, fewer than {MIN_SEEDS}")
    if compare.main([str(parent), str(change)]):
        problems.append("compare reads a pair worse")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    a, b = compare.load(str(parent)), compare.load(str(change))
    for workload, name in sorted(a.keys() & b.keys()):
        if name not in spec:
            continue
        rule = (a[workload, name], b[workload, name], spec[name]["better"], spec[name]["bound"])
        if compare.verdict(*rule) == "unresolved" and every_run_worse(*rule):
            problems.append(
                f"{workload} {name}: every change run worse than every parent run, "
                f"by more than the {spec[name]['bound']:.0%} bound at the median"
            )
    return problems


def gate(directory: Path) -> int:
    names = sorted(
        {p.name.rsplit("-", 1)[0] for p in directory.glob("*-parent.jsonl")}
        | {p.name.rsplit("-", 1)[0] for p in directory.glob("*-change.jsonl")}
    )
    if not names:
        print(f"FAIL: no *-parent.jsonl / *-change.jsonl pair in {directory}")
        return 1
    failed = False
    for name in names:
        parent, change = directory / f"{name}-parent.jsonl", directory / f"{name}-change.jsonl"
        print(f"== {parent.name} vs {change.name}")
        missing = [p.name for p in (parent, change) if not p.exists()]
        problems = [f"{m} is missing" for m in missing] or check_pair(parent, change)
        for problem in problems:
            print(f"FAIL: {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(gate(HERE))
