"""Compare two result sets of the end-to-end benchmark.

Each result set is a JSONL file written with ``run.py --out``, one line
per workload run (trace-0 lines only are compared).  For every
(end-to-end metric, workload) pair present in both sets it prints each
side's median and quartiles and a verdict, under the rules of the
choosing-metrics guide (section 8), with the bounds in BENCHMARK.json:

- ``unresolved``: either side's spread (quartile distance over median)
  exceeds the bound, unless every run of B reads better than every run
  of A;
- ``improved``: B wins at least nine tenths of the runs paired by seed,
  and the medians differ by more than A's quartile distance;
- ``worse``: B's median is worse than A's by more than the bound;
- ``unchanged``: otherwise.

Exits 1 when any pair is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> dict[tuple[str, str], dict[int, float]]:
    """``(workload, metric) -> {seed: value}`` from a ``--out`` file."""
    runs: dict[tuple[str, str], dict[int, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"]:
                continue
            for metric, entry in record["metrics"].items():
                runs.setdefault((record["workload"], metric), {})[record["seed"]] = entry["value"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: dict[int, float], b: dict[int, float], better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    a_q1, a_med, a_q3 = quartiles(list(a.values()))
    b_q1, b_med, b_q3 = quartiles(list(b.values()))
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    all_better = (
        min(b.values()) > max(a.values())
        if sign > 0
        else max(b.values()) < min(a.values())
    )
    seeds = sorted(a.keys() & b.keys())
    wins = sum(sign * (b[s] - a[s]) > 0 for s in seeds)
    change = sign * (b_med - a_med) / a_med
    if spread > bound and not all_better:
        return "unresolved"
    if change > 0 and seeds and wins >= 0.9 * len(seeds) and abs(b_med - a_med) > a_q3 - a_q1:
        return "improved"
    if change < -bound:
        return "worse"
    return "unchanged"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare", description="Compare two --out result sets."
    )
    parser.add_argument("a", help="the parent's results")
    parser.add_argument("b", help="the change's results")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    a, b = load(args.a), load(args.b)
    worse = False
    print(
        f"{'workload':<26} {'metric':<18} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict"
    )
    for key in sorted(a.keys() & b.keys()):
        workload, metric = key
        if metric not in spec:
            continue
        better, bound = spec[metric]["better"], spec[metric]["bound"]
        result = verdict(a[key], b[key], better, bound)
        worse |= result == "worse"
        aq, bq = quartiles(list(a[key].values())), quartiles(list(b[key].values()))
        change = (bq[1] - aq[1]) / aq[1]
        print(
            f"{workload:<26} {metric:<18} {_fmt(aq):>34} {_fmt(bq):>34} "
            f"{change:>+8.1%} {bound:>6.0%}  {result}"
        )
    return 1 if worse else 0


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
