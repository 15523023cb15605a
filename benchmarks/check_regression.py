"""Performance-regression gate over the committed benchmark baselines.

Compares freshly generated benchmark reports (``BENCH_engine.json``,
``BENCH_modelcheck.json`` at the repository root) against the committed
baselines in ``benchmarks/baselines/`` and exits non-zero when any
tracked speedup dropped by more than the threshold (default 10%)::

    pytest benchmarks/ --benchmark-only -q     # regenerate the reports
    python benchmarks/check_regression.py      # gate against baselines

Only *drops* fail the gate — a faster-than-baseline run passes (refresh
the baselines with ``--update-baselines`` when an improvement is
intentional).  A report or speedup key present in the baseline but
missing from the fresh run also fails: silently losing coverage is
itself a regression.

Reports embed the host shape they were measured on; when the current
host differs from the baseline's (different CPU model or core count)
the gate still runs but prints a warning — cross-host comparisons are
informative, not authoritative.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``report filename -> keys of its tracked speedup dicts``.  A report
#: may track several independent ratios (the engine report gates both
#: the incremental/full and the columnar/incremental speedups).
TRACKED: dict[str, tuple[str, ...]] = {
    "BENCH_engine.json": (
        "speedup_incremental_over_full",
        "speedup_columnar_over_incremental",
        "speedup_columnar_over_incremental_by_protocol",
    ),
    "BENCH_modelcheck.json": ("speedup_memo_over_direct",),
    "BENCH_chaos.json": ("campaign_steps_per_sec",),
    "BENCH_parallel.json": ("speedup_parallel_over_serial",),
    "BENCH_telemetry.json": ("telemetry_throughput",),
    "BENCH_messaging.json": ("delivered_messages_per_sec",),
    "BENCH_service.json": ("wave_requests_per_sec",),
}

__all__ = ["compare_speedups", "host_mismatch", "main"]


def compare_speedups(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float,
) -> list[str]:
    """Return one failure message per regressed or missing case."""
    failures = []
    for case in sorted(baseline):
        base = baseline[case]
        if case not in current:
            failures.append(f"{case}: missing from current report")
            continue
        now = current[case]
        if base <= 0:
            continue
        drop = (base - now) / base
        if drop > threshold:
            failures.append(
                f"{case}: {base:.2f}x -> {now:.2f}x ({drop:.0%} drop)"
            )
    return failures


def host_mismatch(baseline: dict, current: dict) -> list[str]:
    """Human-readable differences between two reports' host shapes.

    Compares the fields that change what a speedup means (CPU model,
    core count, python version).  Either report missing its ``host``
    block counts as a mismatch — old baselines predate the metadata.
    """
    base_host = baseline.get("host")
    cur_host = current.get("host")
    if not isinstance(base_host, dict) or not isinstance(cur_host, dict):
        return ["host metadata missing from baseline or current report"]
    notes = []
    for field in ("cpu_model", "cpu_count", "python"):
        base, cur = base_host.get(field), cur_host.get(field)
        if base != cur:
            notes.append(f"{field}: baseline {base!r} vs current {cur!r}")
    return notes


def _load_payload(path: Path) -> dict | None:
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    return payload if isinstance(payload, dict) else None


def _load(path: Path, key: str) -> dict[str, float] | None:
    payload = _load_payload(path)
    if payload is None:
        return None
    speedups = payload.get(key)
    if not isinstance(speedups, dict):
        return None
    return speedups


def update_baselines(baseline_dir: Path, current_dir: Path) -> int:
    """Copy every tracked fresh report over its committed baseline.

    A report is copied only when it carries *every* tracked key — a
    partial report would silently shrink the gate's coverage.
    """
    baseline_dir.mkdir(parents=True, exist_ok=True)
    copied = 0
    for filename, keys in TRACKED.items():
        source = current_dir / filename
        missing = [key for key in keys if _load(source, key) is None]
        if missing:
            print(
                f"{filename}: no fresh report with {missing[0]!r}; not updated"
            )
            continue
        shutil.copyfile(source, baseline_dir / filename)
        print(f"{filename}: baseline updated from {source}")
        copied += 1
    return copied


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on >threshold benchmark speedup regressions"
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "baselines",
        help="directory holding the committed baseline reports",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory holding the freshly generated reports",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="maximum tolerated fractional drop (default: 0.10)",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="copy the fresh tracked reports over the committed baselines "
        "instead of gating",
    )
    args = parser.parse_args(argv)

    if args.update_baselines:
        update_baselines(args.baseline_dir, args.current_dir)
        return 0

    exit_code = 0
    for filename, keys in TRACKED.items():
        host_checked = False
        for key in keys:
            baseline = _load(args.baseline_dir / filename, key)
            if baseline is None:
                print(f"{filename}: no baseline with {key!r}; skipped")
                continue
            current = _load(args.current_dir / filename, key)
            if current is None:
                print(
                    f"{filename}: FAIL — no current report with {key!r} "
                    f"in {args.current_dir} (run the benchmarks first)"
                )
                exit_code = 1
                continue
            if not host_checked:
                host_checked = True
                mismatches = host_mismatch(
                    _load_payload(args.baseline_dir / filename) or {},
                    _load_payload(args.current_dir / filename) or {},
                )
                for note in mismatches:
                    print(f"{filename}: WARNING host shape differs — {note}")
            failures = compare_speedups(baseline, current, args.threshold)
            if failures:
                print(f"{filename}: FAIL ({key})")
                for line in failures:
                    print(f"  {line}")
                exit_code = 1
            else:
                print(
                    f"{filename}: ok ({key}, {len(baseline)} cases "
                    f"within threshold)"
                )
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
