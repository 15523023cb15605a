"""End-to-end benchmark: six workloads, end-to-end metrics, per-layer trace.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload all
    python3 benchmarks/e2e/run.py --workload pif-ring-65536 --seed 3 --seconds 8 --trace 0
    python3 benchmarks/e2e/run.py --workload all --smoke
    python3 benchmarks/e2e/run.py --workload all --out parent.jsonl
    python3 benchmarks/e2e/run.py compare parent.jsonl change.jsonl

Every workload runs in its own fresh process, with every ``REPRO_*``
variable removed from its environment.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see README.md).  A failed output check exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Timed seconds per workload in ``--smoke`` mode.
SMOKE_SECONDS = 0.5
#: A workload process is killed after this long.
CHILD_TIMEOUT_S = 170

#: Every end-to-end metric and its unit.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="timed seconds per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="the same shapes at N <= 1024, briefly"
    )
    parser.add_argument("--out", help="append one JSON line per workload result here")
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--removed-env", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else _run_seconds()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


# ----------------------------------------------------------------------
# Parent: one fresh process per workload
# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.in_process:
        return run_workload(args)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(
            f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    results = {}
    status = 0
    for name in names:
        code, result = _spawn(name, args)
        status = status or code
        if result is None:
            print(f"{name}: no result", file=sys.stderr)
            return code or 1
        results[name] = result
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                record = {
                    "workload": name,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "smoke": args.smoke,
                    **result,
                }
                fh.write(json.dumps(record) + "\n")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return status
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()
                },
            }
        )
    )
    return status


def _spawn(name: str, args: argparse.Namespace) -> tuple[int, dict | None]:
    """Run one workload in a fresh process; echo its report, return its result."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if k not in removed}
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--in-process",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--removed-env", ",".join(removed),
    ]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return proc.returncode or 1, None
    return proc.returncode, result


# ----------------------------------------------------------------------
# Child: one workload in this process
# ----------------------------------------------------------------------
def calibration_rate() -> float:
    """Iterations/s of a fixed pure-Python loop (recorded, never applied).

    The first pass runs before the interpreter specializes the loop and
    is discarded; the median of the next four is returned.
    """
    rates = []
    for _ in range(5):
        n = 200_000
        start = perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc + i * i) % 1_000_003
        rates.append(n / (perf_counter() - start))
    return statistics.median(rates[1:])


def host_block() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "calibration_iter_per_s": calibration_rate(),
    }


def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024 if sys.platform != "darwin" else kib / 2**20


def run_workload(args: argparse.Namespace) -> int:
    from layers import LAYER_UNITS, NullTracer, Tracer, install, layer_metrics
    from workloads import WORKLOADS, Budget
    from repro.columnar.backend import resolve_backend

    host = host_block()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    report: dict = {"workload": workload.name, "seed": args.seed, "host": host}

    setups = []
    state = None
    for _ in range(SETUP_REPS):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        start = perf_counter()
        state = workload.setup()
        setups.append(perf_counter() - start)
    report["setup_samples_s"] = setups
    gc.collect()
    sample = workload.run(state, Budget(seconds=args.seconds), NullTracer())
    if not args.trace:
        values = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(
                sample.window_rates or [sample.items / sample.timed_s]
            ),
            "latency_p50_ms": 1000 * statistics.median(sample.latencies),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = E2E_UNITS
    else:
        # Rerun the same operations from a fresh, traced set-up; the
        # untraced region above is the overhead baseline.
        untraced = sample
        workload.close(state)
        state = None
        gc.collect()
        tracer = Tracer()
        install(tracer)
        try:
            state = workload.setup()
            tracer.setups += 1
            gc.collect()
            tracer.phase = "run"
            sample = workload.run(state, Budget(ops=untraced.ops), tracer)
            tracer.phase = "idle"
        finally:
            tracer.uninstall()
        values = layer_metrics(
            tracer, sample.items, sample.timed_s, untraced.timed_s, sample.extra
        )
        units = LAYER_UNITS
        if sample.spans:
            path = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-spans.jsonl"
            path.parent.mkdir(exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                for span in sample.spans:
                    fh.write(json.dumps(span) + "\n")
            report["spans_file"] = str(path.relative_to(ROOT))

    failures = workload.check(state, sample)
    report["settings"] = {
        **workload.settings(state),
        "backend": resolve_backend(None),
        "removed_env": [v for v in args.removed_env.split(",") if v],
    }
    workload.close(state)
    report.update(
        ops=sample.ops,
        items=sample.items,
        timed_s=sample.timed_s,
        latency_samples=len(sample.latencies),
        window_rates=sample.window_rates,
        failures=failures,
    )
    correct = not failures
    attempted = max(sample.attempted, 1)
    failed = sample.failed or (0 if correct else attempted)
    for name, value in values.items():
        print(f"{workload.name:<26} {name:<30} {value:>14.6g} {units[name]}")
    print(json.dumps({"report": report}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
