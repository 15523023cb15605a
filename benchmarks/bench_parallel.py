"""C-parallel — process-pool speedup and determinism across the jobs axis.

Runs the heaviest wired workload — a chaos campaign grid — serially
and at ``jobs`` ∈ {1, 2, 4}, and reports the parallel-over-serial
speedup per case as a **median over repeats** with min/max spread
(single-shot speedups on a shared host are noise; see
:func:`benchmarks.common.repeat_median`).
Every measurement doubles as the determinism canary: the parallel
results must be *identical* to the serial ones (same runs, tapes and
violations), so a scheduling bug can never hide behind a speedup.

Speedups are only meaningful relative to the host (a single-core
container cannot beat serial), which is why every report embeds the
host shape (see ``benchmarks/common.host_metadata``) and
``check_regression.py`` compares against baselines from the same shape.

Results are written to ``BENCH_parallel.json`` at the repository root
and gated by ``benchmarks/check_regression.py``::

    pytest benchmarks/bench_parallel.py --benchmark-only -q
"""

from __future__ import annotations

import time

import pytest

from repro.chaos import SCENARIO_SHAPES, run_campaign
from repro.graphs import random_connected, ring

from benchmarks.common import JSON_REPORTS, TableCollector, repeat_median

TABLE = TableCollector(
    "C-parallel — parallel vs serial across the jobs axis",
    columns=[
        "case", "jobs", "seconds", "speedup vs serial",
        "speedup min", "speedup max", "identical",
    ],
)

#: The jobs axis every workload is measured on (serial is the baseline).
JOBS_AXIS = (1, 2, 4)

#: Samples per case; reported numbers are medians with min/max spread.
REPEATS = 5

CAMPAIGN_NETWORKS = [ring(12), random_connected(16, 0.2, seed=7)]
CAMPAIGN_DAEMONS = ("central", "distributed-random")
CAMPAIGN_SEEDS = (0, 1)
CAMPAIGN_BUDGET = 400

#: ``case -> {"identical": ..., "jobs": {j: repeat_median stats}}``
RESULTS: dict[str, dict] = {}


def _campaign_sig(result):
    return [
        (r.scenario, r.topology, r.daemon, r.seed, r.steps, r.violation, r.tape)
        for r in result.runs
    ]


def _run_campaign(jobs=None):
    scenario = SCENARIO_SHAPES["corruption-burst"]().seeded(0)
    return run_campaign(
        None,
        CAMPAIGN_NETWORKS,
        [scenario],
        daemons=CAMPAIGN_DAEMONS,
        seeds=CAMPAIGN_SEEDS,
        budget=CAMPAIGN_BUDGET,
        jobs=jobs,
    )


WORKLOADS = {
    "campaign": (_run_campaign, _campaign_sig),
}


@pytest.mark.parametrize("case", sorted(WORKLOADS))
def test_jobs_axis(case: str, benchmark) -> None:
    run, sig = WORKLOADS[case]

    def measure():
        start = time.perf_counter()
        serial = run()
        serial_seconds = time.perf_counter() - start
        identical = True
        reference = sig(serial)
        sample = {"serial_seconds": serial_seconds}
        for jobs in JOBS_AXIS:
            start = time.perf_counter()
            result = run(jobs=jobs)
            seconds = time.perf_counter() - start
            sample[f"seconds_jobs{jobs}"] = seconds
            sample[f"speedup_jobs{jobs}"] = (
                serial_seconds / seconds if seconds > 0 else 0.0
            )
            identical = identical and sig(result) == reference
        sample["identical"] = identical
        return sample

    # One set of heavy samples per case; repeat_median then computes the
    # per-jobs spread over those same samples (the iterator closure hands
    # it one precollected sample per "run").
    samples = benchmark.pedantic(
        lambda: [measure() for _ in range(REPEATS)], rounds=1, iterations=1
    )
    assert all(s["identical"] for s in samples), f"{case}: parallel != serial"
    per_jobs = {}
    for jobs in JOBS_AXIS:
        replay = iter(samples)
        stats = repeat_median(
            lambda: next(replay), key=f"speedup_jobs{jobs}", repeats=REPEATS
        )
        per_jobs[jobs] = stats
        TABLE.add(
            {
                "case": case,
                "jobs": jobs,
                "seconds": round(stats["sample"][f"seconds_jobs{jobs}"], 4),
                "speedup vs serial": round(stats["median"], 2),
                "speedup min": round(stats["min"], 2),
                "speedup max": round(stats["max"], 2),
                "identical": True,
            }
        )
    RESULTS[case] = {"identical": True, "jobs": per_jobs}


def _build_report() -> dict | None:
    if not RESULTS:
        return None
    speedups = {}
    cases = []
    for case, m in sorted(RESULTS.items()):
        for jobs in JOBS_AXIS:
            stats = m["jobs"][jobs]
            sample = stats["sample"]
            cases.append(
                {
                    "case": case,
                    "jobs": jobs,
                    "seconds": sample[f"seconds_jobs{jobs}"],
                    "serial_seconds": sample["serial_seconds"],
                    "speedup_over_serial": stats["median"],
                    "speedup_min": stats["min"],
                    "speedup_max": stats["max"],
                    "repeats": stats["repeats"],
                    "identical_to_serial": m["identical"],
                }
            )
            speedups[f"{case}_jobs{jobs}"] = round(stats["median"], 2)
    return {
        "benchmark": "process-pool parallelism across the jobs axis",
        "workload": (
            "campaign: ring-12 + random-16, corruption-burst, "
            f"daemons {list(CAMPAIGN_DAEMONS)}, seeds {list(CAMPAIGN_SEEDS)}, "
            f"budget {CAMPAIGN_BUDGET}; speedups are medians over {REPEATS} repeats"
        ),
        "jobs_axis": list(JOBS_AXIS),
        "cases": cases,
        "speedup_parallel_over_serial": speedups,
    }


JSON_REPORTS.append(("BENCH_parallel.json", _build_report))
