"""Telemetry determinism across the jobs axis (DESIGN.md §10).

The acceptance bar for the telemetry subsystem: for every wired entry
point, the aggregated *deterministic* metric snapshot (everything but
the ``*.seconds`` wall-clock histograms) does not depend on the worker
count.  Per-task registries are captured in the pool workers, shipped
back as picklable snapshots, and merged in serial submission order, so
campaigns and shrink sweeps read the same at ``jobs`` ∈ {None, 1, 2, 4}
(the serial loop records straight into the registry).  The synchronous
sweeps shard only in the pool, whose shards build their own memos, so
they read the same at ``jobs`` ∈ {2, 4}, and ``jobs=1`` is the serial
sweep.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.chaos import crash_recover, run_campaign
from repro.graphs import line, ring
from repro.verification import (
    check_convergence_synchronous,
    check_cycle_liveness_synchronous,
    check_snap_safety,
)

#: Every point of the jobs axis; ``None`` is the serial default.
JOBS = (None, 1, 2, 4)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def _snapshot_of(run) -> dict:
    """Run ``run()`` under fresh telemetry; return the deterministic dict."""
    telemetry.enable()
    try:
        run()
        return telemetry.registry.snapshot().deterministic().to_dict()
    finally:
        telemetry.disable()


def _assert_identical_across_jobs(make_run, jobs_axis=JOBS):
    snapshots = [_snapshot_of(make_run(jobs)) for jobs in jobs_axis]
    assert snapshots[0], "entry point published no deterministic metrics"
    for jobs, snapshot in zip(jobs_axis, snapshots):
        assert snapshot == snapshots[0], jobs
    return snapshots[0]


class TestJobsBitIdentity:
    def test_campaign(self):
        def make_run(jobs):
            return lambda: run_campaign(
                None,
                [ring(6)],
                [crash_recover()],
                daemons=("central",),
                seeds=(0, 1),
                budget=60,
                jobs=jobs,
            )

        snapshot = _assert_identical_across_jobs(make_run)
        metrics = snapshot["metrics"]
        # The cell grid is 1 scenario × 1 topology × 1 daemon × 2 seeds.
        assert metrics["chaos.cells"]["value"] == 2
        assert metrics["chaos.runs"]["value"] == 2
        assert metrics["chaos.campaigns"]["value"] == 1
        # Executor accounting also aggregates identically across jobs.
        assert metrics["parallel.tasks"]["value"] == 2
        assert metrics["parallel.retries"]["value"] == 0
        # Simulator metrics from inside the cells survive the boundary.
        assert metrics["sim.steps"]["value"] > 0
        assert metrics["sim.faults"]["value"] > 0

    def test_campaign_stop_on_violation(self):
        from repro.chaos import corruption_burst
        from tests.mutants.protocols import MUTANT_FACTORIES

        factory = MUTANT_FACTORIES["mutant-eager-fok"]

        def make_run(jobs):
            return lambda: run_campaign(
                factory,
                [line(5)],
                [corruption_burst()],
                daemons=("central", "distributed-random"),
                seeds=(0, 1, 2),
                budget=400,
                stop_on_violation=True,
                jobs=jobs,
            )

        snapshot = _assert_identical_across_jobs(make_run)
        metrics = snapshot["metrics"]
        # Only the prefix up to the first violating cell is counted.
        runs = metrics["chaos.runs"]["value"]
        assert runs < 6
        assert metrics["chaos.violations"]["value"] == 1
        assert metrics["chaos.cells"]["value"] == runs
        assert metrics["parallel.tasks"]["value"] == runs

    def test_shrink_sweep(self):
        from repro.chaos import corruption_burst, shrink_sweep
        from tests.mutants.protocols import MUTANT_FACTORIES

        factory = MUTANT_FACTORIES["mutant-eager-fok"]

        def make_run(jobs):
            return lambda: shrink_sweep(
                factory,
                [ring(6)],
                [corruption_burst()],
                daemons=("central",),
                seeds=(0, 1),
                budget=120,
                max_tests=60,
                jobs=jobs,
            )

        snapshot = _assert_identical_across_jobs(make_run)
        metrics = snapshot["metrics"]
        # The streaming per-iteration metrics (satellite of the shrink
        # follow-up): every oracle call counted and sized, acceptances
        # tracked — and all of it merged deterministically across jobs.
        assert metrics["chaos.shrink.tests"]["value"] > 0
        assert metrics["chaos.shrink.candidate_entries"]["count"] > 0
        assert (
            metrics["chaos.shrink.tests"]["value"]
            >= metrics["chaos.shrink.accepted"]["value"]
        )

    def test_cycle_liveness(self):
        def make_run(jobs):
            return lambda: check_cycle_liveness_synchronous(
                line(3), max_configurations=40, jobs=jobs
            )

        base = "check.cycle-liveness (synchronous)"
        for axis in ((2, 4), (None, 1)):
            snapshot = _assert_identical_across_jobs(make_run, axis)
            metrics = snapshot["metrics"]
            assert metrics[f"{base}.configurations_checked"]["value"] == 40

    def test_convergence(self):
        def make_run(jobs):
            return lambda: check_convergence_synchronous(
                line(3), max_configurations=40, jobs=jobs
            )

        for axis in ((2, 4), (None, 1)):
            snapshot = _assert_identical_across_jobs(make_run, axis)
            assert any(
                name.startswith("check.") for name in snapshot["metrics"]
            )

    def test_disabled_runs_record_nothing(self):
        assert telemetry.enabled is False
        run_campaign(
            None,
            [ring(6)],
            [crash_recover()],
            daemons=("central",),
            seeds=(0,),
            budget=60,
            jobs=2,
        )
        check_snap_safety(line(3), max_states=500)
        assert telemetry.registry.snapshot().metrics == {}
