"""The instrumented call sites record what actually happened."""

from __future__ import annotations

import random

import pytest

from repro import telemetry
from repro.core.pif import SnapPif
from repro.graphs import line, ring
from repro.parallel.executor import ParallelExecutor
from repro.runtime.simulator import Simulator
from repro.verification.model_check import (
    check_cycle_liveness_synchronous,
    check_snap_safety,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def _metrics() -> dict:
    return telemetry.registry.snapshot().metrics


class TestSimulator:
    def _sim(self, n=6):
        net = ring(n)
        return Simulator(SnapPif.for_network(net), net, seed=1)

    def test_step_counters_match_simulator_properties(self):
        telemetry.enable()
        sim = self._sim()
        for _ in range(25):
            if sim.step() is None:
                break
        metrics = _metrics()
        assert metrics["sim.steps"]["value"] == sim.steps
        assert metrics["sim.moves"]["value"] == sim.moves
        assert metrics["sim.rounds"]["value"] == sim.rounds
        assert metrics["sim.selection_size"]["count"] == sim.steps
        assert metrics["sim.enabled_set_size"]["count"] == sim.steps
        assert metrics["sim.dirty_set_size"]["count"] == sim.steps

    def test_fault_counters_by_kind(self):
        telemetry.enable()
        sim = self._sim()
        sim.crash([1, 2])
        sim.recover([1])
        rng = random.Random(0)
        garbage = sim.protocol.random_state(3, sim.network, rng)
        while garbage == sim.configuration[3]:
            garbage = sim.protocol.random_state(3, sim.network, rng)
        sim.perturb_configuration({3: garbage})
        metrics = _metrics()
        assert metrics["sim.faults.crash"]["value"] == 1
        assert metrics["sim.faults.recover"]["value"] == 1
        assert metrics["sim.faults.corrupt"]["value"] == 1
        assert metrics["sim.faults"]["value"] == 3

    def test_noop_fault_is_not_counted(self):
        telemetry.enable()
        sim = self._sim()
        sim.recover()  # nothing crashed: no fault event
        assert "sim.faults" not in _metrics()

    def test_disabled_simulator_records_nothing(self):
        sim = self._sim()
        sim.step()
        sim.crash([1])
        assert _metrics() == {}


class TestModelCheck:
    def test_serial_check_publishes_once(self):
        telemetry.enable()
        result = check_snap_safety(line(3), max_states=500)
        metrics = _metrics()
        base = "check.snap-safety (PIF1 ∧ PIF2)"
        assert metrics[f"{base}.runs"]["value"] == 1
        assert (
            metrics[f"{base}.states_explored"]["value"]
            == result.states_explored
        )
        assert (
            metrics[f"{base}.configurations_checked"]["value"]
            == result.configurations_checked
        )
        # The memo counters come from the same stats the result reports.
        stats = result.stats
        assert metrics["modelcheck.memo.hits"]["value"] == stats.memo_hits
        assert metrics["modelcheck.memo.misses"]["value"] == stats.memo_misses
        assert (
            metrics[f"{base}.elapsed.seconds"]["count"] == 1
        )

    def test_public_stats_fields_unchanged_when_disabled(self):
        # The synchronous sweep is the check with a transition memo.
        result = check_cycle_liveness_synchronous(
            line(3), max_configurations=25
        )
        stats = result.stats
        # Telemetry-backed counters still fill the public int fields.
        assert isinstance(stats.memo_hits, int)
        assert isinstance(stats.view_misses, int)
        assert stats.memo_misses > 0
        assert _metrics() == {}


def _double(x: int) -> int:
    return x * 2


def _record_and_double(x: int) -> int:
    telemetry.registry.inc("task.calls")
    return x * 2


class TestExecutor:
    def test_task_metrics_absorbed_in_submission_order(self):
        telemetry.enable()
        executor = ParallelExecutor(_record_and_double, jobs=2)
        results = executor.map([(i, i) for i in (1, 2, 3)])
        assert results == [2, 4, 6]
        metrics = _metrics()
        assert metrics["task.calls"]["value"] == 3
        assert metrics["parallel.tasks"]["value"] == 3
        assert metrics["parallel.retries"]["value"] == 0
        assert metrics["parallel.task.seconds"]["count"] == 3

    def test_inline_jobs_1_publishes_same_counters(self):
        telemetry.enable()
        executor = ParallelExecutor(_record_and_double, jobs=1)
        executor.map([(i, i) for i in (1, 2)])
        metrics = _metrics()
        assert metrics["task.calls"]["value"] == 2
        assert metrics["parallel.tasks"]["value"] == 2

    def test_task_registries_do_not_leak_into_parent(self):
        telemetry.enable()
        before = telemetry.registry
        ParallelExecutor(_record_and_double, jobs=2).map([(0, 1)])
        # task.calls arrived via snapshot merge, not via a shared
        # registry: the pool task recorded into its own captured one.
        assert telemetry.registry is before
        assert _metrics()["task.calls"]["value"] == 1

    def test_disabled_executor_records_nothing(self):
        executor = ParallelExecutor(_double, jobs=2)
        assert executor.map([(i, i) for i in (1, 2, 3)]) == [2, 4, 6]
        assert _metrics() == {}


class TestWorkerProtocolCache:
    def test_hits_misses_and_rebuilds_are_counted(self):
        from repro.parallel import workers

        telemetry.enable()
        workers._PROTOCOL_CACHE.clear()
        net = ring(5)
        first = workers._protocol_for(None, net)
        again = workers._protocol_for(None, net)
        assert again is first
        # Unhashable factory: rebuilt fresh on every call.
        class Unhashable(list):
            def __call__(self, network, root):
                return SnapPif.for_network(network, root)

        workers._protocol_for(Unhashable(), net, 0)
        metrics = _metrics()
        assert metrics["worker.protocol_cache.misses"]["value"] == 1
        assert metrics["worker.protocol_cache.hits"]["value"] == 1
        assert metrics["worker.protocol_cache.rebuilds"]["value"] == 1

    def test_cache_counters_stay_out_of_deterministic_view(self):
        from repro.parallel import workers

        telemetry.enable()
        workers._PROTOCOL_CACHE.clear()
        workers._protocol_for(None, ring(4))
        det = telemetry.registry.snapshot().deterministic()
        assert not any(name.startswith("worker.") for name in det.metrics)

    def test_disabled_cache_records_nothing(self):
        from repro.parallel import workers

        workers._PROTOCOL_CACHE.clear()
        workers._protocol_for(None, ring(4))
        assert _metrics() == {}
