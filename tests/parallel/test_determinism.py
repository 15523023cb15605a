"""The non-negotiable contract: parallel ≡ serial, bit for bit.

Every wired entry point — campaigns and the synchronous liveness and
convergence sweeps — must produce identical verdicts, counterexamples,
tapes and coverage counters at ``jobs`` ∈ {1, 2, 4} and on the serial
path (``jobs=None``), early stops included.  ``jobs=1`` *is* the serial
path.  A permanently failing pool worker must surface the failing grid
cell's identity, not a bare exception.
"""

from __future__ import annotations

import pytest

from repro.chaos import SCENARIO_SHAPES, run_campaign
from repro.chaos.campaign import CampaignResult
from repro.graphs import line, ring
from repro.parallel.executor import ParallelError
from repro.verification import (
    check_convergence_synchronous,
    check_cycle_liveness_synchronous,
    check_snap_safety,
)

from tests.mutants.protocols import MUTANT_FACTORIES

JOBS = (1, 2, 4)


def _failing_factory(network, root=0):
    raise RuntimeError("factory exploded")


def _campaign_sig(result: CampaignResult):
    return [
        (
            r.scenario,
            r.topology,
            r.daemon,
            r.seed,
            r.steps,
            r.faults_applied,
            r.violation,
            r.violation_step,
            r.tape,
        )
        for r in result.runs
    ]


def _check_sig(result):
    return (
        result.complete,
        result.configurations_checked,
        [(c.initial, c.schedule, c.message) for c in result.counterexamples],
    )


class TestCampaign:
    NETWORKS = [line(4), ring(5)]
    DAEMONS = ("central", "distributed-random")
    SEEDS = (0, 1)

    def _run(self, **kwargs) -> CampaignResult:
        scenario = SCENARIO_SHAPES["corruption-burst"]().seeded(0)
        return run_campaign(
            None,
            self.NETWORKS,
            [scenario],
            daemons=self.DAEMONS,
            seeds=self.SEEDS,
            budget=150,
            **kwargs,
        )

    def test_serial_equals_every_jobs_level(self) -> None:
        reference = _campaign_sig(self._run())
        for jobs in JOBS:
            assert _campaign_sig(self._run(jobs=jobs)) == reference, jobs

    def test_env_knob_matches_flag(self, monkeypatch) -> None:
        reference = _campaign_sig(self._run(jobs=2))
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert _campaign_sig(self._run()) == reference

    def test_worker_error_surfaces_grid_cell_identity(self) -> None:
        scenario = SCENARIO_SHAPES["corruption-burst"]().seeded(0)
        with pytest.raises(ParallelError) as err:
            run_campaign(
                _failing_factory,
                [line(4)],
                [scenario],
                daemons=("central",),
                seeds=(3,),
                budget=50,
                jobs=2,
            )
        message = str(err.value)
        # The grid-cell identity: (topology, scenario, daemon, seed).
        assert "line-4" in message
        assert "corruption-burst" in message
        assert "central" in message
        assert "3" in message
        assert "factory exploded" in message

    def test_serial_campaign_leaves_no_cached_protocols(self) -> None:
        from repro.parallel import workers

        for jobs in (None, 1):
            self._run(jobs=jobs)
            assert workers._PROTOCOL_CACHE == {}, jobs

    def test_stop_on_violation_truncates_like_serial(self) -> None:
        scenario = SCENARIO_SHAPES["corruption-burst"]().seeded(0)
        factory = MUTANT_FACTORIES["mutant-eager-fok"]
        serial = run_campaign(
            factory,
            [line(5)],
            [scenario],
            daemons=("central", "distributed-random"),
            seeds=(0, 1),
            budget=400,
            stop_on_violation=True,
        )
        assert serial.violations, "mutant must violate for this test to bite"
        for jobs in JOBS:
            parallel = run_campaign(
                factory,
                [line(5)],
                [scenario],
                daemons=("central", "distributed-random"),
                seeds=(0, 1),
                budget=400,
                stop_on_violation=True,
                jobs=jobs,
            )
            assert _campaign_sig(parallel) == _campaign_sig(serial), jobs


class TestSnapSafety:
    def test_mutant_counterexample_identical(self, monkeypatch) -> None:
        # The snap-safety sweep stays serial: the memo it shares across
        # initiations is what makes it fast.  Its first counterexample
        # must not depend on how the protocol is supplied or on the memo.
        factory = MUTANT_FACTORIES["mutant-eager-fok"]
        net = line(3)

        def ctx_sig(result):
            return (
                result.complete,
                [
                    (c.initial, c.schedule, c.message)
                    for c in result.counterexamples
                ],
            )

        serial = check_snap_safety(
            net, protocol=factory(net, 0), max_states=50_000, stop_at_first=True
        )
        assert serial.counterexamples
        assert not serial.ok
        reference = ctx_sig(serial)
        for memo in ("1", "0"):
            monkeypatch.setenv("REPRO_MODELCHECK_MEMO", memo)
            again = check_snap_safety(
                net,
                protocol_factory=factory,
                max_states=50_000,
                stop_at_first=True,
            )
            assert ctx_sig(again) == reference, memo


class TestSynchronousSweeps:
    def test_liveness_identical_across_jobs_and_serial(self) -> None:
        net = line(3)
        serial = _check_sig(check_cycle_liveness_synchronous(net))
        for jobs in JOBS:
            assert (
                _check_sig(check_cycle_liveness_synchronous(net, jobs=jobs))
                == serial
            ), jobs

    def test_convergence_identical_across_jobs_and_serial(self) -> None:
        net = line(3)
        kwargs = dict(max_configurations=120, stride=7)
        serial = _check_sig(check_convergence_synchronous(net, **kwargs))
        for jobs in JOBS:
            assert (
                _check_sig(
                    check_convergence_synchronous(net, jobs=jobs, **kwargs)
                )
                == serial
            ), jobs

    @staticmethod
    def _assert_stop_matches_serial(check, expected) -> None:
        # The sharded merge cuts where the serial sweep stops: the same
        # counterexamples *and* the same coverage counters.
        factory = MUTANT_FACTORIES["mutant-eager-fok"]
        net = line(3)
        serial = check(net, protocol=factory(net, 0))
        assert serial.truncation == "stopped after 5 counterexamples"
        assert (
            serial.configurations_checked,
            serial.states_explored,
        ) == expected
        for jobs in (1, 2, 4):
            sharded = check(net, protocol_factory=factory, jobs=jobs)
            assert sharded.complete == serial.complete, jobs
            assert sharded.truncation == serial.truncation, jobs
            assert sharded.counterexamples == serial.counterexamples, jobs
            assert (
                sharded.configurations_checked,
                sharded.states_explored,
                sharded.transitions_explored,
            ) == (
                serial.configurations_checked,
                serial.states_explored,
                serial.transitions_explored,
            ), jobs

    def test_liveness_counterexample_stop_matches_serial(self) -> None:
        self._assert_stop_matches_serial(
            check_cycle_liveness_synchronous, (5, 230)
        )

    def test_convergence_counterexample_stop_matches_serial(self) -> None:
        self._assert_stop_matches_serial(
            check_convergence_synchronous, (16, 257)
        )

    @pytest.mark.parametrize(
        "check", [check_cycle_liveness_synchronous, check_convergence_synchronous]
    )
    def test_jobs_1_is_the_serial_sweep(self, check) -> None:
        # No shards at jobs=1: a protocol instance is accepted (nothing
        # crosses a pickle boundary) and the result is the serial one.
        factory = MUTANT_FACTORIES["mutant-eager-fok"]
        net = line(3)
        serial = check(net, protocol=factory(net, 0))
        again = check(net, protocol=factory(net, 0), jobs=1)
        assert _check_sig(again) == _check_sig(serial)
        assert again.states_explored == serial.states_explored

    @pytest.mark.parametrize(
        "check", [check_cycle_liveness_synchronous, check_convergence_synchronous]
    )
    def test_zero_configuration_cap_matches_serial(self, check) -> None:
        serial = check(line(3), max_configurations=0)
        sharded = check(line(3), max_configurations=0, jobs=2)
        assert _check_sig(sharded) == _check_sig(serial)
        assert sharded.truncation == serial.truncation

    def test_convergence_truncation_fields_match_serial(self) -> None:
        net = line(3)
        kwargs = dict(max_configurations=50, stride=3)
        serial = check_convergence_synchronous(net, **kwargs)
        parallel = check_convergence_synchronous(net, jobs=2, **kwargs)
        assert parallel.complete == serial.complete
        assert parallel.configurations_checked == serial.configurations_checked
