"""Tests for the exhaustive model checker — including the headline result:

on 3-processor networks, **every** initiated wave from **every**
initiation configuration under **every** daemon choice satisfies PIF1
and PIF2 (exhaustive snap-safety), and the ablated protocol (without the
``Leaf`` joining guard) is caught violating it.
"""

from __future__ import annotations

import pytest

from repro.core.pif import SnapPif
from repro.core.state import Phase, PifConstants
from repro.errors import VerificationError
from repro.graphs import complete, line
from repro.verification import (
    check_convergence_synchronous,
    check_cycle_liveness_synchronous,
    check_normal_closure,
    check_snap_safety,
    enumerate_initiation_configurations,
    node_state_domain,
)

from tests.mutants.protocols import EagerFokPif


class TestEnumeration:
    def test_node_state_domain_sizes(self) -> None:
        net = line(3)
        k = PifConstants.for_network(net)
        # Root: 3 phases x 3 counts x 2 fok.
        assert len(node_state_domain(net, k, 0)) == 18
        # Middle node: 3 phases x 2 parents x 2 levels x 3 counts x 2 fok.
        assert len(node_state_domain(net, k, 1)) == 72

    def test_initiation_configs_have_clean_root_neighborhood(self) -> None:
        net = line(3)
        k = PifConstants.for_network(net)
        count = 0
        for config in enumerate_initiation_configurations(net, k):
            count += 1
            assert config[0].pif is Phase.C  # type: ignore[union-attr]
            assert config[1].pif is Phase.C  # type: ignore[union-attr]
            if count > 50:
                break
        assert count > 50


class TestSnapSafetyExhaustive:
    def test_line3_fully_verified(self) -> None:
        result = check_snap_safety(line(3))
        assert result.ok
        assert result.complete
        assert result.configurations_checked == 5184  # 6 x 24 x 36
        result.raise_on_failure()  # must not raise

    def test_triangle_fully_verified(self) -> None:
        result = check_snap_safety(complete(3))
        assert result.ok and result.complete

    def test_budget_reporting(self) -> None:
        result = check_snap_safety(line(3), max_configurations=10)
        assert result.configurations_checked == 10
        assert not result.complete
        assert result.truncation == "max_configurations=10 reached"

    def test_max_states_terminates_whole_enumeration(self, monkeypatch) -> None:
        """Exhausting ``max_states`` must stop the *entire* enumeration,
        not just the inner DFS: no further initiation configuration may
        be pulled from the generator once the budget is spent."""
        import repro.verification.model_check as mc

        pulled = {"configs": 0}
        original = mc.enumerate_initiation_configurations

        def counting(network, k):
            for config in original(network, k):
                pulled["configs"] += 1
                yield config

        monkeypatch.setattr(
            mc, "enumerate_initiation_configurations", counting
        )
        result = mc.check_snap_safety(line(3), max_states=5)
        assert not result.complete
        assert result.truncation is not None
        assert "max_states=5 exhausted" in result.truncation
        assert "enumeration terminated" in result.truncation
        assert result.states_explored >= 5
        # The first initiation configuration alone explores dozens of
        # states; the budget guard must have cut the sweep off before a
        # second one was even requested (+1 for the generator look-ahead).
        assert pulled["configs"] <= result.configurations_checked + 1
        assert result.configurations_checked <= 2

    def test_max_states_identical_across_engines(self) -> None:
        capped_on = check_snap_safety(line(3), max_states=50, memo=True)
        capped_off = check_snap_safety(line(3), max_states=50, memo=False)
        assert capped_on.truncation == capped_off.truncation
        assert capped_on.states_explored == capped_off.states_explored
        assert (
            capped_on.configurations_checked
            == capped_off.configurations_checked
        )

    def test_stats_attached_and_consistent(self) -> None:
        result = check_snap_safety(line(3), max_configurations=50)
        stats = result.stats
        assert stats is not None
        assert stats.memo_enabled
        assert stats.elapsed_seconds > 0
        assert stats.states_per_second > 0
        assert stats.view_hits + stats.view_misses > 0
        assert 0.0 < stats.view_hit_rate < 1.0
        assert stats.interned_configurations > 0
        # Compact parent table: bounded by the states actually explored.
        assert 0 < stats.peak_parent_entries <= result.states_explored + 1

    def test_memo_env_toggle_disables_engine(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_MODELCHECK_MEMO", "0")
        result = check_snap_safety(line(3), max_configurations=20)
        assert result.stats is not None
        assert not result.stats.memo_enabled
        monkeypatch.setenv("REPRO_MODELCHECK_MEMO", "1")
        result = check_snap_safety(line(3), max_configurations=20)
        assert result.stats is not None
        assert result.stats.memo_enabled

    def test_validate_memo_cross_checks_clean(self) -> None:
        result = check_snap_safety(
            line(3), max_configurations=40, validate_memo=True
        )
        assert result.ok

    def test_raise_on_failure_raises_with_counterexample(self) -> None:
        from repro.verification.model_check import (
            Counterexample,
            ModelCheckResult,
        )
        from repro.runtime.state import Configuration

        result = ModelCheckResult(property_name="demo")
        result.counterexamples.append(
            Counterexample(Configuration(()), (((0, "B-action"),),), "boom")
        )
        with pytest.raises(VerificationError, match="boom"):
            result.raise_on_failure()


class TestAblationIsCaught:
    def test_leaf_guard_ablation_breaks_snap_safety(self) -> None:
        """Without the Leaf guard a processor with a stale child joins
        the wave; the stale child's count then feeds the root's total and
        the cycle can complete without the stale subtree receiving m."""
        net = line(3)
        protocol = SnapPif.for_network(net, leaf_guard=False)
        result = check_snap_safety(net, protocol=protocol, stop_at_first=True)
        assert not result.ok
        assert result.counterexamples
        ce = result.counterexamples[0]
        assert "[PIF" in ce.message or "demoted" in ce.message
        assert ce.pretty()  # renders without crashing


class TestCounterexampleReplay:
    @pytest.fixture()
    def ablated(self):
        net = line(3)
        protocol = SnapPif.for_network(net, leaf_guard=False)
        result = check_snap_safety(
            net,
            protocol=protocol,
            stop_at_first=True,
            replay_counterexamples=False,
        )
        assert result.counterexamples
        return net, protocol, result.counterexamples[0]

    def test_round_trip_reproduces_violation(self, ablated) -> None:
        """Every emitted counterexample executes for real: the schedule
        runs through the Simulator with a scripted daemon and the replay
        reproduces the recorded violation verbatim."""
        from repro.verification import replay_counterexample

        net, protocol, ce = ablated
        message = replay_counterexample(net, ce, protocol=protocol)
        assert message == ce.message

    def test_checker_replays_by_default(self) -> None:
        net = line(3)
        protocol = SnapPif.for_network(net, leaf_guard=False)
        # replay_counterexamples defaults to True: emission would raise
        # VerificationError if any counterexample failed to reproduce.
        result = check_snap_safety(net, protocol=protocol, stop_at_first=False)
        assert result.counterexamples

    def test_tampered_schedule_is_rejected(self, ablated) -> None:
        from repro.verification import Counterexample, replay_counterexample

        net, protocol, ce = ablated
        truncated = Counterexample(ce.initial, ce.schedule[:-1], ce.message)
        with pytest.raises(VerificationError):
            replay_counterexample(net, truncated, protocol=protocol)

    def test_tampered_message_is_rejected(self, ablated) -> None:
        from repro.verification import Counterexample, replay_counterexample

        net, protocol, ce = ablated
        wrong = Counterexample(ce.initial, ce.schedule, "some other violation")
        with pytest.raises(VerificationError, match="did not reproduce"):
            replay_counterexample(net, wrong, protocol=protocol)

    def test_empty_schedule_is_rejected(self, ablated) -> None:
        from repro.verification import Counterexample, replay_counterexample

        net, protocol, ce = ablated
        empty = Counterexample(ce.initial, (), ce.message)
        with pytest.raises(VerificationError, match="empty schedule"):
            replay_counterexample(net, empty, protocol=protocol)


class TestLivenessSynchronous:
    def test_line3_all_initiated_waves_complete(self) -> None:
        result = check_cycle_liveness_synchronous(line(3))
        assert result.ok and result.complete

    def test_budget_cap(self) -> None:
        result = check_cycle_liveness_synchronous(
            line(3), max_configurations=25
        )
        assert result.configurations_checked == 25
        assert not result.complete


class TestRunSynchronousMatchesSimulator:
    def test_every_initiation_configuration_of_line3(self) -> None:
        """The checkers' synchronous loop over direct evaluation is the
        Simulator under the synchronous daemon: same final
        configuration, one round per step, same cycle reports."""
        from repro.analysis import bounds
        from repro.core.monitor import PifCycleMonitor
        from repro.runtime.daemons import SynchronousDaemon
        from repro.runtime.simulator import Simulator
        from repro.verification.model_check import (
            DirectEvaluator,
            run_synchronous,
        )

        net = line(3)
        protocol = SnapPif.for_network(net)
        k = protocol.constants
        budget = bounds.glt_bound(k.l_max) + bounds.cycle_bound(k.l_max) + 8
        evaluator = DirectEvaluator(protocol, net)
        checked = 0
        for config in enumerate_initiation_configurations(net, k):
            ours = PifCycleMonitor(protocol, net)
            final, steps = run_synchronous(
                evaluator,
                config,
                max_steps=budget,
                monitor=ours,
                stop=lambda _c: len(ours.completed_cycles) >= 1,
            )
            theirs = PifCycleMonitor(protocol, net)
            run = Simulator(
                protocol,
                net,
                SynchronousDaemon(),
                configuration=config,
                monitors=[theirs],
            ).run(
                until=lambda _c: len(theirs.completed_cycles) >= 1,
                max_steps=budget,
            )
            assert final == run.final
            assert steps == run.steps == run.rounds
            assert ours.completed_cycles == theirs.completed_cycles
            checked += 1
        assert checked == 5184


class TestEarlyStops:
    """A sweep that stops at its counterexample limit has not covered
    the enumeration: it reports ``complete=False`` and says why."""

    @pytest.mark.parametrize(
        "check, limit",
        [
            (check_snap_safety, 1),
            (check_normal_closure, 5),
            (check_cycle_liveness_synchronous, 5),
            (check_convergence_synchronous, 5),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    @pytest.mark.parametrize("memo", [True, False])
    def test_counterexample_stop_is_incomplete(self, check, limit, memo):
        net = line(3)
        protocol = EagerFokPif(PifConstants.for_network(net))
        result = check(net, protocol=protocol, memo=memo)
        assert len(result.counterexamples) >= limit
        assert not result.complete
        expected = "counterexample" + ("s" if limit > 1 else "")
        assert result.truncation == f"stopped after {limit} {expected}"

    def test_snap_safety_without_stop_at_first_has_no_limit(self) -> None:
        net = line(3)
        protocol = EagerFokPif(PifConstants.for_network(net))
        result = check_snap_safety(
            net, protocol=protocol, stop_at_first=False, max_configurations=3
        )
        assert len(result.counterexamples) > 5
        assert result.truncation == "max_configurations=3 reached"


class TestWaveTagAgreesWithMonitor:
    def test_tag_and_monitor_agree_on_random_runs(self) -> None:
        """The checker's pure WaveTag transition must match the online
        PifCycleMonitor on real executions."""
        from random import Random

        from repro.core.monitor import PifCycleMonitor
        from repro.runtime.daemons import DistributedRandomDaemon
        from repro.runtime.simulator import Simulator
        from repro.verification.model_check import WaveTag

        net = line(4)
        protocol = SnapPif.for_network(net)
        for seed in range(5):
            config = protocol.random_configuration(net, Random(seed))
            monitor = PifCycleMonitor(protocol, net)
            sim = Simulator(
                protocol,
                net,
                DistributedRandomDaemon(0.6),
                configuration=config,
                seed=seed,
                monitors=[monitor],
                trace_level="configurations",
            )
            sim.run(
                until=lambda _c: len(monitor.completed_cycles) >= 1,
                max_steps=20_000,
            )
            if not monitor.completed_cycles:
                continue
            report = monitor.completed_cycles[0]

            # Replay the trace through WaveTag.
            configs = sim.trace.configurations()
            tag: WaveTag | None = None
            finished = False
            for record in sim.trace:
                before = configs[record.index]
                selection = {
                    p: next(
                        a
                        for a in protocol.node_actions(p, net)
                        if a.name == name
                    )
                    for p, name in record.selection.items()
                }
                if tag is None:
                    if record.selection.get(0) == "B-action" and not finished:
                        tag = WaveTag(frozenset({0}), frozenset(), False)
                        rest = {
                            p: a for p, a in selection.items() if p != 0
                        }
                        if rest:
                            tag, violation = tag.advance(
                                protocol, net, before, rest
                            )
                            assert violation is None
                    continue
                tag, violation = tag.advance(protocol, net, before, selection)
                assert violation is None, violation
                if tag is None:
                    finished = True
                    break
            assert finished
            assert report.ok


class TestWaveTagStepOrder:
    @pytest.mark.parametrize("root", [0, 2])
    def test_root_feedback_reads_pre_step_acks(self, root: int) -> None:
        """A leaf's F-action in the root's feedback step does not count
        toward the root's [PIF2] check, whichever end of the line is
        the root."""
        from random import Random

        from repro.verification.model_check import WaveTag

        net = line(3)
        protocol = SnapPif.for_network(net, root)
        leaf = 2 - root
        f_action = {
            p: next(
                a for a in protocol.node_actions(p, net) if a.name == "F-action"
            )
            for p in (leaf, root)
        }
        tag = WaveTag(frozenset({0, 1, 2}), frozenset({1}), False)
        before = protocol.random_configuration(net, Random(0))
        new_tag, violation = tag.advance(protocol, net, before, f_action)
        assert new_tag is tag
        assert violation == "[PIF2] root fed back with only 1/2 acknowledgments"
