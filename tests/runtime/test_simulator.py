"""Unit tests for :mod:`repro.runtime.simulator`."""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.pif import SnapPif
from repro.errors import ScheduleError, SimulationLimitError
from repro.graphs import ring
from repro.messaging import MessageSimulator
from repro.runtime.daemons import CentralDaemon, Daemon, ReplayDaemon, SynchronousDaemon
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.runtime.state import Configuration

from tests.runtime.toys import IntState, MaxProtocol, UnisonProtocol


@pytest.fixture
def net() -> Network:
    return Network({0: [1], 1: [0, 2], 2: [1]})


class TestStepSemantics:
    def test_statements_read_the_old_configuration(self, net: Network) -> None:
        # Synchronous MaxProtocol from [0, 5, 0]: both 0 and 2 raise to 5
        # *simultaneously*, each reading node 1's old value.
        sim = Simulator(
            MaxProtocol(),
            net,
            configuration=Configuration((IntState(0), IntState(5), IntState(0))),
        )
        sim.step()
        assert [s.value for s in sim.configuration] == [5, 5, 5]  # type: ignore[union-attr]

    def test_step_returns_none_on_terminal(self, net: Network) -> None:
        sim = Simulator(
            MaxProtocol(),
            net,
            configuration=Configuration((IntState(3),) * 3),
        )
        assert sim.is_terminal()
        assert sim.step() is None

    def test_counters_accumulate(self, net: Network) -> None:
        sim = Simulator(MaxProtocol(), net)
        result = sim.run()
        assert result.terminated
        assert result.steps == sim.steps
        assert result.moves >= result.steps  # synchronous: >= 1 move/step
        assert result.action_counts.get("raise", 0) == result.moves


class TestRun:
    def test_until_checked_before_first_step(self, net: Network) -> None:
        sim = Simulator(MaxProtocol(), net)
        result = sim.run(until=lambda c: True)
        assert result.satisfied and result.steps == 0

    def test_run_to_termination(self, net: Network) -> None:
        sim = Simulator(MaxProtocol(), net)
        result = sim.run()
        assert result.terminated
        assert [s.value for s in result.final] == [2, 2, 2]  # type: ignore[union-attr]

    def test_max_steps_budget(self, net: Network) -> None:
        sim = Simulator(UnisonProtocol(), net)  # never terminates
        result = sim.run(max_steps=10)
        assert result.stopped_by_limit
        assert result.steps == 10

    def test_max_rounds_budget(self, net: Network) -> None:
        sim = Simulator(UnisonProtocol(), net)
        result = sim.run(max_rounds=5, max_steps=10_000)
        assert result.rounds == 5

    def test_raise_on_limit(self, net: Network) -> None:
        sim = Simulator(UnisonProtocol(), net)
        with pytest.raises(SimulationLimitError):
            sim.run(max_steps=3, raise_on_limit=True)

    def test_seed_reproducibility(self, net: Network) -> None:
        def run(seed: int) -> list[dict[int, str]]:
            sim = Simulator(
                UnisonProtocol(),
                net,
                CentralDaemon(),
                seed=seed,
                trace_level="selections",
            )
            sim.run(max_steps=30)
            return sim.trace.schedule()

        assert run(7) == run(7)


class TestRounds:
    def test_synchronous_rounds_equal_steps(self, net: Network) -> None:
        sim = Simulator(UnisonProtocol(), net, SynchronousDaemon())
        sim.run(max_steps=12)
        assert sim.rounds == 12

    def test_central_rounds_slower_than_steps(self, net: Network) -> None:
        sim = Simulator(UnisonProtocol(), net, CentralDaemon(choice="oldest"))
        sim.run(max_steps=30)
        assert sim.rounds < sim.steps


class TestMonitors:
    def test_monitor_sees_every_step(self, net: Network) -> None:
        calls: list[int] = []

        class Spy:
            def on_start(self, configuration) -> None:
                calls.append(-1)

            def on_step(self, before, record, after) -> None:
                calls.append(record.index)
                assert before != after or record.selection

        sim = Simulator(MaxProtocol(), net, monitors=[Spy()])
        result = sim.run()
        assert calls == [-1] + list(range(result.steps))

    def test_add_monitor_midway(self, net: Network) -> None:
        sim = Simulator(UnisonProtocol(), net)
        sim.step()
        seen = []

        class Spy:
            def on_start(self, configuration) -> None:
                seen.append("start")

            def on_step(self, before, record, after) -> None:
                seen.append(record.index)

        sim.add_monitor(Spy())
        sim.step()
        assert seen == ["start", 1]


class TestReplay:
    def test_replay_reproduces_final_configuration(self, net: Network) -> None:
        sim = Simulator(
            UnisonProtocol(), net, CentralDaemon(), seed=3, trace_level="selections"
        )
        sim.run(max_steps=25)
        final_first = sim.configuration

        replay = Simulator(
            UnisonProtocol(), net, ReplayDaemon(sim.trace.schedule())
        )
        replay.run(max_steps=25)
        assert replay.configuration == final_first


class TestValidation:
    def test_daemon_selecting_disabled_node_rejected(self, net: Network) -> None:
        class Rogue(Daemon):
            name = "rogue"

            def select(self, enabled, *, network, step, ages, rng):
                # Pick a node that is definitely not enabled.
                disabled = next(
                    p for p in network.nodes if p not in enabled
                )
                some = next(iter(enabled.values()))[0]
                return {disabled: some}

        sim = Simulator(
            MaxProtocol(),
            net,
            Rogue(),
            configuration=Configuration((IntState(0), IntState(5), IntState(5))),
        )
        with pytest.raises(ScheduleError, match="disabled processor"):
            sim.step()

    def test_daemon_empty_selection_rejected(self, net: Network) -> None:
        class Lazy(Daemon):
            name = "lazy"

            def select(self, enabled, *, network, step, ages, rng):
                return {}

        sim = Simulator(UnisonProtocol(), net, Lazy())
        with pytest.raises(ScheduleError, match="empty selection"):
            sim.step()


ENGINES = ("incremental", "full", "columnar")


@pytest.mark.parametrize(
    "make",
    [partial(Simulator, engine=engine) for engine in ENGINES] + [MessageSimulator],
    ids=[*ENGINES, "message"],
)
def test_configuration_of_the_wrong_size_is_rejected(make) -> None:
    net = ring(6)
    eight = SnapPif.for_network(ring(8)).initial_configuration(ring(8))
    with pytest.raises(ScheduleError, match="8 states for a 6-processor network"):
        make(SnapPif.for_network(net), net, configuration=eight)
