"""MessageSimulator semantics: views, delivery, idle steps, faults."""

from __future__ import annotations

from random import Random

import pytest

from repro.chaos import RemoveLink
from repro.core.monitor import PifCycleMonitor
from repro.core.pif import SnapPif
from repro.errors import (
    MessagingError,
    ProtocolError,
    ScheduleError,
    SimulationLimitError,
)
from repro.graphs import line, ring, star
from repro.messaging import LocalView, MessageSimulator
from repro.runtime.daemons import CentralDaemon, SynchronousDaemon
from repro.runtime.simulator import Simulator


def make_sim(net=None, daemon=None, **kwargs) -> MessageSimulator:
    net = net if net is not None else ring(5)
    return MessageSimulator(
        SnapPif.for_network(net),
        net,
        daemon if daemon is not None else SynchronousDaemon(),
        **kwargs,
    )


class TestLocalView:
    def test_reads_own_and_neighbor_copies(self) -> None:
        view = LocalView(0, {0: "me", 1: "you"})
        assert view[0] == "me"
        assert view[1] == "you"

    def test_off_view_read_is_a_protocol_error(self) -> None:
        view = LocalView(0, {0: "me"})
        with pytest.raises(ProtocolError, match="without a link-local copy"):
            view[2]


class TestStepMachinery:
    def test_waves_complete_over_links(self) -> None:
        net = ring(5)
        monitor = PifCycleMonitor(SnapPif.for_network(net), net)
        sim = make_sim(net, monitors=[monitor])
        result = sim.run(max_steps=80)
        assert sim.counters["sent"] > 0
        assert sim.counters["delivered"] > 0
        assert result.steps > 0
        assert sim.action_counts.get("C-action", 0) > 0
        # Reliable delivery: every monitored cycle meets [PIF1]/[PIF2].
        assert len(monitor.completed_cycles) >= 3
        assert monitor.all_cycles_ok()

    def test_fresh_links_start_consistent(self) -> None:
        sim = make_sim()
        config = sim.configuration
        for p in sim.network.nodes:
            view = sim.view(p)
            assert set(view) == {p, *sim.network.neighbors(p)}
            for q, copy in view.items():
                assert copy == config[q]

    def test_duplicate_is_discarded_as_stale(self) -> None:
        sim = make_sim(line(3))
        sim.step()  # root broadcasts, publications go out
        assert sim.in_flight() > 0
        u, v = next(
            link for link in sorted(sim.channels) if sim.channels[link].buffer
        )
        sim.duplicate_messages(u, v, 1, Random(0))
        sim.step()  # original delivered and applied
        sim.step()  # the copy arrives a step later: same version, stale
        assert sim.counters["stale_discarded"] >= 1
        assert sim.counters["duplicated"] == 1

    def test_idle_steps_while_suppressed_with_messages_in_flight(self) -> None:
        sim = make_sim(line(3))
        sim.delay_link(0, 1, delay=5, duration=10)
        sim.step()  # root's publication now sits delayed on (0, 1)
        sim.suppress(sim.network.nodes)
        record = sim.step()
        assert record is not None
        assert record.selection == {}
        assert sim.counters["idle_steps"] == 1
        sim.release()
        assert sim.suppressed == frozenset()

    def test_terminal_requires_quiet_network(self) -> None:
        sim = make_sim()
        sim.run(max_steps=6)
        # Mid-wave the network is busy, so not terminal even if some
        # instant had no enabled node.
        if sim.in_flight() > 0:
            assert not sim.is_terminal()

    def test_engine_validation_passes_on_a_full_run(self) -> None:
        sim = make_sim(validate_engine=True)
        sim.run(max_steps=60)
        assert sim.steps > 0

    def test_budget_raises_when_asked(self) -> None:
        sim = make_sim()
        with pytest.raises(SimulationLimitError, match="after 3 steps"):
            sim.run(max_steps=3, raise_on_limit=True)
        assert sim.steps == 3

    def test_columnar_engine_maps_to_incremental(self) -> None:
        sim = make_sim(engine="columnar")
        assert sim.engine == "incremental"
        with pytest.raises(ScheduleError):
            make_sim(engine="warp")


class TestCrashAndSuppress:
    def test_crashed_node_stops_acting_and_publishing(self) -> None:
        sim = make_sim(star(5))
        initial = sim.configuration[1]
        sim.crash([1])
        sim.run(max_steps=40)
        assert 1 in sim.crashed
        # Node 1 never acted, so its registers (and every neighbor's
        # copy of them) froze at the pre-crash state.
        assert sim.configuration[1] == initial
        assert sim.view(0)[1] == initial
        assert sim.action_counts.get("B-action", 0) >= 1
        sim.recover()
        assert sim.crashed == frozenset()
        sim.run(max_steps=120)
        # With node 1 back, full-count feedback completes again.
        assert sim.action_counts.get("C-action", 0) > 0

    def test_unknown_nodes_rejected(self) -> None:
        sim = make_sim()
        with pytest.raises(ScheduleError):
            sim.crash([99])
        with pytest.raises(ScheduleError):
            sim.suppress([99])

    def test_suppressed_node_keeps_registers_visible(self) -> None:
        sim = make_sim(line(3))
        sim.suppress([2])
        sim.run(max_steps=30)
        # Node 2 never moves, but its state is still in neighbors' views.
        assert 2 in sim.view(1)

    def test_shared_simulator_suppress_mirrors(self) -> None:
        net = line(4)
        sim = Simulator(
            SnapPif.for_network(net), net, SynchronousDaemon(), seed=0
        )
        assert sim.suppress([1]) == frozenset({1})
        assert sim.suppressed == frozenset({1})
        sim.step()
        assert sim.release() == frozenset({1})
        with pytest.raises(ScheduleError):
            sim.suppress([42])


class TestTopologyAndLinks:
    def test_remove_link_churns_channels(self) -> None:
        net = ring(5)
        sim = make_sim(net)
        n_channels = len(sim.channels)
        resolved, _ = RemoveLink(at_step=0, seed=7).apply(sim)
        assert resolved is not None
        assert len(sim.channels) == n_channels - 2
        assert (resolved.u, resolved.v) not in sim.channels
        assert (resolved.v, resolved.u) not in sim.channels
        with pytest.raises(MessagingError):
            sim.channel(resolved.u, resolved.v)

    def test_channel_lookup_requires_an_edge(self) -> None:
        sim = make_sim(line(4))
        with pytest.raises(MessagingError, match="not an edge"):
            sim.channel(0, 3)

    def test_delay_link_validates(self) -> None:
        sim = make_sim(line(3))
        with pytest.raises(MessagingError):
            sim.delay_link(0, 1, delay=0, duration=5)
        with pytest.raises(MessagingError):
            sim.delay_link(0, 1, delay=2, duration=0)


class TestLossAndHeartbeat:
    def test_ambient_loss_is_healed_by_heartbeat(self) -> None:
        sim = make_sim(
            ring(6),
            daemon=CentralDaemon(choice="random"),
            seed=3,
            loss_rate=0.2,
            heartbeat=2,
        )
        sim.run(max_steps=300)
        assert sim.counters["dropped_loss"] > 0
        assert sim.counters["heartbeats"] > 0
        # Liveness: waves still complete despite 20% publication loss.
        assert sim.action_counts.get("C-action", 0) > 0

    def test_capacity_one_still_converges(self) -> None:
        sim = make_sim(line(4), capacity=1)
        sim.run(max_steps=80)
        assert sim.action_counts.get("C-action", 0) > 0
