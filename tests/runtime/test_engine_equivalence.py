"""Tier-1 guard: the incremental enabled-set engine equals full recompute.

The cheap, always-on counterpart of the randomized sweep in
:mod:`tests.properties.test_property_engine`: one small ring driven in
lockstep cross-validation mode (every incremental update checked against
a from-scratch ``enabled_map``), plus fixed-seed run-result identity for
all four protocols, so an engine regression fails fast without the full
bench suite.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

import pytest

from repro.core.pif import SnapPif
from repro.graphs import ring
from repro.protocols import SelfStabPif, SpanningTree, TreePif
from repro.runtime.daemons import CentralDaemon, DistributedRandomDaemon
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Protocol
from repro.runtime.simulator import Simulator
from repro.runtime.state import NodeState

from tests.runtime.toys import IntState


def bfs_parents(net: Network, root: int = 0) -> dict[int, int | None]:
    levels = net.bfs_levels(root)
    parents: dict[int, int | None] = {root: None}
    for p in net.nodes:
        if p != root:
            parents[p] = next(
                q for q in net.neighbors(p) if levels[q] == levels[p] - 1
            )
    return parents


def make_protocol(kind: str, net: Network) -> Protocol:
    if kind == "snap-pif":
        return SnapPif.for_network(net)
    if kind == "self-stab-pif":
        return SelfStabPif(0, net.n)
    if kind == "tree-pif":
        return TreePif(0, bfs_parents(net))
    if kind == "spanning-tree":
        return SpanningTree(0, net.n)
    raise AssertionError(kind)


PROTOCOL_KINDS = ["snap-pif", "self-stab-pif", "tree-pif", "spanning-tree"]


class TestLockstepValidation:
    def test_small_ring_incremental_matches_full_every_step(self) -> None:
        """The tier-1 smoke: 80 validated steps on ring(6) from a fault."""
        net = ring(6)
        protocol = SnapPif.for_network(net)
        config = protocol.random_configuration(net, Random(11))
        sim = Simulator(
            protocol,
            net,
            CentralDaemon(choice="random"),
            configuration=config,
            seed=3,
            engine="incremental",
            validate_engine=True,  # raises VerificationError on divergence
        )
        for _ in range(80):
            if sim.step() is None:
                break
        full = protocol.enabled_map(sim.configuration, net)
        assert full == sim._enabled
        assert list(full) == list(sim._enabled)

    def test_validation_covers_reset_configuration_faults(self) -> None:
        net = ring(6)
        protocol = SnapPif.for_network(net)
        sim = Simulator(
            protocol,
            net,
            CentralDaemon(choice="random"),
            seed=5,
            validate_engine=True,
        )
        rng = Random(99)
        for step in range(60):
            if step % 20 == 10:
                sim.reset_configuration(
                    protocol.random_configuration(net, rng)
                )
            if sim.step() is None:
                break
        assert protocol.enabled_map(sim.configuration, net) == sim._enabled


class TestRunResultIdentity:
    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    def test_fixed_seed_runs_identical_across_engines(self, kind: str) -> None:
        net = ring(8)
        results = {}
        for engine in ("full", "incremental"):
            protocol = make_protocol(kind, net)
            config = protocol.random_configuration(net, Random(7))
            sim = Simulator(
                protocol,
                net,
                DistributedRandomDaemon(0.4),
                configuration=config,
                seed=13,
                trace_level="selections",
                engine=engine,
            )
            results[engine] = sim.run(max_steps=120)
        full, inc = results["full"], results["incremental"]
        # The wave protocols never terminate; the silent spanning tree
        # still moves.
        assert inc.steps == 120 if kind != "spanning-tree" else inc.steps > 0
        assert full.steps == inc.steps
        assert full.rounds == inc.rounds
        assert full.moves == inc.moves
        assert full.action_counts == inc.action_counts
        assert full.final == inc.final
        assert full.trace.schedule() == inc.trace.schedule()


class _NoopProtocol(Protocol):
    """Always enabled, never changes state — all writes are no-ops."""

    name = "noop"

    def actions(self, node: int, network: Network) -> Sequence[Action]:
        return (
            Action("noop", lambda ctx: True, lambda ctx: ctx.state),
        )

    def initial_state(self, node: int, network: Network) -> NodeState:
        return IntState(0)


class TestNoOpWrites:
    def test_noop_step_keeps_configuration_and_enabled_map(self) -> None:
        net = ring(4)
        sim = Simulator(_NoopProtocol(), net, seed=0)
        before = sim.configuration
        enabled_before = sim._enabled
        record = sim.step()
        assert record is not None
        # The write changed nothing: the dirty set is empty, so the very
        # same configuration object and enabled map are kept.
        assert sim.configuration is before
        assert sim._enabled is enabled_before
        assert sim.steps == 1
        assert sim.moves == net.n


class TestEngineSelection:
    def test_unknown_engine_rejected(self, monkeypatch) -> None:
        from repro.errors import ScheduleError
        from repro.messaging import MessageSimulator

        expected = (
            "engine must be one of ['incremental', 'full', 'columnar'], "
            "got 'psychic' ({})"
        )
        # Both simulators share one resolver: same bad value, same
        # message, naming where the value came from.
        for cls in (Simulator, MessageSimulator):
            with pytest.raises(ScheduleError) as excinfo:
                cls(_NoopProtocol(), ring(4), engine="psychic")
            assert str(excinfo.value) == expected.format("argument")
            with monkeypatch.context() as m:
                m.setenv("REPRO_ENGINE", "psychic")
                with pytest.raises(ScheduleError) as excinfo:
                    cls(_NoopProtocol(), ring(4))
            assert str(excinfo.value) == expected.format(
                "environment variable REPRO_ENGINE"
            )

    def test_env_override(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_ENGINE", "full")
        sim = Simulator(_NoopProtocol(), ring(4))
        assert sim.engine == "full"
        monkeypatch.setenv("REPRO_ENGINE_VALIDATE", "1")
        sim = Simulator(_NoopProtocol(), ring(4))
        assert sim.validate_engine
