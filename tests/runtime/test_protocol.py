"""Unit tests for :mod:`repro.runtime.protocol`."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Context
from repro.runtime.state import Configuration

from tests.runtime.toys import IntState, MaxProtocol


@pytest.fixture
def net() -> Network:
    return Network({0: [1], 1: [0, 2], 2: [1]})


@pytest.fixture
def protocol() -> MaxProtocol:
    return MaxProtocol()


class TestContext:
    def test_reads_own_state(self, net: Network) -> None:
        cfg = Configuration((IntState(5), IntState(1), IntState(2)))
        ctx = Context(0, net, cfg)
        assert ctx.state == IntState(5)

    def test_reads_neighbor_state(self, net: Network) -> None:
        cfg = Configuration((IntState(5), IntState(1), IntState(2)))
        ctx = Context(0, net, cfg)
        assert ctx.neighbor_state(1) == IntState(1)

    def test_cannot_read_non_neighbor(self, net: Network) -> None:
        cfg = Configuration((IntState(5), IntState(1), IntState(2)))
        ctx = Context(0, net, cfg)
        with pytest.raises(ProtocolError, match="non-neighbor"):
            ctx.neighbor_state(2)

    def test_neighbor_states_follow_local_order(self, net: Network) -> None:
        cfg = Configuration((IntState(5), IntState(1), IntState(2)))
        ctx = Context(1, net, cfg)
        assert [(q, s.value) for q, s in ctx.neighbor_states()] == [
            (0, 5),
            (2, 2),
        ]


class TestAction:
    def test_execute_checks_guard(self, net: Network) -> None:
        action = Action("noop", lambda ctx: False, lambda ctx: ctx.state)
        ctx = Context(0, net, Configuration((IntState(0),) * 3))
        with pytest.raises(ProtocolError, match="guard is false"):
            action.execute(ctx)

    def test_execute_returns_new_state(self, net: Network) -> None:
        action = Action("set9", lambda ctx: True, lambda ctx: IntState(9))
        ctx = Context(0, net, Configuration((IntState(0),) * 3))
        assert action.execute(ctx) == IntState(9)

    def test_repr(self) -> None:
        action = Action("tick", lambda ctx: True, lambda ctx: ctx.state)
        assert "tick" in repr(action)


class TestProtocolHelpers:
    def test_enabled_map(self, net: Network, protocol: MaxProtocol) -> None:
        cfg = Configuration((IntState(0), IntState(5), IntState(0)))
        enabled = protocol.enabled_map(cfg, net)
        assert set(enabled) == {0, 2}
        assert all(a.name == "raise" for acts in enabled.values() for a in acts)

    def test_enabled_map_empty_on_terminal(
        self, net: Network, protocol: MaxProtocol
    ) -> None:
        cfg = Configuration((IntState(7), IntState(7), IntState(7)))
        assert protocol.enabled_map(cfg, net) == {}

    def test_is_enabled(self, net: Network, protocol: MaxProtocol) -> None:
        cfg = Configuration((IntState(0), IntState(5), IntState(0)))
        assert protocol.is_enabled(cfg, net, 0)
        assert not protocol.is_enabled(cfg, net, 1)

    def test_initial_configuration(
        self, net: Network, protocol: MaxProtocol
    ) -> None:
        cfg = protocol.initial_configuration(net)
        assert [s.value for s in cfg] == [0, 1, 2]  # type: ignore[union-attr]

    def test_random_configuration_deterministic_in_seed(
        self, net: Network, protocol: MaxProtocol
    ) -> None:
        from random import Random

        a = protocol.random_configuration(net, Random(3))
        b = protocol.random_configuration(net, Random(3))
        c = protocol.random_configuration(net, Random(4))
        assert a == b
        assert a != c or True  # different seed may coincide; no assertion

    def test_node_actions_cached(self, net: Network, protocol: MaxProtocol) -> None:
        assert protocol.node_actions(0, net) is protocol.node_actions(0, net)

    def test_random_state_default_not_implemented(self, net: Network) -> None:
        from repro.runtime.protocol import Protocol

        class Bare(Protocol):
            def actions(self, node, network):
                return (Action("a", lambda c: False, lambda c: c.state),)

            def initial_state(self, node, network):
                return IntState(0)

        from random import Random

        with pytest.raises(NotImplementedError):
            Bare().random_state(0, net, Random(0))


class _OrderProbe(MaxProtocol):
    """Actions whose names record the neighbor order they were built from."""

    def actions(self, node, network):
        name = "-".join(str(q) for q in network.neighbors(node))
        return (Action(name, lambda c: False, lambda c: c.state),)


class TestActionCacheKeying:
    def test_distinct_networks_same_size_get_distinct_entries(self) -> None:
        """Same n, different neighbor orders — entries must not be shared."""
        probe = _OrderProbe()
        a = Network({0: [1, 2], 1: [0, 2], 2: [0, 1]})
        b = Network(
            {0: [1, 2], 1: [0, 2], 2: [0, 1]}, neighbor_orders={0: [2, 1]}
        )
        assert probe.node_actions(0, a)[0].name == "1-2"
        assert probe.node_actions(0, b)[0].name == "2-1"
        # And the first network's entry is still intact.
        assert probe.node_actions(0, a)[0].name == "1-2"

    def test_cache_entries_die_with_their_network(self) -> None:
        """Transient networks must not leak cache entries (or, worse,
        leave stale entries a later network with a recycled ``id`` could
        inherit, the failure mode of keying on ``id(network)``)."""
        import gc

        probe = _OrderProbe()
        for _ in range(32):
            net = Network({0: [1], 1: [0]})
            probe.node_actions(0, net)
            del net
        gc.collect()
        assert len(probe._action_cache) == 0

    def test_warm_lookup_does_not_compare_adjacency(self) -> None:
        """A cache hit must cost O(1), not an O(N) adjacency comparison:
        looking a network up must not compare it with itself entry by
        entry."""

        class _NoCompare(tuple):
            def __eq__(self, other):
                raise AssertionError("adjacency compared on a cache hit")

            __hash__ = tuple.__hash__

        probe = _OrderProbe()
        net = Network({0: [1, 2], 1: [0, 2], 2: [0, 1]})
        hash(net)  # cache the hash before swapping the adjacency
        first = probe.node_actions(0, net)
        net._neighbors = _NoCompare(net._neighbors)
        assert probe.node_actions(0, net) is first


class TestIncrementalEnabledMap:
    def _net(self) -> Network:
        # 0-1-2-3-4 line: node 4 is two hops from a change at {0, 1}.
        return Network({0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3]})

    def test_matches_full_recompute_and_order(self) -> None:
        net = self._net()
        protocol = MaxProtocol()
        before = Configuration(tuple(IntState(v) for v in (9, 0, 0, 0, 5)))
        enabled = protocol.enabled_map(before, net)
        after = before.replace({1: IntState(9)})
        incremental = protocol.enabled_map_incremental(
            enabled, after, net, {1}
        )
        full = protocol.enabled_map(after, net)
        assert incremental == full
        assert list(incremental) == list(full)

    def test_nodes_outside_dirty_region_keep_previous_entries(self) -> None:
        net = self._net()
        protocol = MaxProtocol()
        before = Configuration(tuple(IntState(v) for v in (9, 0, 0, 0, 5)))
        enabled = protocol.enabled_map(before, net)
        after = before.replace({1: IntState(9)})
        incremental = protocol.enabled_map_incremental(
            enabled, after, net, {1}
        )
        # Node 3 is outside {1} ∪ N({1}) = {0, 1, 2}: its entry is the
        # carried-over list object, not a re-evaluated one.
        assert incremental[3] is enabled[3]

    def test_empty_dirty_set_is_identity(self) -> None:
        net = self._net()
        protocol = MaxProtocol()
        cfg = Configuration(tuple(IntState(v) for v in (9, 0, 0, 0, 5)))
        enabled = protocol.enabled_map(cfg, net)
        assert protocol.enabled_map_incremental(enabled, cfg, net, set()) == (
            enabled
        )
