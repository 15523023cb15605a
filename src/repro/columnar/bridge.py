"""The object kernels: guards evaluated per node on object configurations.

:class:`~repro.runtime.simulator.Simulator` drives every engine through
one kernel interface (``load``, ``materialize``, ``enabled_map``,
``execute_selection``, ``apply_updates``, ``rebuild``).  These two
kernels implement it over the protocol's ordinary object path:

* :class:`ObjectBridgeKernel` is ``engine="incremental"``: after a step
  it re-evaluates guards only on the 1-hop neighborhood of the nodes
  the step rewrote.  The columnar engine also falls back to it for
  protocols that do not implement
  :meth:`~repro.runtime.protocol.Protocol.compile_columnar`.
* :class:`FullRecomputeKernel` is ``engine="full"``: every guard at
  every node after every step, the reference the lockstep validator
  and the engine benchmarks compare against.

The enabled map is handed out as is, without a copy: it is rebuilt,
never mutated, so a caller may keep it until the next write.
"""

from __future__ import annotations

from typing import Mapping

from repro.runtime.network import Network
from repro.runtime.protocol import Action, Protocol
from repro.runtime.state import Configuration, NodeState

__all__ = ["FullRecomputeKernel", "ObjectBridgeKernel"]


class ObjectBridgeKernel:
    """Kernel interface over the per-node object path, with dirty repair."""

    #: ``materialize`` is free: the configuration *is* the state.
    lazy_objects = False
    #: The object path is its own reference; nothing to re-execute.
    validates_successor = False

    def __init__(self, protocol: Protocol, network: Network) -> None:
        self.protocol = protocol
        self.network = network
        self._config: Configuration | None = None
        self._entries: dict[int, list[Action]] = {}
        self._cache: dict = {}

    def load(self, configuration: Configuration) -> None:
        self._config = configuration
        self._cache = {}
        self._entries = self.protocol.enabled_map(
            configuration, self.network, cache=self._cache
        )

    def rebuild(self, network: Network, configuration: Configuration) -> None:
        """Swap the topology; repair on the nodes whose links changed.

        Only those nodes can be re-domained by the simulator, so they
        are the whole dirty set.
        """
        dirty = set(self.network.changed_nodes(network))
        self.network = network
        self._config = configuration
        if dirty:
            self._refresh(dirty)

    def materialize(self) -> Configuration:
        assert self._config is not None, "kernel used before load()"
        return self._config

    def enabled_map(self) -> dict[int, list[Action]]:
        return self._entries

    def execute_selection(self, selection: Mapping[int, Action]) -> set[int]:
        # Statements read the configuration the enabled map was
        # evaluated on, so they share its evaluation cache.
        after, dirty = self.protocol.execute_selection(
            self._config, self.network, selection, cache=self._cache
        )
        self._config = after
        if dirty:
            self._refresh(dirty)
        return dirty

    def apply_updates(self, updates: Mapping[int, NodeState]) -> set[int]:
        config = self.materialize()
        effective = {
            p: state for p, state in updates.items() if state != config[p]
        }
        if not effective:
            return set()
        self._config = config.replace(effective)
        dirty = set(effective)
        self._refresh(dirty)
        return dirty

    def _refresh(self, dirty: set[int]) -> None:
        cache: dict = {}
        self._entries = self.protocol.enabled_map_incremental(
            self._entries, self._config, self.network, dirty, cache=cache
        )
        self._cache = cache


class FullRecomputeKernel(ObjectBridgeKernel):
    """The object kernel that re-evaluates every guard after every write."""

    def _refresh(self, dirty: set[int]) -> None:
        self._cache = {}
        self._entries = self.protocol.enabled_map(
            self._config, self.network, cache=self._cache
        )
