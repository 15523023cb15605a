"""The object kernels: guards evaluated per node on object configurations.

:class:`~repro.runtime.simulator.Simulator` drives every engine through
one kernel interface (``load``, ``materialize``, ``enabled_map``,
``take_changes``, ``execute_selection``, ``apply_updates``,
``rebuild``).  These two kernels implement it over the protocol's
ordinary object path:

* :class:`ObjectBridgeKernel` is ``engine="incremental"``: after a step
  it re-evaluates guards only on the 1-hop neighborhood of the nodes
  the step rewrote.  The columnar engine also falls back to it for
  protocols that do not implement
  :meth:`~repro.runtime.protocol.Protocol.compile_columnar`.
* :class:`FullRecomputeKernel` is ``engine="full"``: every guard at
  every node after every step, the reference the lockstep validator
  and the engine benchmarks compare against.

Each repair re-evaluates the guards of ``dirty ∪ N(dirty)``, compares
the new entries with the old ones there and reports the ones that
changed through ``take_changes``; ``enabled_map`` assembles the whole
ascending map only when asked (load, rebuild, tests).
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
        #: ``{node: enabled actions}`` of the enabled nodes.
        self._entries: dict[int, list[Action]] = {}
        self._cache: dict = {}
        #: Entries changed since the last report.
        self._changes: dict[int, list[Action] | None] = {}

    def load(self, configuration: Configuration) -> None:
        self._config = configuration
        self._cache = {}
        self._entries = self.protocol.enabled_map(
            configuration, self.network, cache=self._cache
        )

    def rebuild(self, network: Network, configuration: Configuration) -> None:
        """Swap the topology and re-evaluate every guard.

        Guard values can change only at the nodes whose links changed,
        but every node's program is the new network's
        (:meth:`Protocol.node_actions` is per network), so no entry of
        the old map is carried over — like a recompile.
        """
        self.network = network
        self.load(configuration)

    def materialize(self) -> Configuration:
        assert self._config is not None, "kernel used before load()"
        return self._config

    def enabled_map(self) -> dict[int, list[Action]]:
        entries = self._entries
        return {p: entries[p] for p in sorted(entries)}

    def take_changes(self) -> dict[int, list[Action] | None]:
        """``{node: actions or None}`` changed since the last report."""
        changes = self._changes
        self._changes = {}
        return changes

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
        """Re-evaluate ``dirty ∪ N(dirty)`` (1-hop locality, DESIGN.md §6)."""
        network = self.network
        affected = set(dirty)
        for p in dirty:
            affected.update(network.neighbors(p))
        cache: dict = {}
        enabled_actions = self.protocol.enabled_actions
        config = self._config
        fresh = {
            p: enabled_actions(config, network, p, cache=cache) or None
            for p in affected
        }
        self._cache = cache
        self._install(fresh)

    def _install(self, fresh: Mapping[int, list[Action] | None]) -> None:
        """Write re-evaluated entries, reporting the ones that changed."""
        entries = self._entries
        changes = self._changes
        for p, actions in fresh.items():
            if actions != entries.get(p):
                changes[p] = actions
                if actions is None:
                    del entries[p]
                else:
                    entries[p] = actions


class FullRecomputeKernel(ObjectBridgeKernel):
    """The object kernel that re-evaluates every guard after every write."""

    def _refresh(self, dirty: set[int]) -> None:
        self._cache = {}
        full = self.protocol.enabled_map(
            self._config, self.network, cache=self._cache
        )
        self._install({p: full.get(p) for p in self.network.nodes})
