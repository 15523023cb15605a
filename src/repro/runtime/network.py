"""Network topologies for the locally shared memory model.

A :class:`Network` is an undirected, connected graph over processors
``0 .. n-1``.  Each processor ``p`` owns a *locally ordered* neighbor
tuple, the paper's ``Neig_p`` with its total order ``≻_p``; protocols
use this order to break ties deterministically (e.g. the snap PIF picks
``min`` of the ``Potential`` set in local order).

The class is immutable and hashable so that configurations over it can be
memoized by the model checker.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import TopologyError

__all__ = ["Network"]


class Network:
    """An immutable undirected graph with locally ordered neighbor sets.

    Parameters
    ----------
    adjacency:
        Mapping from each node to an iterable of its neighbors.  Nodes
        must be the integers ``0 .. n-1``.  The adjacency must be
        symmetric and free of self loops.
    neighbor_orders:
        Optional mapping from node to an explicit neighbor ordering
        (a permutation of that node's neighbor set).  By default
        neighbors are ordered by ascending identifier.
    name:
        Optional human-readable topology name used in reports.
    require_connected:
        When true (the default), a disconnected graph raises
        :class:`~repro.errors.TopologyError`.  The PIF specification is
        only meaningful on connected networks.
    """

    # ``__weakref__`` lets protocols key their per-network action caches
    # weakly on the Network object (see Protocol.node_actions).
    __slots__ = ("_neighbors", "_name", "_edge_count", "_hash", "__weakref__")

    def __init__(
        self,
        adjacency: Mapping[int, Iterable[int]],
        *,
        neighbor_orders: Mapping[int, Sequence[int]] | None = None,
        name: str = "network",
        require_connected: bool = True,
    ) -> None:
        n = len(adjacency)
        if n == 0:
            raise TopologyError("a network must contain at least one processor")
        if set(adjacency) != set(range(n)):
            raise TopologyError(
                f"nodes must be exactly 0..{n - 1}, got {sorted(adjacency)!r}"
            )

        neighbor_sets = {p: frozenset(qs) for p, qs in adjacency.items()}
        for p, qs in neighbor_sets.items():
            if p in qs:
                raise TopologyError(f"self loop at node {p}")
            for q in qs:
                if q not in neighbor_sets:
                    raise TopologyError(f"node {p} lists unknown neighbor {q}")
                if p not in neighbor_sets[q]:
                    raise TopologyError(
                        f"asymmetric adjacency: {p} lists {q} but not vice versa"
                    )

        ordered: list[tuple[int, ...]] = []
        for p in range(n):
            if neighbor_orders is not None and p in neighbor_orders:
                order = tuple(neighbor_orders[p])
                if set(order) != neighbor_sets[p] or len(order) != len(
                    neighbor_sets[p]
                ):
                    raise TopologyError(
                        f"neighbor order for node {p} is not a permutation of "
                        f"its neighbor set"
                    )
            else:
                order = tuple(sorted(neighbor_sets[p]))
            ordered.append(order)

        self._neighbors: tuple[tuple[int, ...], ...] = tuple(ordered)
        self._name = name
        self._edge_count = sum(len(qs) for qs in ordered) // 2
        self._hash: int | None = None

        if require_connected and not self._is_connected():
            raise TopologyError(f"network {name!r} is not connected")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of processors (the paper's ``N``)."""
        return len(self._neighbors)

    @property
    def name(self) -> str:
        """Human-readable topology name."""
        return self._name

    @property
    def nodes(self) -> range:
        """The processors, as ``range(n)``."""
        return range(len(self._neighbors))

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self._edge_count

    def neighbors(self, p: int) -> tuple[int, ...]:
        """Return ``Neig_p`` in the node's local order."""
        return self._neighbors[p]

    def degree(self, p: int) -> int:
        """Return the degree of node ``p``."""
        return len(self._neighbors[p])

    def has_edge(self, p: int, q: int) -> bool:
        """Return whether ``{p, q}`` is an edge."""
        return q in self._neighbors[p]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected edges as ``(p, q)`` with ``p < q``."""
        for p in self.nodes:
            for q in self._neighbors[p]:
                if p < q:
                    yield (p, q)

    # ------------------------------------------------------------------
    # Topology churn (chaos campaigns)
    # ------------------------------------------------------------------
    def with_edge(self, p: int, q: int, *, name: str | None = None) -> "Network":
        """Return a copy of this network with the edge ``{p, q}`` added.

        The two endpoints' local neighbor orders gain the new neighbor at
        its ascending-identifier position; every other node keeps its
        order untouched.  This is the *only* locality an edge flip has in
        the locally-shared-memory model, which is what lets the
        incremental engine treat ``{p, q}`` as the dirty set of the flip.
        """
        if p == q:
            raise TopologyError(f"self loop at node {p}")
        if p not in self.nodes or q not in self.nodes:
            raise TopologyError(f"unknown endpoint in edge ({p}, {q})")
        if self.has_edge(p, q):
            raise TopologyError(f"edge ({p}, {q}) already present")
        return self._with_flipped_edge(
            p, q, add=True, name=name or f"{self._name}+{p}-{q}"
        )

    def without_edge(
        self,
        p: int,
        q: int,
        *,
        name: str | None = None,
        require_connected: bool = True,
    ) -> "Network":
        """Return a copy of this network with the edge ``{p, q}`` removed.

        Raises :class:`~repro.errors.TopologyError` if the edge does not
        exist, or (by default) if removing it would disconnect the
        network — the PIF specification is only meaningful on connected
        graphs, so chaos scenarios never cut bridges.
        """
        if not self.has_edge(p, q):
            raise TopologyError(f"edge ({p}, {q}) not present")
        return self._with_flipped_edge(
            p,
            q,
            add=False,
            name=name or f"{self._name}~{p}-{q}",
            require_connected=require_connected,
        )

    def _with_flipped_edge(
        self,
        p: int,
        q: int,
        *,
        add: bool,
        name: str,
        require_connected: bool = True,
    ) -> "Network":
        orders: dict[int, list[int]] = {}
        for node in self.nodes:
            order = list(self._neighbors[node])
            if node in (p, q):
                other = q if node == p else p
                if add:
                    at = next(
                        (i for i, x in enumerate(order) if x > other), len(order)
                    )
                    order.insert(at, other)
                else:
                    order.remove(other)
            orders[node] = order
        return Network(
            {node: tuple(qs) for node, qs in orders.items()},
            neighbor_orders=orders,
            name=name,
            require_connected=require_connected,
        )

    def changed_nodes(self, other: "Network") -> frozenset[int]:
        """Nodes whose neighbor view differs between ``self`` and ``other``.

        The sound dirty set for swapping ``self`` out for ``other`` under
        the incremental enabled-set engine (a guard at ``p`` reads only
        ``p``'s 1-hop view, so enabledness can flip only on the changed
        nodes and their neighbors).
        """
        if other.n != self.n:
            raise TopologyError(
                f"cannot diff networks of different sizes ({self.n} vs {other.n})"
            )
        return frozenset(
            node
            for node in self.nodes
            if self._neighbors[node] != other._neighbors[node]
        )

    # ------------------------------------------------------------------
    # Graph algorithms used throughout the library
    # ------------------------------------------------------------------
    def _is_connected(self) -> bool:
        seen = {0}
        queue = deque([0])
        while queue:
            p = queue.popleft()
            for q in self._neighbors[p]:
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
        return len(seen) == self.n

    def bfs_levels(self, root: int) -> list[int]:
        """Return BFS distances from ``root`` (``-1`` for unreachable)."""
        if root not in self.nodes:
            raise TopologyError(f"unknown root {root}")
        levels = [-1] * self.n
        levels[root] = 0
        queue = deque([root])
        while queue:
            p = queue.popleft()
            for q in self._neighbors[p]:
                if levels[q] == -1:
                    levels[q] = levels[p] + 1
                    queue.append(q)
        return levels

    def eccentricity(self, p: int) -> int:
        """Return the eccentricity of ``p`` (max BFS distance)."""
        return max(self.bfs_levels(p))

    def diameter(self) -> int:
        """Return the graph diameter (max eccentricity over all nodes)."""
        return max(self.eccentricity(p) for p in self.nodes)

    def radius(self) -> int:
        """Return the graph radius (min eccentricity over all nodes)."""
        return min(self.eccentricity(p) for p in self.nodes)

    def subgraph_is_tree(self) -> bool:
        """Return whether the network itself is a tree."""
        return self._edge_count == self.n - 1

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            # Per-network caches (e.g. Protocol.node_actions' weak-key
            # dictionary) compare a network with itself on every
            # lookup; skip the O(N) adjacency comparison.
            return True
        if not isinstance(other, Network):
            return NotImplemented
        return self._neighbors == other._neighbors

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._neighbors)
        return self._hash

    def __repr__(self) -> str:
        return f"Network(name={self._name!r}, n={self.n}, edges={self._edge_count})"
