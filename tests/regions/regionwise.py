"""Region-wise execution of one daemon selection: the commutation oracle.

DESIGN.md §14 argues that a daemon selection ``U`` splits into
independent *regions* — the connected components of the graph on ``U``
with an edge between ``u`` and ``v`` whenever their closed
neighborhoods intersect (distance ≤ 2) — and that regions commute: a
statement reads ≤ 1 hop and writes its own node, and mask repair reads
≤ 1 hop of ``dirty ∪ N(dirty)``, so nothing one region writes is read
by another.  This module executes that argument with the compiled
kernel's public step primitives (``pending_updates``, ``affected_of``,
``mask_values``, ``apply_masks``): it runs the regions one after
another, in any order, so the tests can compare the outcome with the
kernel's one-shot ``execute_selection``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.runtime.protocol import Action


@dataclass(frozen=True)
class Region:
    """One independent component of a selection."""

    #: The selected nodes of this region, ascending.
    nodes: tuple[int, ...]
    #: ``|N[nodes]|``: the selected nodes plus their neighbors.
    footprint: int

    @property
    def min_node(self) -> int:
        return self.nodes[0]


@dataclass(frozen=True)
class RegionPartition:
    """All regions of one selection, ascending by minimum node id."""

    regions: tuple[Region, ...]

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(r.footprint for r in self.regions)


def partition_selection(
    selected: Sequence[int], indptr: Sequence[int], indices: Sequence[int]
) -> RegionPartition:
    """Split ascending ``selected`` into regions over a CSR topology.

    Each node of ``U ∪ N(U)`` is claimed by the first selected node
    whose closed neighborhood reaches it; a later selected node that
    reaches a claimed node joins the claimant's region.  The claimed
    sets are the regions' footprints, disjoint by construction.
    """
    parent = list(range(len(selected)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    claim: dict[int, int] = {}
    for i, u in enumerate(selected):
        for w in (u, *indices[indptr[u] : indptr[u + 1]]):
            j = claim.setdefault(w, i)
            ri, rj = find(i), find(j)
            # Root every component at its smallest selection index.
            parent[max(ri, rj)] = min(ri, rj)

    members: dict[int, list[int]] = {}
    for i in range(len(selected)):
        members.setdefault(find(i), []).append(selected[i])
    footprint = dict.fromkeys(members, 0)
    for i in claim.values():
        footprint[find(i)] += 1
    return RegionPartition(
        tuple(
            Region(nodes=tuple(nodes), footprint=footprint[root])
            for root, nodes in members.items()
        )
    )


def execute_by_regions(
    kernel,
    selection: Mapping[int, Action],
    order: Callable[[list[Region]], list[Region]] = lambda rs: rs,
) -> set[int]:
    """One step of ``kernel``, executed region by region in ``order``.

    Each region lands its writes and computes its repaired masks before
    the next region writes anything; all masks are installed at the
    end.  A region whose reads reached a row another region writes
    would therefore install a stale mask, and the result would depend
    on ``order``.  Returns the dirty set, like
    ``kernel.execute_selection``.
    """
    csr = kernel.csr
    part = partition_selection(sorted(selection), csr.indptr, csr.indices)
    write_row = kernel.block.write_row
    dirty_all: set[int] = set()
    repairs = []
    for region in order(list(part)):
        pending = kernel.pending_updates(
            [(p, selection[p]) for p in region.nodes]
        )
        dirty = set()
        for p, row in pending:
            write_row(p, row)
            dirty.add(p)
        if dirty:
            affected = kernel.affected_of(dirty)
            repairs.append((affected, kernel.mask_values(affected)))
        dirty_all |= dirty
    for affected, masks in repairs:
        kernel.apply_masks(affected, masks)
    return dirty_all
