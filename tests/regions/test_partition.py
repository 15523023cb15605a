"""Unit pins for the region partitioner of the commutation oracle.

``tests/regions/regionwise.py`` splits a daemon selection into the
regions of DESIGN.md §14; the commutation sweep in
``test_region_step.py`` trusts that split, so it is pinned here on
topological edge cases.  The contract: selected nodes land in the same
region iff their closed neighborhoods intersect (distance ≤ 2),
regions come back ordered by ascending minimum selected node, each
region's nodes are ascending, and the claimed footprints are disjoint
and sum to ``|U ∪ N(U)|``.
"""

from __future__ import annotations

from repro.columnar.compiler import csr_for
from repro.graphs import by_name
from tests.regions.regionwise import partition_selection


def _partition(family: str, n: int, selected: list[int]):
    csr = csr_for(by_name(family, n))
    return partition_selection(selected, csr.indptr, csr.indices)


class TestLine:
    def test_far_endpoints_are_separate_regions(self) -> None:
        part = _partition("line", 6, [0, 5])
        assert [r.nodes for r in part] == [(0,), (5,)]
        assert part.sizes == (2, 2)  # N[0]={0,1}, N[5]={4,5}

    def test_distance_three_still_separate(self) -> None:
        part = _partition("line", 6, [0, 3])
        assert [r.nodes for r in part] == [(0,), (3,)]
        assert part.sizes == (2, 3)

    def test_distance_two_merges_through_shared_neighbor(self) -> None:
        # N[0]={0,1} and N[2]={1,2,3} share node 1: one region.
        part = _partition("line", 6, [0, 2])
        assert [r.nodes for r in part] == [(0, 2)]
        assert part.sizes == (4,)  # {0,1,2,3}

    def test_adjacent_nodes_merge(self) -> None:
        part = _partition("line", 6, [2, 3])
        assert [r.nodes for r in part] == [(2, 3)]
        assert part.sizes == (4,)  # {1,2,3,4}


class TestRing:
    def test_antipodal_nodes_are_separate(self) -> None:
        part = _partition("ring", 6, [0, 3])
        assert [r.nodes for r in part] == [(0,), (3,)]
        assert part.sizes == (3, 3)  # N[0]={5,0,1}, N[3]={2,3,4}

    def test_wraparound_distance_two_merges(self) -> None:
        # On ring(6), nodes 0 and 4 share neighbor 5.
        part = _partition("ring", 6, [0, 4])
        assert [r.nodes for r in part] == [(0, 4)]
        assert part.sizes == (5,)  # {5,0,1} ∪ {3,4,5}


class TestStar:
    def test_two_leaves_merge_through_the_center(self) -> None:
        net = by_name("star", 6)
        csr = csr_for(net)
        # The two highest-degree-1 nodes are leaves sharing the hub.
        degree = [csr.indptr[p + 1] - csr.indptr[p] for p in range(net.n)]
        leaves = [p for p in range(net.n) if degree[p] == 1][:2]
        part = partition_selection(leaves, csr.indptr, csr.indices)
        assert len(part) == 1
        assert part.regions[0].nodes == tuple(leaves)
        assert part.sizes == (3,)  # leaf + leaf + shared hub


class TestFullyConnected:
    def test_complete_graph_full_selection_is_one_region(self) -> None:
        part = _partition("complete", 5, [0, 1, 2, 3, 4])
        assert len(part) == 1
        assert part.regions[0].nodes == (0, 1, 2, 3, 4)
        assert part.regions[0].footprint == 5
        assert part.regions[0].min_node == 0


class TestDegreeZero:
    def test_isolated_node_forms_its_own_region(self) -> None:
        # Hand-built CSR: 0-1 edge, node 2 isolated (churn can isolate
        # a node mid-run), 3-4 edge.
        indptr = [0, 1, 2, 2, 3, 4]
        indices = [1, 0, 4, 3]
        part = partition_selection([0, 2, 4], indptr, indices)
        assert [r.nodes for r in part] == [(0,), (2,), (4,)]
        assert part.sizes == (2, 1, 2)  # the isolated footprint is itself

    def test_empty_selection(self) -> None:
        part = partition_selection([], [0, 0], [])
        assert len(part) == 0
        assert list(part) == []


class TestContract:
    def test_regions_ordered_by_min_node_nodes_ascending(self) -> None:
        part = _partition("random-sparse", 20, list(range(0, 20, 3)))
        mins = [r.min_node for r in part]
        assert mins == sorted(mins)
        for region in part:
            assert list(region.nodes) == sorted(region.nodes)

    def test_footprints_partition_the_dirty_set(self) -> None:
        for family in ("line", "ring", "star", "random-sparse", "complete"):
            net = by_name(family, 17)
            csr = csr_for(net)
            selected = sorted({(7 * k) % net.n for k in range(9)})
            part = partition_selection(selected, csr.indptr, csr.indices)
            assert sorted(p for r in part for p in r.nodes) == selected
            dirty = set(selected)
            for p in selected:
                dirty.update(csr.indices[csr.indptr[p] : csr.indptr[p + 1]])
            # Claimed footprints are disjoint by construction, so their
            # sizes sum to exactly |U ∪ N(U)|.
            assert sum(part.sizes) == len(dirty)
