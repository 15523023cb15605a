"""Randomized commutation sweep: region-wise steps vs the one-shot step.

The commutation argument of DESIGN.md §14, executed: for 200
randomized runs (50 seeds × 4 protocols) over mixed daemons and
topology families, with a mid-run crash, topology churn, a transient
corruption fault and a recovery, a run whose every selection is
executed region by region with the kernel's public step primitives
(``tests/regions/regionwise.py``) — in ascending, descending and
shuffled region order — is **bit-identical** to the serial columnar
run: the same steps / rounds / moves, action histograms, schedules and
final configurations.  The serial leg runs with lockstep validation
on, so it is itself pinned to the object engine; transitivity pins the
region-wise legs too.

``REPRO_COLUMNAR_BACKEND`` selects the backend, so the CI matrix covers
pure and numpy.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core.pif import SnapPif
from repro.graphs import by_name
from repro.protocols import SelfStabPif, SpanningTree, TreePif
from repro.runtime.daemons import (
    AdversarialDaemon,
    CentralDaemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    SynchronousDaemon,
)
from repro.runtime.network import Network
from repro.runtime.protocol import Protocol
from repro.runtime.simulator import Simulator

from tests.regions.regionwise import execute_by_regions, partition_selection

FAMILIES = (
    "line",
    "ring",
    "star",
    "complete",
    "random-sparse",
    "random-dense",
    "random-tree",
    "caterpillar",
)

DAEMONS = (
    lambda: SynchronousDaemon(),
    lambda: CentralDaemon(choice="random"),
    lambda: CentralDaemon(choice="oldest"),
    lambda: LocallyCentralDaemon(),
    lambda: DistributedRandomDaemon(0.3),
    lambda: DistributedRandomDaemon(0.7, action_policy="random"),
    lambda: AdversarialDaemon(patience=4),
)

PROTOCOL_KINDS = ("snap-pif", "self-stab-pif", "tree-pif", "spanning-tree")

#: Kinds whose programs survive an arbitrary topology swap (TreePif's
#: action table is built from one BFS tree; SelfStabPif's ancestor
#: chains assume the build topology).
CHURN_KINDS = ("snap-pif", "spanning-tree")

STEPS = 30
CRASH_AT = 10
CHURN_AT = 12
FAULT_AT = 15
RECOVER_AT = 20


def _orders(seed: int) -> dict:
    def shuffled(regions):
        Random(seed).shuffle(regions)
        return regions

    return {
        "ascending": lambda regions: regions,
        "descending": lambda regions: regions[::-1],
        "shuffled": shuffled,
    }


def _step_region_wise(sim: Simulator, order) -> list[int]:
    """Route ``sim``'s steps through :func:`execute_by_regions`.

    Returns a list that collects the region count of every step.  The
    runtime's current kernel is looked up per step, so a topology
    rebuild is picked up.
    """
    runtime = sim._kernel
    counts: list[int] = []

    def execute_selection(selection):
        kernel = runtime.kernel
        assert not kernel.spec.object_statements
        csr = kernel.csr
        counts.append(
            len(partition_selection(sorted(selection), csr.indptr, csr.indices))
        )
        return execute_by_regions(kernel, selection, order)

    runtime.execute_selection = execute_selection
    return counts


def _bfs_parents(net: Network, root: int = 0) -> dict[int, int | None]:
    levels = net.bfs_levels(root)
    return {
        p: (
            None
            if p == root
            else next(q for q in net.neighbors(p) if levels[q] == levels[p] - 1)
        )
        for p in net.nodes
    }


def _make_protocol(kind: str, net: Network) -> Protocol:
    if kind == "snap-pif":
        return SnapPif.for_network(net)
    if kind == "self-stab-pif":
        return SelfStabPif(0, net.n)
    if kind == "tree-pif":
        return TreePif(0, _bfs_parents(net))
    return SpanningTree(0, net.n)


def _drive(
    kind: str,
    net: Network,
    seed: int,
    *,
    order=None,
    validate: bool = False,
) -> tuple:
    """Run a faulted execution; return its observable outcome."""
    protocol = _make_protocol(kind, net)
    rng = Random(seed * 7919 + 1)
    sim = Simulator(
        protocol,
        net,
        DAEMONS[seed % len(DAEMONS)](),
        configuration=protocol.random_configuration(net, Random(seed)),
        seed=seed,
        trace_level="selections",
        engine="columnar",
        validate_engine=validate,
    )
    if order is not None:
        _step_region_wise(sim, order)
    for step in range(STEPS):
        if step == CRASH_AT:
            sim.crash([1])
        if step == CHURN_AT and kind in CHURN_KINDS:
            sim.apply_topology(by_name("ring", net.n))
        if step == FAULT_AT:
            sim.reset_configuration(
                protocol.random_configuration(sim.network, rng)
            )
        if step == RECOVER_AT:
            sim.recover()
        if sim.step() is None:
            break
    # Closing check on top of any per-step lockstep validation.
    full_map = protocol.enabled_map(sim.configuration, sim.network)
    assert full_map == sim._enabled
    assert list(full_map) == list(sim._enabled)
    return (
        sim.steps,
        sim.rounds,
        sim.moves,
        sim.action_counts,
        sim.trace.schedule(),
        sim.configuration,
    )


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize("seed", range(50))
def test_parallel_regions_bit_identical_to_serial_columnar(
    kind: str, seed: int
) -> None:
    net = by_name(FAMILIES[seed % len(FAMILIES)], 5 + seed % 5)
    serial = _drive(kind, net, seed, validate=True)
    for name, order in _orders(seed).items():
        region_wise = _drive(kind, net, seed, order=order)
        assert region_wise == serial, name


class TestComposition:
    def test_environment_knobs_reach_the_runtime(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        monkeypatch.setenv("REPRO_ENGINE_VALIDATE", "1")
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", "pure")
        net = by_name("ring", 8)
        protocol = SnapPif.for_network(net)
        sim = Simulator(protocol, net)
        assert sim.engine == "columnar"
        assert sim.validate_engine is True
        assert sim._kernel is not None
        assert sim._kernel.backend == "pure"
        assert sim._kernel.kernel.backend == "pure"

    def test_serial_default_builds_no_stepper(self, monkeypatch) -> None:
        # The columnar runtime has one stepping path: each step is one
        # call of the kernel's own execute_selection.
        net = by_name("ring", 8)
        protocol = SnapPif.for_network(net)
        sim = Simulator(
            protocol,
            net,
            SynchronousDaemon(),
            configuration=protocol.random_configuration(net, Random(2)),
            engine="columnar",
        )
        kernel = sim._kernel.kernel
        calls: list[int] = []
        execute = kernel.execute_selection

        def counting(selection):
            calls.append(len(selection))
            return execute(selection)

        monkeypatch.setattr(kernel, "execute_selection", counting)
        for _ in range(10):
            if sim.step() is None:
                break
        assert sim.steps > 0
        assert len(calls) == sim.steps
        assert sum(calls) == sim.moves

    def test_churn_rebuilds_the_stepper_for_the_new_topology(self) -> None:
        net = by_name("ring", 10)
        protocol = SnapPif.for_network(net)
        sim = Simulator(
            protocol,
            net,
            SynchronousDaemon(),
            configuration=protocol.random_configuration(net, Random(2)),
            seed=3,
            engine="columnar",
        )
        counts = _step_region_wise(sim, lambda regions: regions[::-1])
        before = sim._kernel.kernel
        sim.apply_topology(by_name("random-tree", 10))
        after = sim._kernel.kernel
        assert after is not before
        assert after.network == sim.network
        for _ in range(20):
            if sim.step() is None:
                break
        # The region-wise steps ran on the rebuilt kernel, and some
        # selection really split into several regions.
        assert counts and max(counts) >= 2
        assert (
            protocol.enabled_map(sim.configuration, sim.network)
            == sim._enabled
        )
