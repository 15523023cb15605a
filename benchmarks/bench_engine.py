"""E-engine — enabled-set engine throughput: full vs incremental vs columnar.

Every layer of the reproduction bottlenecks on computing the enabled
map after each computation step.  The full engine re-evaluates every
guard at every node; the incremental engine exploits the 1-hop locality
of the guarded-action model and re-evaluates only the dirty region
``U ∪ N(U)`` of the nodes a step actually rewrote; the columnar engine
additionally stores the configuration as flat per-variable arrays, so a
step writes O(dirty) array cells instead of copying the O(N) state
tuple (see docs/API.md «Columnar engine»).

This bench drives the snap PIF through steady-state wave cycles under a
central daemon (one activation per step — the regime where locality
matters most).  All three engines run on rings and sparse random graphs
at N ∈ {16, 64, 256, 1024}; the full engine is capped there (its
O(N·deg) per-step guard sweep is already ~100× off the pace at 1024),
while incremental and columnar continue to N ∈ {4096, 16384, 65536} on
O(N)-constructible topologies (rings and random trees — the O(N²)
``random_connected`` builder is the bottleneck at those sizes, not the
engines).

Since the generic guard-expression compiler landed, every baseline
protocol runs compiled — so the large sizes also sweep the three newly
compiled protocols (``self-stab-pif``, ``tree-pif``,
``spanning-tree``), incremental vs columnar, each on an
O(N)-constructible family that suits it.

Results are written to ``BENCH_engine.json`` at the repository root so
the perf trajectory is tracked PR over PR::

    pytest benchmarks/bench_engine.py --benchmark-only -q
"""

from __future__ import annotations

import time

import pytest

from repro.core.pif import SnapPif
from repro.graphs import random_connected, random_tree, ring
from repro.protocols import SelfStabPif, SpanningTree, TreePif
from repro.runtime.daemons import CentralDaemon
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator

from benchmarks.common import JSON_REPORTS, TableCollector

TABLE = TableCollector(
    "E-engine — enabled-set engine: steps/sec, full vs incremental vs columnar",
    columns=["topology", "n", "engine", "steps", "seconds", "steps/sec"],
)

PROTOCOL_TABLE = TableCollector(
    "E-engine — spec-compiled protocols: steps/sec, incremental vs columnar",
    columns=[
        "protocol",
        "topology",
        "n",
        "engine",
        "steps",
        "seconds",
        "steps/sec",
    ],
)

#: Steps per timing run, scaled down as the per-step cost grows with N.
STEPS = {
    16: 2000,
    64: 1000,
    256: 500,
    1024: 200,
    4096: 150,
    16384: 80,
    65536: 30,
}

#: Sizes every engine runs (the full engine's O(N·deg) sweep caps here).
SIZES = (16, 64, 256, 1024)

#: Sizes only the dirty-region engines run, on O(N)-constructible graphs.
LARGE_SIZES = (4096, 16384, 65536)

TOPOLOGIES = {
    "ring": lambda n: ring(n),
    "random": lambda n: random_connected(n, 0.05, seed=n),
    "tree": lambda n: random_tree(n, seed=n),
}

#: ``(family, n, engine)`` benchmark grid.
CASES = [
    (family, n, engine)
    for engine in ("full", "incremental", "columnar")
    for family in ("ring", "random")
    for n in SIZES
] + [
    (family, n, engine)
    for engine in ("incremental", "columnar")
    for family in ("ring", "tree")
    for n in LARGE_SIZES
]

#: The newly spec-compiled protocols, each on one O(N)-constructible
#: family: wave protocols cycle forever (like the snap PIF), while the
#: spanning tree is silent — its run is the convergence prefix from the
#: default initial configuration, far longer than any budget here.
PROTOCOL_FAMILIES = {
    "self-stab-pif": "ring",
    "tree-pif": "tree",
    "spanning-tree": "ring",
}

#: ``(protocol, family, n, engine)`` grid for the compiled protocols.
PROTOCOL_CASES = [
    (protocol, family, n, engine)
    for engine in ("incremental", "columnar")
    for protocol, family in PROTOCOL_FAMILIES.items()
    for n in LARGE_SIZES
]

#: ``(family, n, engine) -> {"steps": ..., "seconds": ..., "steps_per_sec": ...}``
RESULTS: dict[tuple[str, int, str], dict[str, float]] = {}

#: ``(protocol, family, n, engine) -> same measurement shape``.
PROTOCOL_RESULTS: dict[tuple[str, str, int, str], dict[str, float]] = {}


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


def _make_protocol(kind: str, net: Network):
    if kind == "snap-pif":
        return SnapPif.for_network(net)
    if kind == "self-stab-pif":
        return SelfStabPif(0, net.n)
    if kind == "tree-pif":
        return TreePif(0, _bfs_parents(net))
    return SpanningTree(0, net.n)


def _measure(
    family: str, n: int, engine: str, protocol_kind: str = "snap-pif"
) -> dict[str, float]:
    net = TOPOLOGIES[family](n)
    protocol = _make_protocol(protocol_kind, net)
    sim = Simulator(
        protocol,
        net,
        CentralDaemon(choice="random"),
        seed=1,
        engine=engine,
    )
    budget = STEPS[n]
    start = time.perf_counter()
    done = 0
    for _ in range(budget):
        if sim.step() is None:
            break
        done += 1
    elapsed = time.perf_counter() - start
    return {
        "steps": done,
        "seconds": elapsed,
        "steps_per_sec": done / elapsed if elapsed > 0 else 0.0,
    }


@pytest.mark.parametrize(
    "family,n,engine", CASES, ids=[f"{f}-{n}-{e}" for f, n, e in CASES]
)
def test_engine_throughput(family: str, n: int, engine: str, benchmark) -> None:
    measurement = benchmark.pedantic(
        lambda: _measure(family, n, engine), rounds=1, iterations=1
    )
    RESULTS[(family, n, engine)] = measurement
    TABLE.add(
        {
            "topology": family,
            "n": n,
            "engine": engine,
            "steps": int(measurement["steps"]),
            "seconds": round(measurement["seconds"], 4),
            "steps/sec": round(measurement["steps_per_sec"]),
        }
    )
    assert measurement["steps"] == STEPS[n]  # a PIF run never terminates


@pytest.mark.parametrize(
    "protocol,family,n,engine",
    PROTOCOL_CASES,
    ids=[f"{p}-{f}-{n}-{e}" for p, f, n, e in PROTOCOL_CASES],
)
def test_compiled_protocol_throughput(
    protocol: str, family: str, n: int, engine: str, benchmark
) -> None:
    measurement = benchmark.pedantic(
        lambda: _measure(family, n, engine, protocol_kind=protocol),
        rounds=1,
        iterations=1,
    )
    PROTOCOL_RESULTS[(protocol, family, n, engine)] = measurement
    PROTOCOL_TABLE.add(
        {
            "protocol": protocol,
            "topology": family,
            "n": n,
            "engine": engine,
            "steps": int(measurement["steps"]),
            "seconds": round(measurement["seconds"], 4),
            "steps/sec": round(measurement["steps_per_sec"]),
        }
    )
    # The wave protocols never terminate; the (silent) spanning tree's
    # convergence prefix from the default initial configuration is far
    # longer than any budget here, but only the waves get the exact
    # assertion.
    if protocol == "spanning-tree":
        assert measurement["steps"] > 0
    else:
        assert measurement["steps"] == STEPS[n]


def _speedups(numerator: str, denominator: str) -> dict[str, float]:
    """``family-n -> numerator steps/sec over denominator steps/sec``."""
    out = {}
    for family, n, engine in RESULTS:
        if engine != numerator:
            continue
        base = RESULTS.get((family, n, denominator))
        if base is None or base["steps_per_sec"] == 0:
            continue
        out[f"{family}-{n}"] = round(
            RESULTS[(family, n, numerator)]["steps_per_sec"]
            / base["steps_per_sec"],
            2,
        )
    return out


def _protocol_speedups() -> dict[str, float]:
    """``protocol-family-n -> columnar steps/sec over incremental``."""
    out = {}
    for protocol, family, n, engine in PROTOCOL_RESULTS:
        if engine != "columnar":
            continue
        base = PROTOCOL_RESULTS.get((protocol, family, n, "incremental"))
        if base is None or base["steps_per_sec"] == 0:
            continue
        out[f"{protocol}-{family}-{n}"] = round(
            PROTOCOL_RESULTS[(protocol, family, n, "columnar")][
                "steps_per_sec"
            ]
            / base["steps_per_sec"],
            2,
        )
    return out


def _build_report() -> dict | None:
    if not RESULTS:
        return None
    cases = [
        {
            "topology": family,
            "n": n,
            "engine": engine,
            "steps": int(m["steps"]),
            "seconds": m["seconds"],
            "steps_per_sec": m["steps_per_sec"],
        }
        for (family, n, engine), m in sorted(RESULTS.items())
    ]
    protocol_cases = [
        {
            "protocol": protocol,
            "topology": family,
            "n": n,
            "engine": engine,
            "steps": int(m["steps"]),
            "seconds": m["seconds"],
            "steps_per_sec": m["steps_per_sec"],
        }
        for (protocol, family, n, engine), m in sorted(
            PROTOCOL_RESULTS.items()
        )
    ]
    return {
        "benchmark": "enabled-set engine (full vs incremental vs columnar)",
        "workload": "snap PIF cycles, central daemon (choice=random), seed 1",
        "steps_per_size": {str(n): s for n, s in STEPS.items()},
        "cases": cases,
        "compiled_protocol_cases": protocol_cases,
        "speedup_incremental_over_full": _speedups("incremental", "full"),
        "speedup_columnar_over_incremental": _speedups(
            "columnar", "incremental"
        ),
        "speedup_columnar_over_incremental_by_protocol": (
            _protocol_speedups()
        ),
    }


JSON_REPORTS.append(("BENCH_engine.json", _build_report))
