"""Round accounting against the whole-set definition, step by step.

The simulator feeds :class:`~repro.runtime.rounds.RoundCounter` only the
processors that executed or whose enabled entry changed, and keeps ages
as streak start steps.  :class:`ReferenceRounds` below is the rule it
replaced: every step it rebuilds the ages and the pending set from the
whole enabled set.  Random runs — every daemon of
:mod:`repro.runtime.daemons`, the three shared-memory engines and the
message transport, with crash/recover/suppress/release, link churn and
transient faults mixed in — must agree with it after every step on
completed rounds, the round's pending set and every age.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pif import SnapPif
from repro.errors import TopologyError
from repro.graphs import by_name
from repro.messaging.runtime import MessageSimulator
from repro.runtime.daemons import (
    AdversarialDaemon,
    CentralDaemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    ReplayDaemon,
    RoundRobinDaemon,
    SynchronousDaemon,
    WeaklyFairDaemon,
)
from repro.runtime.simulator import Simulator

from tests.runtime.toys import MaxProtocol


class ReferenceRounds:
    """The O(N) round rule: ages and pending rebuilt from the enabled set."""

    def __init__(self, enabled) -> None:
        self.excluded: frozenset[int] = frozenset()
        self.pending = set(enabled)
        self.completed = 0
        self.ages = {p: 1 for p in self.pending}

    def restart(self, enabled) -> None:
        self.pending = set(enabled) - self.excluded
        self.ages = {p: 1 for p in self.pending}

    def set_excluded(self, excluded, enabled_now) -> None:
        excluded = frozenset(excluded)
        newly = excluded - self.excluded
        self.excluded = excluded
        emptied = bool(self.pending) and not (self.pending - newly)
        self.pending -= newly
        for p in newly:
            self.ages.pop(p, None)
        for p in enabled_now:
            if p not in excluded and p not in self.ages:
                self.ages[p] = 1
        if not self.pending:
            self.completed += emptied
            self.pending = set(enabled_now) - excluded

    def observe_step(self, executed, enabled_after) -> int:
        self.ages = {
            p: 1 if p in executed or p not in self.ages else self.ages[p] + 1
            for p in enabled_after
            if p not in self.excluded
        }
        self.pending = {
            p for p in self.pending if p not in executed and p in enabled_after
        }
        if self.pending:
            return 0
        self.completed += 1
        self.pending = set(enabled_after) - self.excluded
        return 1


DAEMONS = {
    "synchronous": lambda: SynchronousDaemon(),
    "central-random": lambda: CentralDaemon(choice="random"),
    "central-oldest": lambda: CentralDaemon(choice="oldest"),
    "central-lowest": lambda: CentralDaemon(choice="lowest"),
    "locally-central": lambda: LocallyCentralDaemon(),
    "distributed-random": lambda: DistributedRandomDaemon(0.4),
    "adversarial": lambda: AdversarialDaemon(patience=4),
    "round-robin": lambda: RoundRobinDaemon(),
    "weakly-fair": lambda: WeaklyFairDaemon(
        CentralDaemon(choice="lowest"), patience=3
    ),
    # Replays a central-random run of the same seed and fault script.
    "replay": None,
}

ENGINES = ("incremental", "columnar", "full", "message")

FAMILIES = ("line", "ring", "star", "random-sparse", "random-tree")

STEPS = 60


def _simulator(engine, daemon, seed):
    rng = Random(seed)
    net = by_name(rng.choice(FAMILIES), rng.randint(4, 9))
    protocol = (
        SnapPif.for_network(net) if rng.random() < 0.75 else MaxProtocol()
    )
    config = protocol.random_configuration(net, rng)
    if engine == "message":
        return MessageSimulator(
            protocol,
            net,
            daemon,
            configuration=config,
            seed=seed,
            trace_level="selections",
        )
    return Simulator(
        protocol,
        net,
        daemon,
        configuration=config,
        seed=seed,
        engine=engine,
        trace_level="selections",
    )


def _fault(sim, ref, rng) -> None:
    """Maybe strike one fault, mirroring its round effect on ``ref``."""
    roll = rng.random()
    nodes = list(sim.network.nodes)
    exclusion = None
    if roll < 0.06:
        exclusion = sim.crash(rng.sample(nodes, 1))
    elif roll < 0.12:
        exclusion = sim.recover()
    elif roll < 0.18:
        exclusion = sim.suppress(rng.sample(nodes, 2))
    elif roll < 0.24:
        exclusion = sim.release()
    elif roll < 0.28:
        sim.reset_configuration(
            sim.protocol.random_configuration(sim.network, rng)
        )
        ref.restart(sim.enabled_nodes())
    elif roll < 0.32:
        p = rng.choice(nodes)
        state = sim.protocol.random_state(p, sim.network, rng)
        if sim.perturb_configuration({p: state}):
            ref.restart(sim.enabled_nodes())
    elif roll < 0.38:
        net = sim.network
        p, q = rng.sample(nodes, 2)
        try:
            churned = (
                net.without_edge(p, q) if net.has_edge(p, q) else net.with_edge(p, q)
            )
        except TopologyError:
            return
        if sim.apply_topology(churned):
            ref.restart(sim.enabled_nodes())
    if exclusion:
        ref.set_excluded(sim.crashed | sim.suppressed, sim.enabled_nodes())


def _agree(sim, ref) -> None:
    counter = sim._rounds
    assert sim.rounds == ref.completed
    assert counter.pending == ref.pending
    assert dict(counter.ages) == ref.ages
    assert list(sim._enabled) == sorted(sim.enabled_nodes())


def _run(engine, daemon, seed):
    """Drive one run against the reference; return its schedule."""
    sim = _simulator(engine, daemon, seed)
    ref = ReferenceRounds(sim.enabled_nodes())
    faults = Random(seed * 7919 + 1)
    for _ in range(STEPS):
        _fault(sim, ref, faults)
        _agree(sim, ref)
        record = sim.step()
        if record is None:
            if not (sim.crashed or sim.suppressed):
                break
            for revive in (sim.recover, sim.release):
                if revive():
                    ref.set_excluded(sim.crashed | sim.suppressed, sim.enabled_nodes())
            continue
        completed = ref.observe_step(set(record.selection), sim.enabled_nodes())
        assert record.rounds_completed == completed
        _agree(sim, ref)
    return sim.trace.schedule()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("daemon", sorted(DAEMONS))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_rounds_match_the_whole_set_rule(engine: str, daemon: str, seed: int) -> None:
    if daemon == "replay":
        schedule = _run(engine, CentralDaemon(choice="random"), seed)
        # Idle transport steps consult no daemon, so they replay nothing.
        replayed = _run(engine, ReplayDaemon([s for s in schedule if s]), seed)
        assert replayed == schedule
    else:
        _run(engine, DAEMONS[daemon](), seed)
