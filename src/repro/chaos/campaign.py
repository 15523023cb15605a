"""Campaign runner: sweep scenarios × topologies × daemons × seeds.

:func:`run_chaos` drives one protocol instance through one seeded
scenario, recording the *tape* — the interleaved sequence of executed
daemon selections and applied fault events — and watching a
:class:`~repro.core.monitor.PifCycleMonitor` for specification
violations.  :func:`run_campaign` sweeps a grid of scenarios,
topologies, daemons and seeds and aggregates the outcomes; a violating
run's tape is what the shrinker (:mod:`repro.chaos.shrink`) minimizes
into a corpus reproducer.

The tape is the ground truth for replay: fault events are recorded *as
resolved* (random victims pinned where needed), so replaying the tape
through a :class:`~repro.runtime.daemons.ReplayDaemon` — applying the
fault entries between the scheduled steps — reproduces the run exactly,
with no daemon and no wall-clock nondeterminism left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro import telemetry as _telemetry
from repro.chaos.events import FaultEvent
from repro.chaos.scenario import FaultScenario
from repro.core.monitor import PifCycleMonitor
from repro.errors import MessagingError, ScheduleError
from repro.runtime.daemons import (
    AdversarialDaemon,
    CentralDaemon,
    Daemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    RoundRobinDaemon,
    SynchronousDaemon,
    WeaklyFairDaemon,
)
from repro.runtime.network import Network
from repro.runtime.protocol import Protocol
from repro.runtime.simulator import Simulator

__all__ = [
    "DAEMON_FACTORIES",
    "make_daemon",
    "ChaosRun",
    "CampaignResult",
    "run_chaos",
    "run_campaign",
]

#: Daemon-name registry shared by campaigns, the CLI and ``SwapDaemon``
#: events.  Every factory builds a *fresh* daemon (daemons carry
#: scheduling state); randomized daemons draw from the simulator's
#: seeded RNG, so runs stay deterministic per seed.
DAEMON_FACTORIES: dict[str, Callable[[], Daemon]] = {
    "synchronous": SynchronousDaemon,
    "central": lambda: CentralDaemon(choice="random"),
    "central-oldest": lambda: CentralDaemon(choice="oldest"),
    "locally-central": LocallyCentralDaemon,
    "distributed-random": lambda: DistributedRandomDaemon(0.6),
    "round-robin": RoundRobinDaemon,
    "adversarial": lambda: WeaklyFairDaemon(
        AdversarialDaemon(patience=6), patience=24
    ),
}


def make_daemon(name: str) -> Daemon:
    """Instantiate a daemon by registry name."""
    factory = DAEMON_FACTORIES.get(name)
    if factory is None:
        raise ScheduleError(
            f"unknown daemon {name!r}; known: {sorted(DAEMON_FACTORIES)}"
        )
    return factory()


@dataclass
class ChaosRun:
    """Outcome of one scenario run (one cell of the campaign grid)."""

    scenario: str
    topology: str
    daemon: str
    seed: int
    protocol_name: str
    root: int
    #: ``"shared-memory"`` or ``"message"`` — and, for message runs, the
    #: *resolved* runtime knobs (explicit > environment > default), so a
    #: recorded run replays under the exact same channel semantics.
    transport: str = "shared-memory"
    capacity: int | None = None
    model: str | None = None
    heartbeat: int | None = None
    loss_rate: float = 0.0
    steps: int = 0
    faults_applied: int = 0
    faults_skipped: int = 0
    cycles_completed: int = 0
    violation: str | None = None
    violation_step: int | None = None
    #: Serialized tape: ``{"kind": "step", "selection": {...}}`` and
    #: ``{"kind": "fault", "event": {...}}`` entries in execution order.
    tape: list[dict] = field(default_factory=list)
    #: The (initial) network the run started on — churn events replace
    #: the live network, but replay always restarts from this one.
    network: Network | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """True when the run finished without a specification violation."""
        return self.violation is None


@dataclass
class CampaignResult:
    """Aggregated outcome of a scenario × topology × daemon × seed sweep."""

    runs: list[ChaosRun] = field(default_factory=list)

    @property
    def violations(self) -> list[ChaosRun]:
        return [r for r in self.runs if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_steps(self) -> int:
        return sum(r.steps for r in self.runs)

    @property
    def total_faults(self) -> int:
        return sum(r.faults_applied for r in self.runs)


def _first_violation(monitor: PifCycleMonitor) -> str | None:
    for report in monitor.reports:
        if report.violations:
            return report.violations[0]
    return None


def make_simulator(
    transport: str,
    protocol: Protocol,
    network: Network,
    daemon: Daemon,
    *,
    capacity: int | None = None,
    model: str | None = None,
    heartbeat: int | None = None,
    loss_rate: float = 0.0,
    **common,
) -> Simulator:
    """The simulator of a named transport, built from ``common`` kwargs.

    Corpus files and campaign grids name the transport, so an unknown
    name raises :class:`~repro.errors.MessagingError` instead of
    falling back to shared memory.  The link knobs apply to the
    message transport only.
    """
    if transport == "shared-memory":
        return Simulator(protocol, network, daemon, **common)
    if transport == "message":
        from repro.messaging import MessageSimulator

        return MessageSimulator(
            protocol,
            network,
            daemon,
            capacity=capacity,
            model=model,
            heartbeat=heartbeat,
            loss_rate=loss_rate,
            **common,
        )
    raise MessagingError(
        f"unknown transport {transport!r}; known: 'shared-memory', 'message'"
    )


def run_chaos(
    protocol: Protocol,
    network: Network,
    scenario: FaultScenario,
    *,
    daemon: str = "synchronous",
    seed: int = 0,
    budget: int = 1500,
    engine: str | None = None,
    validate_engine: bool | None = None,
    transport: str = "shared-memory",
    capacity: int | None = None,
    model: str | None = None,
    heartbeat: int | None = None,
    loss_rate: float = 0.0,
    quarantine: Sequence[int] = (),
) -> ChaosRun:
    """Drive ``protocol`` through one seeded fault scenario.

    The scenario is seeded with ``seed`` (events that already carry a
    seed keep it), the simulator's daemon RNG with the same ``seed``.
    The run ends at the first monitor violation, when the step
    ``budget`` is exhausted, or when the computation can no longer
    advance and no fault event remains to unblock it.

    ``transport="message"`` runs the scenario over the message-passing
    runtime (:class:`~repro.messaging.MessageSimulator`) — required for
    the link-fault event family — with ``capacity`` / ``model`` /
    ``heartbeat`` / ``loss_rate`` resolved through the usual
    explicit > environment > default chain and recorded on the run.
    ``quarantine`` excludes nodes from the monitor's judged wave
    subtree (byzantine containment).
    """
    run = ChaosRun(
        scenario=scenario.name,
        topology=network.name,
        daemon=daemon,
        seed=seed,
        protocol_name=protocol.name,
        root=getattr(protocol, "root", 0),
        transport=transport,
        network=network,
    )
    monitor = PifCycleMonitor(protocol, network, quarantine=quarantine)
    sim = make_simulator(
        transport,
        protocol,
        network,
        make_daemon(daemon),
        seed=seed,
        monitors=[monitor],
        engine=engine,
        validate_engine=validate_engine,
        capacity=capacity,
        model=model,
        heartbeat=heartbeat,
        loss_rate=loss_rate,
    )
    if transport == "message":
        run.capacity = sim.capacity
        run.model = sim.model
        run.heartbeat = sim.heartbeat
        run.loss_rate = sim.loss_rate

    queue: list[FaultEvent] = scenario.seeded(seed).timeline()
    cell_span = (
        _telemetry.span("chaos.cell")
        .set("scenario", scenario.name)
        .set("topology", network.name)
        .set("daemon", daemon)
        .set("seed", seed)
        .set("transport", transport)
    )
    cell_span.__enter__()

    def fire(event: FaultEvent) -> None:
        resolved, followups = event.apply(sim)
        if resolved is None:
            run.faults_skipped += 1
        else:
            run.faults_applied += 1
            run.tape.append({"kind": "fault", "event": resolved.to_dict()})
        for extra in followups:
            # Keep the queue sorted by firing time (stable insertion).
            at = next(
                (
                    i
                    for i, pending in enumerate(queue)
                    if pending.at_step > extra.at_step
                ),
                len(queue),
            )
            queue.insert(at, extra)

    while sim.steps < budget:
        while queue and queue[0].at_step <= sim.steps:
            fire(queue.pop(0))
        run.violation = _first_violation(monitor)
        if run.violation is not None:
            break
        record = sim.step()
        if record is None:
            # Stalled (all enabled processors crashed) or terminal:
            # fast-forward to the next fault event, which is the only
            # thing that can change anything.
            if queue:
                fire(queue.pop(0))
                continue
            break
        run.tape.append(
            {
                "kind": "step",
                "selection": {
                    str(p): name for p, name in record.selection.items()
                },
            }
        )
        run.violation = _first_violation(monitor)
        if run.violation is not None:
            run.violation_step = record.index
            break

    run.steps = sim.steps
    run.cycles_completed = len(monitor.completed_cycles)
    cell_span.set("violation", run.violation)
    cell_span.__exit__(None, None, None)
    if _telemetry.enabled:
        reg = _telemetry.registry
        reg.inc("chaos.runs")
        reg.inc("chaos.faults_applied", run.faults_applied)
        reg.inc("chaos.faults_skipped", run.faults_skipped)
        if run.violation is not None:
            reg.inc("chaos.violations")
    return run


def run_campaign(
    protocol_factory: Callable[[Network], Protocol] | None,
    networks: Mapping[str, Network] | Iterable[Network],
    scenarios: Iterable[FaultScenario],
    *,
    daemons: Sequence[str] = ("synchronous", "central", "distributed-random"),
    seeds: Sequence[int] = (0,),
    budget: int = 1500,
    engine: str | None = None,
    validate_engine: bool | None = None,
    transport: str = "shared-memory",
    capacity: int | None = None,
    model: str | None = None,
    heartbeat: int | None = None,
    loss_rate: float = 0.0,
    stop_on_violation: bool = False,
    jobs: int | None = None,
    task_timeout: float | None = None,
) -> CampaignResult:
    """Sweep scenarios × topologies × daemons × seeds.

    ``protocol_factory`` builds a protocol per network
    (default: ``SnapPif.for_network``).  ``networks`` is a name → network
    mapping or an iterable of networks (keyed by their ``name``).

    Every grid cell is one task of
    :meth:`~repro.parallel.executor.ParallelExecutor.map`, in grid
    order.  ``jobs`` (``None`` falls back to the ``REPRO_JOBS``
    environment variable) of 2 or more fans the cells out across a
    process pool; otherwise they run in the in-process serial loop.
    Every cell is an independent deterministic run and results keep
    grid order, so campaigns are bit-identical — same runs, same tapes,
    same violations — at every ``jobs``.  ``stop_on_violation`` ends
    the campaign at the first violating cell, in the pool as in the
    serial loop.  In the pool, ``protocol_factory`` must be picklable
    (a module-level callable), a permanently failing cell raises
    :class:`~repro.parallel.executor.ParallelError` carrying the
    grid-cell identity, and ``task_timeout`` bounds each cell's
    wall-clock seconds (timed-out cells are retried once, then
    reported).
    """
    from repro.parallel.executor import ParallelExecutor, raise_failures
    from repro.parallel.workers import campaign_cell

    if isinstance(networks, Mapping):
        grid = list(networks.values())
    else:
        grid = list(networks)
    scenarios = list(scenarios)
    tasks = [
        (
            (network.name, scenario.name, daemon, seed),
            {
                "factory": protocol_factory,
                "network": network,
                "scenario": scenario,
                "daemon": daemon,
                "seed": seed,
                "budget": budget,
                "engine": engine,
                "validate_engine": validate_engine,
                "transport": transport,
                "capacity": capacity,
                "model": model,
                "heartbeat": heartbeat,
                "loss_rate": loss_rate,
            },
        )
        for network in grid
        for scenario in scenarios
        for daemon in daemons
        for seed in seeds
    ]
    runs = ParallelExecutor(
        campaign_cell, jobs=jobs, timeout=task_timeout
    ).map(tasks, stop=_violated if stop_on_violation else None)
    raise_failures(runs)
    result = CampaignResult(runs=runs)
    if _telemetry.enabled:
        # Cell-level metrics are published by run_chaos itself (in the
        # pool, inside each task's captured registry), so these are the
        # only parent-side additions.
        reg = _telemetry.registry
        reg.inc("chaos.campaigns")
        reg.inc("chaos.cells", len(runs))
    return result


def _violated(runs: list) -> bool:
    """The stop rule of ``stop_on_violation``: the last cell violated."""
    return getattr(runs[-1], "violation", None) is not None
