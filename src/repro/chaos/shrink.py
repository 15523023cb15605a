"""Counterexample shrinking and the regression corpus.

When a campaign run violates the PIF specification, its *tape* — the
interleaved record of daemon selections and resolved fault events — is a
complete, deterministic reproducer, but usually a long one.
:func:`shrink_run` minimizes it with the classic ddmin delta-debugging
algorithm: candidate sub-tapes are re-replayed through a
:class:`~repro.runtime.daemons.ReplayDaemon` (fault entries applied
between the scheduled steps) and a candidate survives only if it
reproduces the *identical* violation message.  The result is a locally
minimal :class:`Repro` artifact: removing any single tested chunk makes
the violation disappear.

Reproducers serialize to small JSON files under ``tests/corpus/`` and
are replayed forever after by tier-1 (:func:`replay_repro`), so a
once-found protocol bug can never silently return.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro import telemetry as _telemetry
from repro.chaos.campaign import ChaosRun, make_simulator
from repro.chaos.events import event_from_dict
from repro.core.monitor import PifCycleMonitor
from repro.errors import ReplayError, ReproError
from repro.runtime.daemons import ReplayDaemon
from repro.runtime.network import Network
from repro.runtime.protocol import Protocol

__all__ = [
    "replay_tape",
    "ddmin",
    "shrink_entry_payloads",
    "Repro",
    "shrink_run",
    "shrink_sweep",
    "falsify",
    "save_repro",
    "load_repro",
    "network_from_adjacency",
    "replay_repro",
]


def replay_tape(
    protocol: Protocol,
    network: Network,
    tape: Sequence[Mapping],
    *,
    strict: bool = False,
    validate_engine: bool | None = None,
    transport: str = "shared-memory",
    seed: int = 0,
    capacity: int | None = None,
    model: str | None = None,
    heartbeat: int | None = None,
    loss_rate: float = 0.0,
) -> str | None:
    """Deterministically re-execute a tape; return the violation message.

    Steps are driven through a :class:`ReplayDaemon`; fault entries are
    applied between them exactly as recorded (``swap-daemon`` entries
    are no-ops — the schedule already encodes the swapped daemon's
    choices).  Returns the first violation message, or ``None`` if the
    tape replays cleanly.

    The transport comes from outside (a corpus file): one other than
    ``"shared-memory"`` and ``"message"`` raises
    :class:`~repro.errors.MessagingError` whatever ``strict`` says.
    ``transport="message"`` replays over the message-passing runtime
    with the recorded knobs and — crucially — the recorded ``seed``:
    the per-step delivery and publish-loss RNGs are stateless functions
    of ``(seed, step)``, so the same seed re-rolls the same losses at
    the same steps.  Idle steps (recorded with an empty selection) do
    not consult the daemon, so only non-empty selections enter the
    replay schedule; each executed step is then compared against its
    recorded selection and any mismatch raises a *diverged*
    :class:`~repro.errors.ReplayError`.

    With ``strict=False`` (the shrinker's oracle mode), a tape that
    *diverges* — a recorded selection no longer enabled, a stall with
    steps left — counts as "does not reproduce" and returns ``None``;
    with ``strict=True`` the underlying
    :class:`~repro.errors.ReplayError` propagates.
    """
    messaging = transport == "message"
    schedule = [
        {int(p): str(name) for p, name in item["selection"].items()}
        for item in tape
        if item["kind"] == "step"
        and (not messaging or item["selection"])
    ]
    monitor = PifCycleMonitor(protocol, network)
    sim = make_simulator(
        transport,
        protocol,
        network,
        ReplayDaemon(schedule),
        seed=seed,
        monitors=[monitor],
        validate_engine=validate_engine,
        capacity=capacity,
        model=model,
        heartbeat=heartbeat,
        loss_rate=loss_rate,
    )
    step_index = 0
    try:
        for item in tape:
            if item["kind"] == "fault":
                event = event_from_dict(item["event"])
                if event.kind != "swap-daemon":
                    event.apply(sim)
            elif item["kind"] == "step":
                record = sim.step()
                if record is None:
                    raise ReplayError(
                        f"replay stalled before scheduled step {step_index} "
                        f"(crashed: {sorted(sim.crashed)})",
                        step_index=step_index,
                        reason="stalled",
                    )
                if messaging:
                    replayed = {
                        str(p): name for p, name in record.selection.items()
                    }
                    if replayed != dict(item["selection"]):
                        raise ReplayError(
                            f"replay diverged at step {step_index}: "
                            f"recorded {dict(item['selection'])!r}, "
                            f"replayed {replayed!r}",
                            step_index=step_index,
                            reason="diverged",
                        )
                step_index += 1
            else:
                raise ReproError(f"malformed tape entry: {item!r}")
            for report in monitor.reports:
                if report.violations:
                    return report.violations[0]
    except ReproError:
        if strict:
            raise
        return None
    return None


def _record_shrink_test(candidate_entries: int, accepted: bool) -> None:
    """Stream one shrink-oracle evaluation into telemetry.

    Emitted per candidate replay from both shrinking passes, so live
    dashboards see shrink *progress* rather than only the end-of-run
    totals :func:`shrink_run` publishes.  Counters and a histogram
    only — both merge deterministically across workers, keeping the
    aggregated snapshot bit-identical across ``jobs``.
    """
    if not _telemetry.enabled:
        return
    reg = _telemetry.registry
    reg.inc("chaos.shrink.tests")
    reg.observe("chaos.shrink.candidate_entries", candidate_entries)
    if accepted:
        reg.inc("chaos.shrink.accepted")


def ddmin(
    items: list,
    test: Callable[[list], bool],
    *,
    max_tests: int = 1000,
) -> tuple[list, int]:
    """Zeller–Hildebrandt delta debugging over a list of tape entries.

    ``test(candidate)`` must return True when the candidate still
    reproduces the failure; ``test(items)`` is assumed True.  Returns
    ``(minimal, tests_run)``; when the test budget runs out the
    best-so-far reduction is returned (still a valid reproducer, merely
    not guaranteed 1-minimal).
    """
    tests_run = 0

    def check(candidate: list) -> bool:
        nonlocal tests_run
        tests_run += 1
        ok = test(candidate)
        _record_shrink_test(len(candidate), ok)
        return ok

    granularity = 2
    while len(items) >= 2 and tests_run < max_tests:
        size = len(items) // granularity
        chunks = [
            items[i : i + size] for i in range(0, len(items), size)
        ] if size else [items]
        reduced = False

        for chunk in chunks:
            if tests_run >= max_tests:
                return items, tests_run
            if len(chunk) < len(items) and check(chunk):
                items = chunk
                granularity = 2
                reduced = True
                break

        if not reduced and granularity > 2:
            for index in range(len(chunks)):
                if tests_run >= max_tests:
                    return items, tests_run
                complement = [
                    entry
                    for j, chunk in enumerate(chunks)
                    if j != index
                    for entry in chunk
                ]
                if len(complement) < len(items) and check(complement):
                    items = complement
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break

        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items, tests_run


def _entry_reductions(entry: Mapping, all_nodes: Sequence[int]):
    """Smaller same-position variants of one tape entry, in deterministic order.

    * A multi-node **step** sheds one selected processor at a time
      (canonicalization: the surviving selection is what the violation
      actually needs, not what the daemon happened to pick).
    * A **fault** event with an explicit multi-node victim list sheds one
      victim at a time (magnitude lowering).
    * An *unpinned* ``corrupt`` event (``nodes`` absent: victims are
      re-derived from the seed at replay) is offered pinned to each
      single node — the strongest magnitude reduction, and it makes the
      reproducer's blast radius explicit in the artifact.
    """
    if entry["kind"] == "step":
        selection = entry["selection"]
        if len(selection) > 1:
            for node in sorted(selection, key=int):
                yield {
                    "kind": "step",
                    "selection": {
                        p: a for p, a in selection.items() if p != node
                    },
                }
    elif entry["kind"] == "fault":
        event = entry["event"]
        nodes = event.get("nodes")
        if isinstance(nodes, list) and len(nodes) > 1:
            for node in nodes:
                smaller = dict(event)
                smaller["nodes"] = [q for q in nodes if q != node]
                yield {"kind": "fault", "event": smaller}
        elif nodes is None and event.get("kind") == "corrupt":
            for node in sorted(all_nodes):
                pinned = dict(event)
                pinned["nodes"] = [node]
                yield {"kind": "fault", "event": pinned}


def shrink_entry_payloads(
    tape: Sequence[Mapping],
    test: Callable[[list], bool],
    *,
    nodes: Sequence[int] = (),
    max_tests: int = 1000,
) -> tuple[list, int]:
    """Second shrinking pass: minimize *inside* the surviving entries.

    ddmin removes whole tape entries; this pass then greedily applies
    :func:`_entry_reductions` to each entry in turn, keeping a reduction
    only when ``test`` confirms the identical violation still
    reproduces, and repeats to a fixpoint (or until ``max_tests``
    oracle calls).  The entry count never changes, so the result is
    never larger than its input — it is the same reproducer with
    smaller selections and smaller fault blast radii.

    ``nodes`` is the network's node set, needed to propose singleton
    pinnings for unpinned ``corrupt`` events.
    """
    items = list(tape)
    tests_run = 0
    progress = True
    while progress and tests_run < max_tests:
        progress = False
        for index in range(len(items)):
            for candidate in _entry_reductions(items[index], nodes):
                if tests_run >= max_tests:
                    return items, tests_run
                trial = items[:index] + [candidate] + items[index + 1 :]
                tests_run += 1
                ok = test(trial)
                _record_shrink_test(len(trial), ok)
                if ok:
                    items = trial
                    progress = True
                    break
    return items, tests_run


@dataclass
class Repro:
    """A minimized, self-contained, deterministic reproducer."""

    protocol: str
    topology: str
    #: Node → neighbor list *in local order* (rebuilds the exact network).
    adjacency: dict[int, list[int]]
    root: int
    scenario: str
    daemon: str
    seed: int
    violation: str
    original_entries: int
    shrunk_entries: int
    shrink_tests: int
    tape: list[dict] = field(default_factory=list)
    #: Transport the run was recorded under; ``"message"`` reproducers
    #: carry their resolved channel knobs so replay re-rolls the exact
    #: same delivery/loss coins.  Defaults keep pre-messaging corpus
    #: files loading unchanged.
    transport: str = "shared-memory"
    capacity: int | None = None
    model: str | None = None
    heartbeat: int | None = None
    loss_rate: float = 0.0

    @property
    def strictly_smaller(self) -> bool:
        """The shrinker actually removed something."""
        return self.shrunk_entries < self.original_entries


def shrink_run(
    protocol: Protocol,
    run: ChaosRun,
    *,
    max_tests: int = 1000,
) -> Repro | None:
    """Minimize a violating run's tape into a :class:`Repro`.

    The oracle accepts a candidate only if it replays to the *identical*
    violation message.  After ddmin has removed every removable entry, a
    second pass (:func:`shrink_entry_payloads`) minimizes inside the
    survivors — dropping processors from multi-node steps and lowering
    fault magnitudes — under the same oracle and the same shared test
    budget.  Returns ``None`` when the original tape itself fails to
    re-reproduce (which would indicate nondeterminism — worth a bug
    report of its own).
    """
    if run.ok or run.network is None:
        raise ReproError("shrink_run needs a violating run with its network")
    network = run.network
    target = run.violation

    def reproduces(candidate: list) -> bool:
        return (
            replay_tape(
                protocol,
                network,
                candidate,
                transport=run.transport,
                seed=run.seed if run.transport == "message" else 0,
                capacity=run.capacity,
                model=run.model,
                heartbeat=run.heartbeat,
                loss_rate=run.loss_rate,
            )
            == target
        )

    if not reproduces(run.tape):
        return None
    with _telemetry.span("chaos.shrink") as shrink_span:
        minimal, tests_run = ddmin(
            list(run.tape), reproduces, max_tests=max_tests
        )
        minimal, payload_tests = shrink_entry_payloads(
            minimal,
            reproduces,
            nodes=list(network.nodes),
            max_tests=max(0, max_tests - tests_run),
        )
        tests_run += payload_tests
        shrink_span.set("scenario", run.scenario).set("tests", tests_run)
    if _telemetry.enabled:
        reg = _telemetry.registry
        reg.inc("chaos.shrinks")
        reg.inc("chaos.shrink_iterations", tests_run)
        reg.inc("chaos.shrink_entries_removed",
                len(run.tape) - len(minimal))
    return Repro(
        protocol=run.protocol_name,
        topology=network.name,
        adjacency={p: list(network.neighbors(p)) for p in network.nodes},
        root=run.root,
        scenario=run.scenario,
        daemon=run.daemon,
        seed=run.seed,
        violation=target,
        original_entries=len(run.tape),
        shrunk_entries=len(minimal),
        shrink_tests=tests_run + 1,
        tape=minimal,
        transport=run.transport,
        capacity=run.capacity,
        model=run.model,
        heartbeat=run.heartbeat,
        loss_rate=run.loss_rate,
    )


def falsify(
    protocol_factory: Callable[..., Protocol],
    networks: Sequence[Network],
    scenarios: Sequence,
    *,
    daemons: Sequence[str] = ("central", "adversarial", "distributed-random"),
    seeds: Sequence[int] = (0, 1, 2),
    budget: int = 400,
    max_tests: int = 3000,
    require_strictly_smaller: bool = True,
    transport: str = "shared-memory",
    capacity: int | None = None,
    model: str | None = None,
    heartbeat: int | None = None,
    loss_rate: float = 0.0,
) -> Repro | None:
    """Hunt the grid for a violation and return its shrunk reproducer.

    Sweeps ``networks × daemons × seeds × scenarios`` (in that nesting)
    until a violating run shrinks to a reproducer — by default one that
    is *strictly smaller* than the original failing tape, so violations
    whose first witness is already minimal keep being hunted until a
    witness with removable slack turns up.  Returns ``None`` when the
    whole grid passes (the protocol survived falsification).
    """
    from repro.chaos.campaign import run_chaos

    for network in networks:
        protocol = protocol_factory(network)
        for daemon in daemons:
            for seed in seeds:
                for scenario in scenarios:
                    run = run_chaos(
                        protocol,
                        network,
                        scenario,
                        daemon=daemon,
                        seed=seed,
                        budget=budget,
                        transport=transport,
                        capacity=capacity,
                        model=model,
                        heartbeat=heartbeat,
                        loss_rate=loss_rate,
                    )
                    if run.ok:
                        continue
                    repro = shrink_run(protocol, run, max_tests=max_tests)
                    if repro is None:
                        continue
                    if repro.strictly_smaller or not require_strictly_smaller:
                        return repro
    return None


def shrink_sweep(
    protocol_factory: Callable[..., Protocol],
    networks: Sequence[Network],
    scenarios: Sequence,
    *,
    daemons: Sequence[str] = ("central",),
    seeds: Sequence[int] = (0,),
    budget: int = 400,
    max_tests: int = 1000,
    transport: str = "shared-memory",
    capacity: int | None = None,
    model: str | None = None,
    heartbeat: int | None = None,
    loss_rate: float = 0.0,
    jobs: int | None = None,
    task_timeout: float | None = None,
) -> list[Repro | None]:
    """Shrink every violating cell of a ``networks × daemons × seeds ×
    scenarios`` grid.

    Unlike :func:`falsify` (first reproducer wins), the sweep processes
    the *whole* grid and returns one entry per cell in grid order:
    the shrunk :class:`Repro` for violating cells, ``None`` for cells
    that pass (or whose tape fails to re-reproduce).  Every cell is one
    task of :meth:`~repro.parallel.executor.ParallelExecutor.map`:
    ``jobs`` (``None`` falls back to ``REPRO_JOBS``) of 2 or more fans
    the cells out across the process pool, otherwise they run in the
    in-process serial loop.  Each cell is an independent deterministic
    run-then-shrink, results keep grid order, and each pool task's
    shrink telemetry is captured and merged in that same order — so the
    reproducers *and* the aggregated deterministic metrics are
    bit-identical across job counts.
    """
    from repro.parallel.executor import ParallelExecutor, raise_failures
    from repro.parallel.workers import shrink_cell

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
                "max_tests": max_tests,
                "transport": transport,
                "capacity": capacity,
                "model": model,
                "heartbeat": heartbeat,
                "loss_rate": loss_rate,
            },
        )
        for network in networks
        for daemon in daemons
        for seed in seeds
        for scenario in scenarios
    ]
    outcomes = ParallelExecutor(
        shrink_cell, jobs=jobs, timeout=task_timeout
    ).map(tasks)
    raise_failures(outcomes)
    return outcomes


# ----------------------------------------------------------------------
# Corpus persistence
# ----------------------------------------------------------------------
def save_repro(repro: Repro, path: str | Path) -> None:
    """Write a reproducer as indented JSON (corpus-friendly diffs)."""
    payload = asdict(repro)
    payload["adjacency"] = {
        str(p): neighbors for p, neighbors in repro.adjacency.items()
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_repro(path: str | Path) -> Repro:
    """Read a reproducer written by :func:`save_repro`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        payload["adjacency"] = {
            int(p): [int(q) for q in neighbors]
            for p, neighbors in payload["adjacency"].items()
        }
        return Repro(**payload)
    except (KeyError, TypeError, ValueError):
        raise ReproError(f"malformed reproducer file: {path}") from None


def network_from_adjacency(
    adjacency: Mapping[int, Sequence[int]], name: str
) -> Network:
    """Rebuild a network preserving the recorded local neighbor orders."""
    return Network(
        {p: tuple(qs) for p, qs in adjacency.items()},
        neighbor_orders={p: list(qs) for p, qs in adjacency.items()},
        name=name,
    )


def replay_repro(
    repro: Repro,
    protocol_registry: Mapping[str, Callable[[Network, int], Protocol]],
    *,
    validate_engine: bool | None = None,
) -> str | None:
    """Replay a corpus reproducer and return the violation it produces.

    ``protocol_registry`` maps protocol names (``Repro.protocol``) to
    ``(network, root) -> Protocol`` factories; mutants used by the
    falsifiability tests register here too.  Replay is strict: a
    diverging tape raises :class:`~repro.errors.ReplayError` instead of
    silently passing.
    """
    factory = protocol_registry.get(repro.protocol)
    if factory is None:
        raise ReproError(
            f"no protocol factory registered for {repro.protocol!r}; "
            f"known: {sorted(protocol_registry)}"
        )
    network = network_from_adjacency(repro.adjacency, repro.topology)
    protocol = factory(network, repro.root)
    return replay_tape(
        protocol,
        network,
        repro.tape,
        strict=True,
        validate_engine=validate_engine,
        transport=repro.transport,
        seed=repro.seed if repro.transport == "message" else 0,
        capacity=repro.capacity,
        model=repro.model,
        heartbeat=repro.heartbeat,
        loss_rate=repro.loss_rate,
    )
