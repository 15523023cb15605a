"""Lockstep conformance: the transform against the shared-memory model.

DESIGN.md §13's soundness claim is executable: under the ``eager``
delivery model with no loss, a publication sent at the end of step ``k``
is applied at the start of step ``k+1`` — exactly when a shared-memory
neighbor first reads the step-``k`` write — so the message-passing run
must be *step-for-step identical* to the shared-memory run: the same
daemon selections and the same ground-truth configurations at every
step.  :func:`check_message_conformance` runs both simulators in
lockstep under the same seed and reports the first divergence.

Transient-fault events (corruption, crash/recover, topology churn) may
be injected into *both* runs — the transform syncs corrupted register
images instantly (see :meth:`~repro.messaging.runtime.ViewKernel.
apply_updates`), so equivalence holds across fault boundaries too.  Link
faults obviously cannot be mirrored into the shared-memory run and are
rejected.

The ``async`` delivery model holds messages for random extra steps, so
its runs are *not* step-for-step identical to shared memory and lockstep
is the wrong oracle.  What the transform still owes under async (with
no loss) is checked by ``model="async"``:

* **view authenticity** — every neighbor image a process holds is a
  state the neighbor genuinely published at some earlier point (delayed,
  never fabricated or corrupted in flight);
* **per-link monotonicity** — the applied version on each link never
  decreases (stale deliveries are discarded, reordering cannot roll a
  view back);
* **eventual consistency** — once executions stop (every process
  suppressed) and the network drains, every local view equals the
  ground truth: nothing stays stale forever under heartbeats.

``repro verify`` runs both models as part of the standard battery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import MessagingError
from repro.messaging.runtime import MessageSimulator
from repro.runtime.daemons import Daemon, SynchronousDaemon
from repro.runtime.network import Network
from repro.runtime.protocol import Protocol
from repro.runtime.simulator import Simulator

__all__ = ["ConformanceMismatch", "ConformanceResult", "check_message_conformance"]


@dataclass(frozen=True)
class ConformanceMismatch:
    """First step at which the two models disagreed."""

    step: int
    what: str
    shared: object
    message: object

    def pretty(self) -> str:
        return (
            f"step {self.step}: {self.what} diverged — "
            f"shared-memory {self.shared!r} vs message-passing "
            f"{self.message!r}"
        )


@dataclass
class ConformanceResult:
    """Outcome of a lockstep conformance run."""

    ok: bool
    steps_checked: int
    complete: bool
    counterexamples: list[ConformanceMismatch] = field(default_factory=list)
    stats: object = None

    @property
    def configurations_checked(self) -> int:
        return self.steps_checked


def check_message_conformance(
    protocol: Protocol,
    network: Network,
    *,
    daemon_factory: Callable[[], Daemon] = SynchronousDaemon,
    seed: int = 0,
    max_steps: int = 200,
    events: Sequence = (),
    capacity: int | None = None,
    heartbeat: int | None = None,
    model: str = "eager",
) -> ConformanceResult:
    """Check the message-passing transform against its model's oracle.

    ``model="eager"`` (the default) runs shared-memory and
    message-passing simulators in lockstep and reports the first
    divergence — the DESIGN.md §13 equivalence.  ``model="async"`` runs
    the async-delivery simulator alone and checks the weaker contract
    delayed delivery still owes: view authenticity, per-link version
    monotonicity, and drain-to-consistency (see the module docstring).

    ``events`` is an optional sequence of chaos fault events (sorted by
    ``at_step``); under ``eager`` each is applied to *both* simulators
    at its step.  Only model-agnostic events qualify — an event that
    needs channels (the link-fault family) raises
    :class:`MessagingError` because the comparison would be vacuous.
    """
    if model == "async":
        return _check_async_conformance(
            protocol,
            network,
            daemon_factory=daemon_factory,
            seed=seed,
            max_steps=max_steps,
            events=events,
            capacity=capacity,
            heartbeat=heartbeat,
        )
    if model != "eager":
        raise MessagingError(
            f"unknown conformance model {model!r}; expected 'eager' or 'async'"
        )
    shared = Simulator(
        protocol, network, daemon_factory(), seed=seed, engine="incremental"
    )
    message = MessageSimulator(
        protocol,
        network,
        daemon_factory(),
        seed=seed,
        model="eager",
        loss_rate=0.0,
        capacity=capacity,
        heartbeat=heartbeat,
    )

    queue = sorted(events, key=lambda e: e.at_step)
    for event in queue:
        if getattr(event, "link_fault", False):
            raise MessagingError(
                f"conformance cannot mirror link fault {event.kind!r} "
                f"into the shared-memory run"
            )

    mismatches: list[ConformanceMismatch] = []
    steps = 0
    complete = True
    while steps < max_steps:
        while queue and queue[0].at_step <= steps:
            event = queue.pop(0)
            _, followups_a = event.apply(shared)
            _, _ = event.apply(message)
            for extra in followups_a:
                queue.append(extra)
            queue.sort(key=lambda e: e.at_step)
        rec_shared = shared.step()
        rec_message = message.step()
        if rec_shared is None or rec_message is None:
            if (rec_shared is None) != (rec_message is None):
                mismatches.append(
                    ConformanceMismatch(
                        steps,
                        "termination",
                        "terminal" if rec_shared is None else "running",
                        "terminal" if rec_message is None else "running",
                    )
                )
            complete = rec_shared is None and rec_message is None
            break
        steps += 1
        if rec_shared.selection != rec_message.selection:
            mismatches.append(
                ConformanceMismatch(
                    steps - 1,
                    "selection",
                    rec_shared.selection,
                    rec_message.selection,
                )
            )
            break
        if shared.configuration != message.configuration:
            diff = [
                p
                for p in network.nodes
                if shared.configuration[p] != message.configuration[p]
            ]
            mismatches.append(
                ConformanceMismatch(
                    steps - 1,
                    f"configuration (nodes {diff})",
                    tuple(shared.configuration[p] for p in diff),
                    tuple(message.configuration[p] for p in diff),
                )
            )
            break
    return ConformanceResult(
        ok=not mismatches,
        steps_checked=steps,
        complete=complete and not mismatches,
        counterexamples=mismatches,
    )


def _check_async_conformance(
    protocol: Protocol,
    network: Network,
    *,
    daemon_factory: Callable[[], Daemon],
    seed: int,
    max_steps: int,
    events: Sequence,
    capacity: int | None,
    heartbeat: int | None,
) -> ConformanceResult:
    """Async-model contract: authentic, monotone, eventually consistent."""
    message = MessageSimulator(
        protocol,
        network,
        daemon_factory(),
        seed=seed,
        model="async",
        loss_rate=0.0,
        capacity=capacity,
        heartbeat=heartbeat,
    )

    queue = sorted(events, key=lambda e: e.at_step)
    for event in queue:
        if getattr(event, "link_fault", False):
            raise MessagingError(
                f"conformance cannot check link fault {event.kind!r}: it "
                f"breaks the no-loss premise of the async contract"
            )

    # Every ground-truth state each process has ever held — the set a
    # delayed-but-authentic neighbor image must come from.  Fault events
    # (corruption, churn re-domaining) legitimately rewrite truth, so
    # the history is refreshed after each event too.
    history: dict[int, set] = {
        p: {message.configuration[p]} for p in network.nodes
    }

    def record_truth() -> None:
        config = message.configuration
        for p in message.network.nodes:
            history[p].add(config[p])

    floors = dict(message._kernel.applied)
    mismatches: list[ConformanceMismatch] = []
    steps = 0

    def check_invariants() -> None:
        config_net = message.network
        for v in config_net.nodes:
            view = message.view(v)
            for u, state in view.items():
                if u == v:
                    continue
                if state not in history[u]:
                    mismatches.append(
                        ConformanceMismatch(
                            steps,
                            f"view authenticity (link ({u}, {v}))",
                            f"some state {u} actually published",
                            state,
                        )
                    )
                    return
        for link, version in message._kernel.applied.items():
            floor = floors.get(link)
            if floor is not None and version < floor:
                mismatches.append(
                    ConformanceMismatch(
                        steps,
                        f"version monotonicity (link {link})",
                        floor,
                        version,
                    )
                )
                return
            floors[link] = version

    while steps < max_steps:
        while queue and queue[0].at_step <= steps:
            event = queue.pop(0)
            _, followups = event.apply(message)
            for extra in followups:
                queue.append(extra)
            queue.sort(key=lambda e: e.at_step)
            record_truth()
        record = message.step()
        if record is None:
            break
        steps += 1
        record_truth()
        check_invariants()
        if mismatches:
            break

    complete = not mismatches
    if not mismatches:
        # Drain: stop all executions (recover crashed processes first —
        # a crashed sender cannot retransmit, so its links may be
        # legitimately stale) and let heartbeats flush every channel;
        # afterwards each view must equal the ground truth exactly.
        message.recover()
        message.suppress(message.network.nodes)
        budget = max_steps + 200
        while budget and not message._network_quiet():
            message.step()
            budget -= 1
        if not message._network_quiet():
            complete = False
            mismatches.append(
                ConformanceMismatch(
                    steps,
                    "drain",
                    "a quiet network within the budget",
                    f"{message.in_flight()} message(s) still in flight",
                )
            )
        else:
            truth = message.configuration
            for v in message.network.nodes:
                view = message.view(v)
                for u in message.network.neighbors(v):
                    if view.get(u) != truth[u]:
                        mismatches.append(
                            ConformanceMismatch(
                                steps,
                                f"settled view (link ({u}, {v}))",
                                truth[u],
                                view.get(u),
                            )
                        )
    return ConformanceResult(
        ok=not mismatches,
        steps_checked=steps,
        complete=complete and not mismatches,
        counterexamples=mismatches,
    )
