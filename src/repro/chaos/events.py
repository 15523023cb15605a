"""Declarative mid-run fault events.

A :class:`FaultEvent` is one adversarial act against a live
:class:`~repro.runtime.simulator.Simulator`: memory corruption, a
processor crash or recovery, a link flip, or a scheduler change.  Events
are immutable, JSON-round-trippable values scheduled at a step count
(``at_step``) and resolved *deterministically* — every random choice an
event makes (which nodes to corrupt, which edge to cut) is drawn from a
``Random`` seeded by the event's own ``seed`` field, so replaying the
same event against the same runtime state reproduces the same act
bit-for-bit.

:meth:`FaultEvent.apply` hits a simulator and returns
``(resolved, followups)``:

* ``resolved`` — the event as actually applied (random targets pinned to
  explicit ones where that keeps replay deterministic), suitable for the
  campaign *tape*; ``None`` when the event was a no-op (e.g. a link
  removal that found only bridges) and should not be recorded;
* ``followups`` — events the application itself schedules (a
  :class:`CrashNodes` with a ``duration`` plants its own
  :class:`RecoverNodes`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, ClassVar, Mapping

from repro.errors import MessagingError, ReproError, TopologyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.simulator import Simulator

__all__ = [
    "FaultEvent",
    "CorruptNodes",
    "CrashNodes",
    "RecoverNodes",
    "RemoveLink",
    "AddLink",
    "SwapDaemon",
    "SuppressGuards",
    "ReleaseGuards",
    "ByzantineNode",
    "DropMessage",
    "DuplicateMessage",
    "ReorderWindow",
    "DelayLink",
    "EVENT_KINDS",
    "event_from_dict",
]

#: ``kind`` string -> event class, for deserialization.
EVENT_KINDS: dict[str, type["FaultEvent"]] = {}


def _register(cls: type["FaultEvent"]) -> type["FaultEvent"]:
    EVENT_KINDS[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class FaultEvent:
    """Base class: a scheduled, seeded, serializable fault.

    ``at_step`` is the step count at (or after) which the event fires;
    ``seed`` pins the event's own random choices (``None`` means "to be
    assigned by :meth:`FaultScenario.seeded` before the run").
    """

    kind: ClassVar[str] = "fault"
    #: True for the link-fault family, which needs a simulator with
    #: channels (:class:`~repro.messaging.MessageSimulator`) and cannot
    #: be mirrored into a shared-memory run.
    link_fault: ClassVar[bool] = False

    at_step: int = 0
    seed: int | None = None

    # ------------------------------------------------------------------
    # Composition helpers
    # ------------------------------------------------------------------
    def shift(self, delta: int) -> "FaultEvent":
        """Return a copy scheduled ``delta`` steps later."""
        return dataclasses.replace(self, at_step=self.at_step + delta)

    def seeded(self, seed: int) -> "FaultEvent":
        """Pin the event's RNG seed (no-op if already pinned)."""
        if self.seed is not None:
            return self
        return dataclasses.replace(self, seed=seed)

    def _rng(self) -> Random:
        return Random(0 if self.seed is None else self.seed)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        """Apply to a live simulator; see the module docstring."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready payload (``kind`` plus the non-``None`` fields)."""
        payload: dict = {"kind": self.kind}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload


def event_from_dict(payload: Mapping) -> FaultEvent:
    """Rebuild an event from :meth:`FaultEvent.to_dict` output."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ReproError(
            f"unknown fault event kind {kind!r}; known: {sorted(EVENT_KINDS)}"
        )
    valid = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in valid:
            raise ReproError(f"unknown field {key!r} for event kind {kind!r}")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


@_register
@dataclass(frozen=True)
class CorruptNodes(FaultEvent):
    """Overwrite processor memories with random in-domain garbage.

    ``mode="random"`` (the default) redraws each victim's state via the
    protocol's ``random_state``; victims are ``nodes`` when given, else
    each node independently with probability ``fraction`` (at least
    one).  Any other mode name is delegated to
    :class:`~repro.analysis.faults.FaultInjector` (``uniform``,
    ``fake_wave``, ``stale_feedback``, …) and replaces the *whole*
    configuration.

    The resolved tape event is the event itself: replaying it re-derives
    the same victims and the same garbage from ``seed``.
    """

    kind: ClassVar[str] = "corrupt"

    mode: str = "random"
    fraction: float = 0.35
    nodes: tuple[int, ...] | None = None

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        rng = self._rng()
        if self.mode == "random":
            if self.nodes is not None:
                victims = [p for p in self.nodes if p in sim.network.nodes]
            else:
                victims = [
                    p
                    for p in sim.network.nodes
                    if rng.random() < self.fraction
                ]
                if not victims:
                    victims = [rng.choice(list(sim.network.nodes))]
            updates = {
                p: sim.protocol.random_state(p, sim.network, rng)
                for p in sorted(victims)
            }
            changed = sim.perturb_configuration(updates)
            if not changed:
                return None, ()
            return self, ()
        injector = self._injector(sim)
        sim.reset_configuration(injector.generate(self.mode, rng.randrange(1 << 30)))
        return self, ()

    @staticmethod
    def _injector(sim: "Simulator"):
        from repro.analysis.faults import FaultInjector

        constants = getattr(sim.protocol, "constants", None)
        if constants is None:
            raise ReproError(
                "whole-configuration fault modes require a protocol with "
                "PIF constants; use mode='random'"
            )
        return FaultInjector(sim.protocol, sim.network, constants)


@_register
@dataclass(frozen=True)
class CrashNodes(FaultEvent):
    """Crash processors (fail-stop; memory stays readable by neighbors).

    Victims are ``nodes`` when given, else ``count`` nodes sampled from
    the currently alive ones.  With a ``duration``, the event plants a
    :class:`RecoverNodes` follow-up ``duration`` steps after the crash;
    the resolved tape event pins the victims and drops the duration (the
    recovery lands on the tape as its own entry when it fires).
    """

    kind: ClassVar[str] = "crash"

    nodes: tuple[int, ...] | None = None
    count: int = 1
    duration: int | None = None

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        if self.nodes is not None:
            victims = frozenset(self.nodes)
        else:
            rng = self._rng()
            alive = sorted(set(sim.network.nodes) - sim.crashed)
            if not alive:
                return None, ()
            victims = frozenset(rng.sample(alive, min(self.count, len(alive))))
        newly = sim.crash(victims)
        if not newly:
            return None, ()
        followups: tuple[FaultEvent, ...] = ()
        if self.duration is not None:
            followups = (
                RecoverNodes(
                    at_step=sim.steps + self.duration,
                    nodes=tuple(sorted(newly)),
                ),
            )
        resolved = dataclasses.replace(
            self, nodes=tuple(sorted(newly)), duration=None
        )
        return resolved, followups


@_register
@dataclass(frozen=True)
class RecoverNodes(FaultEvent):
    """Recover crashed processors (all currently crashed when ``nodes`` is None)."""

    kind: ClassVar[str] = "recover"

    nodes: tuple[int, ...] | None = None

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        back = sim.recover(self.nodes)
        if not back:
            return None, ()
        return dataclasses.replace(self, nodes=tuple(sorted(back))), ()


@_register
@dataclass(frozen=True)
class RemoveLink(FaultEvent):
    """Cut one link, never disconnecting the network.

    With explicit endpoints the cut is attempted literally (skipped when
    the edge is absent or a bridge).  Otherwise the event walks the
    current edges in seeded-random order and cuts the first non-bridge;
    the resolved tape event pins the chosen endpoints.
    """

    kind: ClassVar[str] = "remove-link"

    u: int | None = None
    v: int | None = None

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        net = sim.network
        if self.u is not None and self.v is not None:
            candidates = [(self.u, self.v)]
        else:
            rng = self._rng()
            candidates = sorted(net.edges())
            rng.shuffle(candidates)
        for a, b in candidates:
            if not net.has_edge(a, b):
                continue
            try:
                successor = net.without_edge(a, b)
            except TopologyError:
                continue  # removing (a, b) would disconnect the network
            sim.apply_topology(successor)
            return dataclasses.replace(self, u=a, v=b), ()
        return None, ()


@_register
@dataclass(frozen=True)
class AddLink(FaultEvent):
    """Add one link between currently non-adjacent processors.

    With explicit endpoints the addition is attempted literally (skipped
    when the edge already exists).  Otherwise a seeded-random non-edge
    is chosen; the resolved tape event pins the endpoints.
    """

    kind: ClassVar[str] = "add-link"

    u: int | None = None
    v: int | None = None

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        net = sim.network
        if self.u is not None and self.v is not None:
            candidates = [(self.u, self.v)]
        else:
            rng = self._rng()
            candidates = sorted(
                (p, q)
                for p in net.nodes
                for q in net.nodes
                if p < q and not net.has_edge(p, q)
            )
            rng.shuffle(candidates)
        for a, b in candidates:
            if a == b or net.has_edge(a, b):
                continue
            sim.apply_topology(net.with_edge(a, b))
            return dataclasses.replace(self, u=a, v=b), ()
        return None, ()


@_register
@dataclass(frozen=True)
class SwapDaemon(FaultEvent):
    """Swap the scheduler mid-run (the adversary changes strategy).

    ``daemon`` names an entry of
    :data:`repro.chaos.campaign.DAEMON_FACTORIES`.  During tape replay
    this event is a no-op — the replayed schedule already encodes every
    selection the new daemon made.
    """

    kind: ClassVar[str] = "swap-daemon"

    daemon: str = "synchronous"

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        from repro.chaos.campaign import make_daemon

        sim.swap_daemon(make_daemon(self.daemon))
        return self, ()


@_register
@dataclass(frozen=True)
class SuppressGuards(FaultEvent):
    """Suppress processors' moves — the shared-memory loss analogue.

    A lossy link in the message model makes a processor's writes fail
    to reach its neighbors; the closest shared-memory rendition is a
    processor whose enabled guards are never granted (its memory stays
    readable, it just cannot act).  Mirrors :class:`CrashNodes`'s
    surface: victims are ``nodes`` when given, else ``count`` sampled
    from the currently unsuppressed ones; with a ``duration`` the event
    plants a :class:`ReleaseGuards` follow-up.
    """

    kind: ClassVar[str] = "suppress-guards"

    nodes: tuple[int, ...] | None = None
    count: int = 1
    duration: int | None = None

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        if self.nodes is not None:
            victims = frozenset(self.nodes)
        else:
            rng = self._rng()
            candidates = sorted(
                set(sim.network.nodes) - sim.suppressed - sim.crashed
            )
            if not candidates:
                return None, ()
            victims = frozenset(
                rng.sample(candidates, min(self.count, len(candidates)))
            )
        newly = sim.suppress(victims)
        if not newly:
            return None, ()
        followups: tuple[FaultEvent, ...] = ()
        if self.duration is not None:
            followups = (
                ReleaseGuards(
                    at_step=sim.steps + self.duration,
                    nodes=tuple(sorted(newly)),
                ),
            )
        resolved = dataclasses.replace(
            self, nodes=tuple(sorted(newly)), duration=None
        )
        return resolved, followups


@_register
@dataclass(frozen=True)
class ReleaseGuards(FaultEvent):
    """Release guard suppression (all suppressed when ``nodes`` is None)."""

    kind: ClassVar[str] = "release-guards"

    nodes: tuple[int, ...] | None = None

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        back = sim.release(self.nodes)
        if not back:
            return None, ()
        return dataclasses.replace(self, nodes=tuple(sorted(back))), ()


@_register
@dataclass(frozen=True)
class ByzantineNode(FaultEvent):
    """One node writes seeded arbitrary garbage to its registers each step.

    A bounded byzantine adversary: for ``duration`` consecutive steps
    the (pinned or seeded-chosen) victim's register state is redrawn
    via the protocol's ``random_state`` — every firing chains the next
    one as a follow-up with a derived seed, so each step's garbage is
    fresh yet fully replay-deterministic.  Each firing lands on the
    tape as its own resolved single-step event (replay ignores
    follow-ups; the chain is already recorded).  When the storm
    expires the node follows the real protocol again — from garbage,
    which is exactly the transient-fault state snap-stabilization
    absorbs — and waves started after that point must satisfy the
    specification on the non-byzantine remainder (the
    :class:`~repro.core.monitor.PifCycleMonitor` ``quarantine``
    parameter excludes the victim from the wave-subtree accounting).
    """

    kind: ClassVar[str] = "byzantine"

    node: int | None = None
    duration: int = 8

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        rng = self._rng()
        if self.node is not None:
            if self.node not in sim.network.nodes:
                return None, ()
            victim = self.node
        else:
            candidates = sorted(set(sim.network.nodes) - sim.crashed)
            if not candidates:
                return None, ()
            victim = rng.choice(candidates)
        changed = sim.perturb_configuration(
            {victim: sim.protocol.random_state(victim, sim.network, rng)}
        )
        followups: tuple[FaultEvent, ...] = ()
        if self.duration > 1:
            base = 0 if self.seed is None else self.seed
            followups = (
                dataclasses.replace(
                    self,
                    at_step=sim.steps + 1,
                    node=victim,
                    duration=self.duration - 1,
                    seed=base * 31 + 17,
                ),
            )
        if not changed:
            return None, followups
        resolved = dataclasses.replace(self, node=victim, duration=1)
        return resolved, followups


def _channels_or_raise(sim: "Simulator", kind: str):
    from repro.messaging.runtime import MessageSimulator

    if not isinstance(sim, MessageSimulator):
        raise MessagingError(
            f"fault event {kind!r} needs a message-passing simulator "
            f"(per-link channels); this run uses the shared-memory model"
        )
    return sim.channels


def _pick_link(
    sim: "Simulator",
    kind: str,
    u: int | None,
    v: int | None,
    rng: Random,
    *,
    nonempty: bool,
) -> tuple[int, int] | None:
    """Choose the target link: pinned endpoints or a seeded choice.

    Unpinned events stay unpinned on the tape (like unpinned
    ``corrupt``): replaying the tape re-creates the exact channel state
    at this point, so the same seed re-derives the same link — pinning
    would instead shift the event's RNG stream between record and
    replay.
    """
    channels = _channels_or_raise(sim, kind)
    if u is not None and v is not None:
        link = (u, v)
        if link not in channels:
            return None
        if nonempty and len(channels[link]) == 0:
            return None
        return link
    candidates = [
        link
        for link in sorted(channels)
        if not nonempty or len(channels[link]) > 0
    ]
    if not candidates:
        return None
    return rng.choice(candidates)


@_register
@dataclass(frozen=True)
class DropMessage(FaultEvent):
    """Lose in-flight messages on one link (seeded positions).

    With pinned ``u``/``v`` the drop targets that directed channel
    (skipped when absent or empty); otherwise a seeded choice among the
    currently non-empty channels.  ``count`` bounds how many buffered
    messages are removed.
    """

    kind: ClassVar[str] = "drop-message"
    link_fault: ClassVar[bool] = True

    u: int | None = None
    v: int | None = None
    count: int = 1

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        if self.count < 1:
            return None, ()
        rng = self._rng()
        link = _pick_link(sim, self.kind, self.u, self.v, rng, nonempty=True)
        if link is None:
            return None, ()
        lost = sim.drop_messages(link[0], link[1], self.count, rng)
        if not lost:
            return None, ()
        return self, ()


@_register
@dataclass(frozen=True)
class DuplicateMessage(FaultEvent):
    """Duplicate in-flight messages on one link (copies enqueue at the tail)."""

    kind: ClassVar[str] = "duplicate-message"
    link_fault: ClassVar[bool] = True

    u: int | None = None
    v: int | None = None
    count: int = 1

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        if self.count < 1:
            return None, ()
        rng = self._rng()
        link = _pick_link(sim, self.kind, self.u, self.v, rng, nonempty=True)
        if link is None:
            return None, ()
        copied = sim.duplicate_messages(link[0], link[1], self.count, rng)
        if not copied:
            return None, ()
        return self, ()


@_register
@dataclass(frozen=True)
class ReorderWindow(FaultEvent):
    """Permute the oldest ``window`` in-flight messages on one link."""

    kind: ClassVar[str] = "reorder-window"
    link_fault: ClassVar[bool] = True

    u: int | None = None
    v: int | None = None
    window: int = 3

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        if self.window < 2:
            return None, ()
        rng = self._rng()
        link = _pick_link(sim, self.kind, self.u, self.v, rng, nonempty=True)
        if link is None:
            return None, ()
        permuted = sim.reorder_window(link[0], link[1], self.window, rng)
        if not permuted:
            return None, ()
        return self, ()


@_register
@dataclass(frozen=True)
class DelayLink(FaultEvent):
    """Postpone one link's deliveries by ``delay`` extra steps for a window.

    Bounded delay: sends on the chosen directed channel during the next
    ``duration`` steps arrive ``delay`` steps later than they would
    have.  ``delay`` and ``duration`` must be positive integers
    (:class:`~repro.errors.MessagingError` names bad values).
    """

    kind: ClassVar[str] = "delay-link"
    link_fault: ClassVar[bool] = True

    u: int | None = None
    v: int | None = None
    delay: int = 1
    duration: int = 5

    def apply(
        self, sim: "Simulator"
    ) -> tuple["FaultEvent | None", tuple["FaultEvent", ...]]:
        from repro.messaging.channel import check_positive_int

        check_positive_int(self.delay, name="link delay", source="DelayLink")
        check_positive_int(
            self.duration, name="delay duration", source="DelayLink"
        )
        rng = self._rng()
        link = _pick_link(sim, self.kind, self.u, self.v, rng, nonempty=False)
        if link is None:
            return None, ()
        sim.delay_link(link[0], link[1], self.delay, self.duration)
        return self, ()
