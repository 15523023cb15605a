"""Daemons (schedulers) for the guarded-action model.

The paper assumes a *weakly fair distributed* daemon: at every
computation step the daemon activates a non-empty subset of the enabled
processors, and a continuously enabled processor is eventually
activated.  The distributed daemon is the most general adversary —
synchronous, central and locally central daemons are all special cases —
so a protocol proved correct under it is correct under all of them.

This module provides:

* :class:`SynchronousDaemon` — all enabled processors fire (one round per
  step); the reference scheduler for complexity measurements.
* :class:`CentralDaemon` — exactly one processor fires per step.
* :class:`LocallyCentralDaemon` — a maximal set of pairwise non-adjacent
  enabled processors fires.
* :class:`DistributedRandomDaemon` — each enabled processor fires with a
  given probability (at least one always fires).
* :class:`AdversarialDaemon` — starves processors as long as weak
  fairness permits, firing minimal subsets of the *youngest* enabled
  processors; used to stress the round bounds.
* :class:`ReplayDaemon` — replays a recorded schedule (trace replay).
* :class:`WeaklyFairDaemon` — wrapper enforcing weak fairness on any
  inner daemon via a starvation patience threshold.

A daemon's :meth:`Daemon.select` receives the enabled map (node → list
of enabled actions, in program order), the per-node *ages* (number of
consecutive steps each node has been enabled, ``1`` meaning freshly
enabled) and a seeded RNG, and must return a non-empty ``{node: action}``
selection.  The simulator passes the map as an :class:`EnabledView`: it
iterates in ascending node order and lists its nodes as an indexable
sequence, so sampling it copies nothing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from collections.abc import ItemsView
from random import Random
from typing import AbstractSet, Iterator, Mapping, Sequence

from repro.errors import ReplayError, ScheduleError
from repro.runtime.network import Network
from repro.runtime.protocol import Action

__all__ = [
    "Daemon",
    "EnabledView",
    "SynchronousDaemon",
    "CentralDaemon",
    "LocallyCentralDaemon",
    "DistributedRandomDaemon",
    "AdversarialDaemon",
    "ReplayDaemon",
    "RoundRobinDaemon",
    "WeaklyFairDaemon",
]


#: Above this many nodes entering or leaving in one patch, the view
#: rebuilds its node list in one linear pass instead of inserting and
#: deleting each node in place (each of which moves the list's tail).
_BULK_PATCH = 64


class EnabledView(Mapping[int, list[Action]]):
    """The live enabled map: ``{node: enabled actions}``, ascending keys.

    :attr:`nodes` is the ascending node list itself, so a daemon can
    sample, scan or index it without copying; ``rng.choice(view.nodes)``
    draws exactly what ``rng.choice(list(view))`` would.  The simulator
    owns the view and patches it in place from its kernel's change
    report (:meth:`patch`); a daemon treats it as read-only and does
    not keep it across steps.
    """

    __slots__ = ("_actions", "_order")

    def __init__(self, entries: Mapping[int, list[Action]] | None = None) -> None:
        self._actions: dict[int, list[Action]] = dict(entries or {})
        self._order: list[int] = sorted(self._actions)

    @property
    def nodes(self) -> Sequence[int]:
        """The enabled nodes in ascending order (read-only, not a copy)."""
        return self._order

    @property
    def node_set(self) -> AbstractSet[int]:
        """The enabled nodes as a live, unordered set (O(1) membership)."""
        return self._actions.keys()

    def __getitem__(self, node: int) -> list[Action]:
        return self._actions[node]

    def get(self, node: int, default=None):
        return self._actions.get(node, default)

    def __contains__(self, node: object) -> bool:
        return node in self._actions

    def __len__(self) -> int:
        return len(self._actions)

    def __iter__(self) -> Iterator[int]:
        return iter(self._order)

    def items(self) -> ItemsView[int, list[Action]]:
        return _EnabledItems(self)

    def patch(self, changes: Mapping[int, list[Action] | None]) -> None:
        """Install ``changes``: each node's new actions, ``None`` if disabled."""
        actions = self._actions
        moved: list[int] = []
        for node, new in changes.items():
            if new:
                if node not in actions:
                    moved.append(node)
                actions[node] = new
            elif actions.pop(node, None) is not None:
                moved.append(node)
        order = self._order
        if len(moved) > _BULK_PATCH:
            # Filter out the leavers, then merge the joiners: sorting
            # two ascending runs is a linear merge.
            gone = {node for node in moved if node not in actions}
            if gone:
                order = [node for node in order if node not in gone]
            order += sorted(node for node in moved if node in actions)
            order.sort()
            self._order = order
            return
        for node in moved:
            index = bisect_left(order, node)
            if node in actions:
                order.insert(index, node)
            else:
                del order[index]


class _EnabledItems(ItemsView):
    """``(node, actions)`` pairs in ascending node order, iterated in C."""

    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[int, list[Action]]]:
        view = self._mapping
        return zip(view._order, map(view._actions.__getitem__, view._order))


def _nodes(enabled: Mapping[int, Sequence[Action]]) -> Sequence[int]:
    """The enabled nodes as an indexable sequence, in iteration order."""
    if isinstance(enabled, EnabledView):
        return enabled.nodes
    return list(enabled)


def _pick_action(actions: Sequence[Action], policy: str, rng: Random) -> Action:
    """Choose one enabled action according to ``policy``.

    ``"first"`` follows program order (the paper lists normal actions
    before corrections, and guards of distinct normal actions are
    designed to be near-exclusive); ``"random"`` lets the adversary pick.
    """
    if policy == "first":
        return actions[0]
    if policy == "random":
        return rng.choice(list(actions))
    raise ScheduleError(f"unknown action policy {policy!r}")


class Daemon(ABC):
    """Base class for schedulers."""

    name: str = "daemon"

    #: How to resolve several simultaneously enabled actions at one node.
    action_policy: str = "first"

    def __init__(self, *, action_policy: str = "first") -> None:
        if action_policy not in ("first", "random"):
            raise ScheduleError(f"unknown action policy {action_policy!r}")
        self.action_policy = action_policy

    @abstractmethod
    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        """Return a non-empty selection ``{node: action}``."""

    def reset(self) -> None:
        """Clear any internal scheduling state (between runs)."""

    def _choose(self, actions: Sequence[Action], rng: Random) -> Action:
        return _pick_action(actions, self.action_policy, rng)


class SynchronousDaemon(Daemon):
    """Activate every enabled processor at every step.

    One computation step equals exactly one round, which makes this the
    canonical daemon for measuring round complexities.
    """

    name = "synchronous"

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        return {p: self._choose(actions, rng) for p, actions in enabled.items()}


class CentralDaemon(Daemon):
    """Activate exactly one enabled processor per step.

    ``choice`` controls which: ``"random"`` (default), ``"oldest"`` (the
    longest continuously enabled — a fair sequential scheduler) or
    ``"lowest"`` (smallest identifier — deterministic).
    """

    name = "central"

    def __init__(self, *, choice: str = "random", action_policy: str = "first") -> None:
        super().__init__(action_policy=action_policy)
        if choice not in ("random", "oldest", "lowest"):
            raise ScheduleError(f"unknown central choice {choice!r}")
        self._choice = choice

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        nodes = _nodes(enabled)
        if self._choice == "random":
            p = rng.choice(nodes)
        elif self._choice == "oldest":
            p = max(nodes, key=lambda q: (ages.get(q, 0), -q))
        else:
            p = min(nodes)
        return {p: self._choose(enabled[p], rng)}


class LocallyCentralDaemon(Daemon):
    """Activate a maximal independent set of enabled processors.

    No two neighbors fire in the same step, a common intermediate
    adversary between central and distributed daemons.
    """

    name = "locally-central"

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        nodes = list(enabled)
        rng.shuffle(nodes)
        chosen: dict[int, Action] = {}
        blocked: set[int] = set()
        for p in nodes:
            if p in blocked:
                continue
            chosen[p] = self._choose(enabled[p], rng)
            blocked.add(p)
            blocked.update(network.neighbors(p))
        return chosen


class DistributedRandomDaemon(Daemon):
    """Activate each enabled processor independently with probability ``p``.

    At least one processor always fires (the daemon must make progress).
    With ``p = 1.0`` this degenerates to the synchronous daemon; small
    ``p`` approximates a highly asynchronous system.
    """

    name = "distributed-random"

    def __init__(
        self, probability: float = 0.5, *, action_policy: str = "first"
    ) -> None:
        super().__init__(action_policy=action_policy)
        if not 0.0 < probability <= 1.0:
            raise ScheduleError(
                f"activation probability must be in (0, 1], got {probability}"
            )
        self.probability = probability

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        chosen = {
            p: self._choose(actions, rng)
            for p, actions in enabled.items()
            if rng.random() < self.probability
        }
        if not chosen:
            p = rng.choice(_nodes(enabled))
            chosen[p] = self._choose(enabled[p], rng)
        return chosen


class AdversarialDaemon(Daemon):
    """A starvation-maximizing daemon (still weakly fair via patience).

    Strategy: every step, fire only the single *most recently* enabled
    processor (smallest age), postponing long-enabled processors; any
    processor whose age reaches ``patience`` is forced to fire.  This
    stretches rounds as far as weak fairness allows and produces
    worst-case-ish executions for the stabilization bounds.
    """

    name = "adversarial"

    def __init__(self, *, patience: int = 8, action_policy: str = "random") -> None:
        super().__init__(action_policy=action_policy)
        if patience < 1:
            raise ScheduleError(f"patience must be >= 1, got {patience}")
        self.patience = patience

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        chosen: dict[int, Action] = {}
        for p, actions in enabled.items():
            if ages.get(p, 1) >= self.patience:
                chosen[p] = self._choose(actions, rng)
        if chosen:
            return chosen
        youngest = min(enabled, key=lambda q: (ages.get(q, 1), q))
        return {youngest: self._choose(enabled[youngest], rng)}


class RoundRobinDaemon(Daemon):
    """Deterministic fair scheduler: one processor per step, cycling.

    Visits processors in identifier order, skipping disabled ones; the
    strongest *deterministic* fairness (every enabled processor fires at
    least once every ``n`` of its enabled steps).  Useful for
    reproducible sequential executions without an RNG.
    """

    name = "round-robin"

    def __init__(self, *, action_policy: str = "first") -> None:
        super().__init__(action_policy=action_policy)
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        n = network.n
        for offset in range(n):
            p = (self._next + offset) % n
            if p in enabled:
                self._next = (p + 1) % n
                return {p: self._choose(enabled[p], rng)}
        raise ScheduleError("no enabled processor to select")


class ReplayDaemon(Daemon):
    """Replay a previously recorded schedule.

    ``schedule`` is a sequence of ``{node: action name}`` mappings, one
    per step (e.g. taken from a :class:`~repro.runtime.trace.Trace`).
    Raises :class:`~repro.errors.ReplayError` — carrying the schedule
    step index, the offending node/action, and the expected-vs-enabled
    map — if the schedule is exhausted or the recorded selection is no
    longer enabled.  Replay is only meaningful on the same initial
    configuration and protocol.
    """

    name = "replay"

    def __init__(self, schedule: Sequence[Mapping[int, str]]) -> None:
        super().__init__(action_policy="first")
        self._schedule = [dict(sel) for sel in schedule]
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    @property
    def cursor(self) -> int:
        """Index of the next schedule entry to replay."""
        return self._cursor

    @property
    def exhausted(self) -> bool:
        """True once every scheduled step has been replayed."""
        return self._cursor >= len(self._schedule)

    @staticmethod
    def _enabled_names(
        enabled: Mapping[int, Sequence[Action]]
    ) -> dict[int, list[str]]:
        return {p: [a.name for a in actions] for p, actions in enabled.items()}

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        index = self._cursor
        if index >= len(self._schedule):
            raise ReplayError(
                f"replay schedule exhausted after {len(self._schedule)} "
                f"step(s) but the computation wants step {step}",
                step_index=index,
                reason="exhausted",
                enabled=self._enabled_names(enabled),
            )
        wanted = self._schedule[index]
        self._cursor += 1
        chosen: dict[int, Action] = {}
        for p, action_name in wanted.items():
            actions = enabled.get(p)
            if actions is None:
                raise ReplayError(
                    f"replay step {index}: node {p} expected to execute "
                    f"{action_name!r} but is not enabled "
                    f"(enabled: {sorted(enabled)})",
                    step_index=index,
                    reason="node-not-enabled",
                    node=p,
                    action=action_name,
                    enabled=self._enabled_names(enabled),
                )
            match = next((a for a in actions if a.name == action_name), None)
            if match is None:
                raise ReplayError(
                    f"replay step {index}: action {action_name!r} not enabled "
                    f"at node {p} (enabled: {[a.name for a in actions]})",
                    step_index=index,
                    reason="action-not-enabled",
                    node=p,
                    action=action_name,
                    enabled=self._enabled_names(enabled),
                )
            chosen[p] = match
        if not chosen:
            raise ReplayError(
                f"replay step {index}: empty selection",
                step_index=index,
                reason="empty-step",
                enabled=self._enabled_names(enabled),
            )
        return chosen


class WeaklyFairDaemon(Daemon):
    """Enforce weak fairness on an arbitrary inner daemon.

    After the inner daemon selects, every processor continuously enabled
    for at least ``patience`` steps is added to the selection (with its
    first enabled action).  Wrapping any daemon in this class guarantees
    the weak fairness assumption of the paper's model.
    """

    name = "weakly-fair"

    def __init__(self, inner: Daemon, *, patience: int = 32) -> None:
        super().__init__(action_policy=inner.action_policy)
        if patience < 1:
            raise ScheduleError(f"patience must be >= 1, got {patience}")
        self.inner = inner
        self.patience = patience
        self.name = f"weakly-fair({inner.name})"

    def reset(self) -> None:
        self.inner.reset()

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        chosen = dict(
            self.inner.select(
                enabled, network=network, step=step, ages=ages, rng=rng
            )
        )
        for p, actions in enabled.items():
            if p not in chosen and ages.get(p, 1) >= self.patience:
                chosen[p] = actions[0]
        return chosen
