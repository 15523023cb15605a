"""Lifecycle events and the predicate-filtered event bus.

Every request moves through a fixed lifecycle, and each transition is
published as a :class:`WaveEvent`:

``accepted``
    ``submit`` validated and enqueued the request.
``initiated``
    A scheduler started the PIF wave that will serve it.
``feedback``
    The wave's C-wave returned to the root — the aggregated feedback
    (the request's result value) is attached.
``completed``
    The result future resolved; the event carries the final payload.
``failed``
    The request was rejected after acceptance (execution error or an
    abandoning shutdown); the event carries the error text.

The :class:`EventBus` fans events out to subscriptions.  A subscription
is an asyncio-friendly stream (bounded internal list + wake event — no
queues shared across threads; the scheduler publishes from the event
loop thread only) with an optional *predicate*: a plain
``WaveEvent -> bool`` callable.  The combinators
:func:`for_request` / :func:`for_topology` / :func:`for_kinds` /
:func:`all_of` / :func:`any_of` / :func:`not_` compose the common
filters without clients writing lambdas.

Event determinism: the fields of every event are composition-independent
(request id, kind, topology, result payload) — batch sizes, wave
indices and timings are deliberately excluded, because those depend on
executor timing.  That is what lets the determinism tests assert
bit-identical event streams across worker counts.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import AsyncIterator, Callable

__all__ = [
    "EVENT_PHASES",
    "WaveEvent",
    "Subscription",
    "EventBus",
    "for_request",
    "for_topology",
    "for_kinds",
    "for_phases",
    "all_of",
    "any_of",
    "not_",
]

#: Lifecycle phases in order of occurrence.
EVENT_PHASES: tuple[str, ...] = (
    "accepted",
    "initiated",
    "feedback",
    "completed",
    "failed",
)

Predicate = Callable[["WaveEvent"], bool]


@dataclass(frozen=True, slots=True)
class WaveEvent:
    """One lifecycle transition of one wave request.

    ``seq`` is the per-request event ordinal (0-based), so a client
    replaying a stream can verify it saw every transition.  ``payload``
    is phase-specific plain data: the result value on ``feedback`` /
    ``completed``, the error text on ``failed``, ``None`` otherwise.
    """

    phase: str
    request_id: int
    kind: str
    topology: str
    seq: int
    payload: object = None

    def as_dict(self) -> dict[str, object]:
        """JSON-able form, used by the CLI stream and the tests."""
        return {
            "phase": self.phase,
            "request_id": self.request_id,
            "kind": self.kind,
            "topology": self.topology,
            "seq": self.seq,
            "payload": self.payload,
        }


# ----------------------------------------------------------------------
# Predicate combinators
# ----------------------------------------------------------------------
def for_request(request_id: int) -> Predicate:
    """Match events belonging to one request."""
    return lambda e: e.request_id == request_id


def for_topology(name: str) -> Predicate:
    """Match events belonging to one named topology."""
    return lambda e: e.topology == name


def for_kinds(*kinds: str) -> Predicate:
    """Match events whose request kind is one of ``kinds``."""
    wanted = frozenset(kinds)
    return lambda e: e.kind in wanted


def for_phases(*phases: str) -> Predicate:
    """Match events in one of the given lifecycle phases."""
    wanted = frozenset(phases)
    return lambda e: e.phase in wanted


def all_of(*predicates: Predicate) -> Predicate:
    """Match events satisfying every predicate (empty ⇒ match all)."""
    return lambda e: all(p(e) for p in predicates)


def any_of(*predicates: Predicate) -> Predicate:
    """Match events satisfying at least one predicate."""
    return lambda e: any(p(e) for p in predicates)


def not_(predicate: Predicate) -> Predicate:
    """Invert a predicate."""
    return lambda e: not predicate(e)


# ----------------------------------------------------------------------
# Bus
# ----------------------------------------------------------------------
@dataclass
class Subscription:
    """A filtered, streamable view of the bus.

    Use as an async iterator (``async for event in sub``) or poll
    :meth:`drain`.  The stream ends after :meth:`close` — either the
    client's own or the bus-wide close at service shutdown — once the
    already-delivered backlog is exhausted.
    """

    predicate: Predicate
    _events: list[WaveEvent] = field(default_factory=list)
    _cursor: int = 0
    _wake: asyncio.Event = field(default_factory=asyncio.Event)
    _closed: bool = False

    def deliver(self, event: WaveEvent) -> None:
        if self._closed or not self.predicate(event):
            return
        self._events.append(event)
        self._wake.set()

    def drain(self) -> list[WaveEvent]:
        """Return (and consume) all events delivered since the last drain."""
        fresh = self._events[self._cursor :]
        self._cursor = len(self._events)
        return fresh

    def close(self) -> None:
        """End the stream; buffered events remain drainable."""
        self._closed = True
        self._wake.set()

    def __aiter__(self) -> AsyncIterator[WaveEvent]:
        return self._stream()

    async def _stream(self) -> AsyncIterator[WaveEvent]:
        while True:
            while self._cursor < len(self._events):
                event = self._events[self._cursor]
                self._cursor += 1
                yield event
            if self._closed:
                return
            # Single-threaded event loop: clearing then re-checking the
            # backlog before awaiting cannot lose a wakeup.
            self._wake.clear()
            if self._cursor < len(self._events) or self._closed:
                continue
            await self._wake.wait()


class EventBus:
    """Fan lifecycle events out to predicate-filtered subscriptions."""

    def __init__(self) -> None:
        self._subscriptions: list[Subscription] = []
        self.published = 0

    def subscribe(self, predicate: Predicate | None = None) -> Subscription:
        """Open a subscription; ``None`` predicate matches every event."""
        sub = Subscription(predicate=predicate or (lambda _e: True))
        self._subscriptions.append(sub)
        return sub

    def unsubscribe(self, subscription: Subscription) -> None:
        subscription.close()
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass

    def publish(self, event: WaveEvent) -> None:
        self.published += 1
        for sub in self._subscriptions:
            sub.deliver(event)

    def close(self) -> None:
        """End every stream (service shutdown)."""
        for sub in self._subscriptions:
            sub.close()
