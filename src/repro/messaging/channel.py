"""Bounded-capacity FIFO link channels.

One :class:`Channel` per directed edge ``(src, dst)`` carries *register
publications*: immutable snapshots of the sender's protocol state,
stamped with a per-sender version number.  The buffer order is the
delivery order, so the link-fault primitives are plain list surgery:

* loss removes seeded positions,
* duplication re-enqueues seeded positions at the tail with fresh
  sequence numbers,
* reordering permutes a bounded prefix window,
* bounded delay pushes due dates into the future for a step window.

Receivers filter by version (:class:`repro.messaging.MessageSimulator`
keeps the highest version applied per link), which is the classic
guard against duplicated and reordered copies regressing a neighbor
view to an older snapshot — Delaët et al. (arXiv:0802.1123) use the
same device.  Capacity overflow drops the *oldest* buffered message
(the newest publication is the one that matters for a register link).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterator

from repro.errors import MessagingError

__all__ = ["Message", "Channel", "check_positive_int", "check_loss_rate"]


def check_positive_int(value: object, *, name: str, source: str) -> int:
    """Validate ``value`` as a strictly positive integer.

    ``bool`` is rejected explicitly: ``True`` is an ``int`` subclass
    and would otherwise pass as 1.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise MessagingError(
            f"{name} must be a positive integer, got {value!r} ({source})"
        )
    if value < 1:
        raise MessagingError(f"{name} must be >= 1, got {value} ({source})")
    return value


def check_loss_rate(rate: float) -> float:
    """Validate a publish loss probability (``0.0 <= rate < 1.0``).

    1.0 is excluded: a link that drops everything forever can never
    reach the eventual-delivery assumption the transform relies on.
    """
    if isinstance(rate, bool) or not isinstance(rate, (int, float)):
        raise MessagingError(
            f"loss rate must be a float in [0.0, 1.0), got {rate!r}"
        )
    rate = float(rate)
    if not 0.0 <= rate < 1.0:
        raise MessagingError(f"loss rate must be in [0.0, 1.0), got {rate}")
    return rate


@dataclass(frozen=True, slots=True)
class Message:
    """One in-flight register publication.

    ``seq`` is unique per channel (ascending with send order, so
    ``(link, seq)`` totally orders every delivery in a run); ``version``
    is the sender's publication counter (receivers apply only strictly
    newer versions); ``due_at`` is ``sent_at`` plus any injected link
    delay — the message is handed over by the first delivery phase
    *strictly after* ``due_at``, i.e. at step ``sent_at + 1`` on an
    undelayed link.
    """

    seq: int
    version: int
    sent_at: int
    due_at: int
    payload: object


class Channel:
    """A bounded FIFO buffer for one directed link."""

    __slots__ = (
        "src",
        "dst",
        "capacity",
        "buffer",
        "next_seq",
        "extra_delay",
        "delay_until",
    )

    def __init__(self, src: int, dst: int, capacity: int) -> None:
        self.src = src
        self.dst = dst
        self.capacity = check_positive_int(
            capacity, name="channel capacity", source="argument"
        )
        self.buffer: list[Message] = []
        self.next_seq = 0
        #: Active :class:`~repro.chaos.DelayLink` fault, if any: sends
        #: before ``delay_until`` are postponed by ``extra_delay``.
        self.extra_delay = 0
        self.delay_until = 0

    def __len__(self) -> int:
        return len(self.buffer)

    def __iter__(self) -> Iterator[Message]:
        return iter(self.buffer)

    def send(self, payload: object, version: int, step: int) -> int:
        """Enqueue a publication; return how many overflowed (oldest first)."""
        delay = self.extra_delay if step < self.delay_until else 0
        self.buffer.append(
            Message(self.next_seq, version, step, step + delay, payload)
        )
        self.next_seq += 1
        overflowed = 0
        while len(self.buffer) > self.capacity:
            self.buffer.pop(0)
            overflowed += 1
        return overflowed

    def take_due(
        self, now: int, *, model: str, rng: Random, hold_rate: float = 0.3
    ) -> list[Message]:
        """Remove and return the messages delivered at step ``now``.

        ``eager`` hands over every message with ``due_at < now``.
        ``async`` walks the due messages in buffer order and stops at
        the first seeded hold, preserving FIFO per link while letting
        messages linger an unbounded-but-probability-1-finite time.
        """
        delivered: list[Message] = []
        kept: list[Message] = []
        held = False
        for msg in self.buffer:
            if held or msg.due_at >= now:
                kept.append(msg)
                continue
            if model == "async" and rng.random() < hold_rate:
                held = True
                kept.append(msg)
                continue
            delivered.append(msg)
        if delivered:
            self.buffer = kept
        return delivered

    # ------------------------------------------------------------------
    # Fault surgery (chaos events call these through the simulator).

    def drop(self, count: int, rng: Random) -> int:
        """Remove ``count`` seeded positions; return how many were lost."""
        k = min(count, len(self.buffer))
        if k <= 0:
            return 0
        doomed = sorted(rng.sample(range(len(self.buffer)), k))
        for index in reversed(doomed):
            del self.buffer[index]
        return k

    def duplicate(self, count: int, rng: Random, now: int) -> int:
        """Re-enqueue ``count`` seeded positions at the tail.

        Duplicates get fresh sequence numbers and a due date no earlier
        than the original's — a copy can never overtake its source —
        and compete for capacity like any other send.
        """
        k = min(count, len(self.buffer))
        if k <= 0:
            return 0
        chosen = sorted(rng.sample(range(len(self.buffer)), k))
        for index in chosen:
            orig = self.buffer[index]
            self.buffer.append(
                Message(
                    self.next_seq,
                    orig.version,
                    orig.sent_at,
                    max(orig.due_at, now),
                    orig.payload,
                )
            )
            self.next_seq += 1
        while len(self.buffer) > self.capacity:
            self.buffer.pop(0)
        return k

    def reorder(self, window: int, rng: Random) -> int:
        """Permute the oldest ``window`` buffered messages in place."""
        k = min(window, len(self.buffer))
        if k < 2:
            return 0
        head = self.buffer[:k]
        rng.shuffle(head)
        self.buffer[:k] = head
        return k

    def set_delay(self, delay: int, until: int) -> None:
        """Postpone sends before step ``until`` by ``delay`` extra steps."""
        if isinstance(delay, bool) or not isinstance(delay, int) or delay < 1:
            raise MessagingError(
                f"link delay must be a positive integer, got {delay!r}"
            )
        self.extra_delay = delay
        self.delay_until = until
