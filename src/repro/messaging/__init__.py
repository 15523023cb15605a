"""Message-passing snap-stabilization runtime.

The shared-memory→message-passing transform: any guarded-action
:class:`~repro.runtime.protocol.Protocol` runs unmodified over per-link
bounded-capacity channels with versioned register publications,
heartbeat retransmission, and a deterministic seeded delivery
scheduler.  See :mod:`repro.messaging.runtime` for the model and
DESIGN.md §13 for the soundness argument; the link-fault family
(``DropMessage``, ``DuplicateMessage``, ``ReorderWindow``,
``DelayLink``) lives in :mod:`repro.chaos`.  The transport knobs
(``REPRO_MESSAGE_MODEL``, ``REPRO_CHANNEL_CAPACITY``,
``REPRO_MESSAGE_HEARTBEAT``) are rows of :mod:`repro.settings`.
"""

from repro.messaging.channel import Channel, Message, check_loss_rate
from repro.messaging.conformance import (
    ConformanceMismatch,
    ConformanceResult,
    check_message_conformance,
)
from repro.messaging.runtime import LocalView, MessageSimulator

__all__ = [
    "Channel",
    "Message",
    "LocalView",
    "MessageSimulator",
    "ConformanceMismatch",
    "ConformanceResult",
    "check_message_conformance",
    "check_loss_rate",
]
