"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """The supplied network topology is malformed.

    Raised for non-symmetric adjacency, self loops, unknown node
    identifiers, or disconnected graphs where connectivity is required.
    """


class ProtocolError(ReproError):
    """A protocol definition or protocol state is inconsistent.

    Raised, for example, when a statement writes a state for the wrong
    node, or when an action is executed while its guard is false.
    """


class ScheduleError(ReproError):
    """A daemon produced an illegal selection.

    Selections must be non-empty subsets of the enabled processors, and
    each selected processor must execute one of its enabled actions.
    """


class ReplayError(ScheduleError):
    """A recorded schedule could not be replayed against the live run.

    Carries enough structure for tooling (the chaos shrinker, corpus
    replay) to distinguish a genuinely divergent reproducer from a
    candidate that merely drifted: the 0-based ``step_index`` into the
    schedule, a machine-readable ``reason`` (``"exhausted"``,
    ``"node-not-enabled"``, ``"action-not-enabled"``, ``"empty-step"``
    or ``"stalled"``), the offending ``node``/``action`` when
    applicable, and the ``enabled`` map (node → enabled action names)
    observed at the point of divergence.
    """

    def __init__(
        self,
        message: str,
        *,
        step_index: int,
        reason: str,
        node: int | None = None,
        action: str | None = None,
        enabled: dict[int, list[str]] | None = None,
    ) -> None:
        super().__init__(message)
        self.step_index = step_index
        self.reason = reason
        self.node = node
        self.action = action
        self.enabled = {} if enabled is None else enabled


class FairnessError(ReproError):
    """Weak fairness was violated by a schedule.

    A continuously enabled processor must eventually execute an action;
    this error reports a processor starved past the configured patience.
    """


class SimulationLimitError(ReproError):
    """A simulation exceeded its step or round budget without finishing."""


class SpecificationViolation(ReproError):
    """An executable specification monitor observed a violation.

    Used by the PIF cycle monitor (conditions [PIF1] and [PIF2]) and by
    invariant checkers when run in assertion mode.
    """


class VerificationError(ReproError):
    """The exhaustive model checker found a counterexample."""


class ServiceError(ReproError):
    """A wave-service request or lifecycle operation is invalid.

    Base class for the typed rejections of :mod:`repro.service` — the
    asyncio wave-service layer.  Subclasses distinguish the conditions
    clients are expected to handle programmatically (overload versus
    shutdown versus a malformed request).
    """


class ServiceOverloadedError(ServiceError):
    """The service's bounded request queue is full (backpressure).

    Raised synchronously by ``WaveService.submit`` when a topology's
    pending queue already holds ``queue_bound`` requests.  Clients
    should back off and retry; nothing was enqueued.
    """


class ServiceClosedError(ServiceError):
    """The service is shutting down (or was never started).

    Raised by ``WaveService.submit`` after shutdown began, and set on
    the futures of pending requests abandoned by a non-draining
    shutdown.
    """


class WaveRequestError(ServiceError):
    """A wave request is malformed.

    Unknown request kind, unknown topology name, or invalid arguments
    (e.g. an unsupported infimum operation).  Raised synchronously at
    submission — a malformed request is never enqueued.
    """


class ParallelError(ReproError):
    """A parallel task failed permanently (after its retry).

    Also raised for bad worker-count knobs (``REPRO_JOBS`` and the
    ``REPRO_SERVICE_*`` bounds).
    """


class MessagingError(ReproError):
    """A message-passing runtime knob or channel operation is invalid.

    Raised for bad ``REPRO_MESSAGE_MODEL`` / ``REPRO_CHANNEL_CAPACITY``
    / ``REPRO_MESSAGE_HEARTBEAT`` values (zero, negative, non-integer,
    or garbage strings — the error names the offending value and where
    it came from), for out-of-range loss rates and delays, and for
    link-fault events applied to a simulator without channels.
    """
