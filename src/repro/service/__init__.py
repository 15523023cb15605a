"""repro.service — PIF-as-a-service: the async wave-service layer.

Clients submit typed wave requests (``pif``, ``snapshot``, ``reset``,
``infimum``, ``census``) against named topologies; per-topology
schedulers coalesce adjacent identical requests into shared PIF waves
(sound because every snap-stabilizing initiation is individually
correct — DESIGN.md §15); an event bus streams lifecycle events
through predicate-filtered subscriptions; wave execution runs in
worker threads so the event loop never blocks.  Deterministic under a
fixed seed and submission order.  See docs/API.md «Wave service».
"""

from repro.service.env import (
    BATCH_WINDOW_ENV,
    DEFAULT_BATCH_WINDOW,
    DEFAULT_MAX_IN_FLIGHT,
    DEFAULT_QUEUE_BOUND,
    MAX_IN_FLIGHT_ENV,
    QUEUE_BOUND_ENV,
    resolve_batch_window,
    resolve_max_in_flight,
    resolve_queue_bound,
)
from repro.service.events import (
    EVENT_PHASES,
    EventBus,
    Subscription,
    WaveEvent,
    all_of,
    any_of,
    for_kinds,
    for_phases,
    for_request,
    for_topology,
    not_,
)
from repro.service.requests import RequestHandle, WaveRequest, WaveResult
from repro.service.scheduler import TopologyScheduler
from repro.service.service import WaveService
from repro.service.workload import WorkloadOutcome, make_workload, run_workload

__all__ = [
    "BATCH_WINDOW_ENV",
    "DEFAULT_BATCH_WINDOW",
    "DEFAULT_MAX_IN_FLIGHT",
    "DEFAULT_QUEUE_BOUND",
    "EVENT_PHASES",
    "EventBus",
    "MAX_IN_FLIGHT_ENV",
    "QUEUE_BOUND_ENV",
    "RequestHandle",
    "Subscription",
    "TopologyScheduler",
    "WaveEvent",
    "WaveRequest",
    "WaveResult",
    "WaveService",
    "WorkloadOutcome",
    "all_of",
    "any_of",
    "for_kinds",
    "for_phases",
    "for_request",
    "for_topology",
    "make_workload",
    "not_",
    "resolve_batch_window",
    "resolve_max_in_flight",
    "resolve_queue_bound",
    "run_workload",
]
