"""repro.service — PIF-as-a-service: the async wave-service layer.

Clients submit typed wave requests (``pif``, ``snapshot``, ``reset``,
``infimum``, ``census``) against named topologies; per-topology
schedulers coalesce adjacent identical requests into shared PIF waves
(sound because every snap-stabilizing initiation is individually
correct — DESIGN.md §15); an event bus streams lifecycle events
through predicate-filtered subscriptions; wave execution runs in
worker threads so the event loop never blocks.  Deterministic under a
fixed seed and submission order.  See docs/API.md «Wave service»; the
service knobs are rows of :mod:`repro.settings`.
"""

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
    "EVENT_PHASES",
    "EventBus",
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
    "run_workload",
]
