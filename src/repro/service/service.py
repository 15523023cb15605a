"""The asyncio wave service: submit typed wave requests, stream events.

:class:`WaveService` turns the :mod:`repro.applications` wave
primitives into a served workload.  Clients register named topologies,
then submit requests::

    async with WaveService(seed=0) as service:
        service.add_topology("ring", by_name("ring", 64))
        handle = service.submit("snapshot", "ring")
        result = await handle.result()

``submit`` is deliberately **synchronous**: validation, the queue-bound
check and the ``accepted`` event all happen before it returns, so the
submission order a client script produces is exactly the order the
service serves (per topology).  That, plus composition-independent
per-request results (DESIGN.md §15), is the determinism contract:
under a fixed seed and submission order, the request → result mapping
and every per-topology event stream are bit-identical across runs and
across worker counts.

Backpressure and shutdown are first-class: a full per-topology queue
rejects with :class:`~repro.errors.ServiceOverloadedError` (nothing
enqueued), and :meth:`shutdown` either drains — every accepted request
is served — or abandons the queue, rejecting pending requests with
:class:`~repro.errors.ServiceClosedError`.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping

from repro import settings
from repro import telemetry as _telemetry
from repro.applications.waves import WaveEngine, validate_wave_args
from repro.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    WaveRequestError,
)
from repro.runtime.network import Network
from repro.service.events import EventBus, Predicate, Subscription, WaveEvent
from repro.service.requests import RequestHandle, WaveRequest
from repro.service.scheduler import TopologyScheduler

__all__ = ["WaveService"]


class WaveService:
    """Serve wave requests against named topologies.

    Parameters
    ----------
    seed:
        Base RNG seed for every topology's engine (the fixed seed of
        the determinism contract).
    engine:
        Guard-evaluation engine for the simulators (``None`` resolves
        ``REPRO_ENGINE``); pass ``"columnar"`` for large topologies.
    batch_window, max_in_flight, queue_bound:
        Service knobs; ``None`` resolves the corresponding
        ``REPRO_SERVICE_*`` environment variable, then the documented
        default (rows of :mod:`repro.settings`).
    jobs:
        Worker-thread count for wave execution; ``None`` resolves
        ``REPRO_JOBS``, then ``max_in_flight``.  Within one topology waves
        are sequential, so workers only add cross-topology parallelism.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        engine: str | None = None,
        batch_window: int | None = None,
        max_in_flight: int | None = None,
        queue_bound: int | None = None,
        jobs: int | None = None,
    ) -> None:
        self.seed = seed
        self.engine = engine
        self.batch_window = settings.resolve("batch_window", batch_window)
        self.max_in_flight = settings.resolve("max_in_flight", max_in_flight)
        self.queue_bound = settings.resolve("queue_bound", queue_bound)
        self.jobs = settings.resolve("jobs", jobs) or self.max_in_flight
        self.bus = EventBus()
        self._schedulers: dict[str, TopologyScheduler] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._started = False
        self._closed = False
        self._next_request_id = 0
        self._started_at = 0.0
        #: Deterministic counters mirrored into telemetry.
        self.accepted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start serving (requires a running event loop)."""
        if self._started:
            return
        asyncio.get_running_loop()  # fail fast outside a loop
        self._executor = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="wave-service"
        )
        self._semaphore = asyncio.Semaphore(self.max_in_flight)
        self._started = True
        self._started_at = time.perf_counter()
        for scheduler in self._schedulers.values():
            scheduler.start(self._executor, self._semaphore)

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop serving.

        ``drain=True`` (the default) serves every already-accepted
        request before returning; ``drain=False`` rejects queued
        requests with :class:`~repro.errors.ServiceClosedError` (the
        wave in flight still completes).  Either way ``submit`` raises
        ``ServiceClosedError`` from the moment shutdown begins, and all
        event streams end once the backlog is delivered.
        """
        if self._closed:
            return
        self._closed = True
        if self._started:
            await asyncio.gather(
                *(s.close(drain=drain) for s in self._schedulers.values())
            )
            assert self._executor is not None
            self._executor.shutdown(wait=True)
        self.bus.close()

    async def __aenter__(self) -> "WaveService":
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.shutdown(drain=not any(exc))

    # ------------------------------------------------------------------
    # Topologies
    # ------------------------------------------------------------------
    def add_topology(
        self,
        name: str,
        network: Network,
        *,
        root: int = 0,
        seed: int | None = None,
    ) -> None:
        """Register a named topology (before or after :meth:`start`)."""
        if self._closed:
            raise ServiceClosedError(
                f"cannot add topology {name!r}: service is shut down"
            )
        if name in self._schedulers:
            raise WaveRequestError(f"topology {name!r} is already registered")
        engine = WaveEngine(
            network,
            root=root,
            seed=self.seed if seed is None else seed,
            engine=self.engine,
        )
        scheduler = TopologyScheduler(
            name,
            engine,
            batch_window=self.batch_window,
            queue_bound=self.queue_bound,
            publish=self.bus.publish,
        )
        self._schedulers[name] = scheduler
        if self._started:
            assert self._executor is not None and self._semaphore is not None
            scheduler.start(self._executor, self._semaphore)

    @property
    def topologies(self) -> list[str]:
        return sorted(self._schedulers)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        topology: str,
        args: Mapping[str, object] | None = None,
    ) -> RequestHandle:
        """Validate, accept and enqueue one wave request (synchronous).

        Raises :class:`~repro.errors.WaveRequestError` on a malformed
        request or unknown topology,
        :class:`~repro.errors.ServiceOverloadedError` when the
        topology's queue is full, and
        :class:`~repro.errors.ServiceClosedError` after shutdown began
        (or before :meth:`start`).  Nothing is enqueued on any raise.
        """
        if self._closed:
            raise ServiceClosedError("service is shut down")
        if not self._started:
            raise ServiceClosedError("service is not started")
        scheduler = self._schedulers.get(topology)
        if scheduler is None:
            raise WaveRequestError(
                f"unknown topology {topology!r}; "
                f"registered: {self.topologies}"
            )
        normalized = validate_wave_args(kind, args)
        if scheduler.queue_depth >= self.queue_bound:
            self.rejected += 1
            if _telemetry.enabled:
                _telemetry.registry.inc("service.rejected")
            raise ServiceOverloadedError(
                f"topology {topology!r} queue is full "
                f"({self.queue_bound} pending requests); retry later"
            )
        request = WaveRequest(
            request_id=self._next_request_id,
            kind=kind,
            topology=topology,
            args=normalized,
            coalescable=kind != "reset",
        )
        self._next_request_id += 1
        loop = asyncio.get_running_loop()
        handle = RequestHandle(
            request=request,
            _future=loop.create_future(),
            _submitted_at=time.perf_counter(),
        )
        self.accepted += 1
        if _telemetry.enabled:
            reg = _telemetry.registry
            reg.inc("service.requests")
            reg.inc(f"service.requests.{kind}")
        event = WaveEvent(
            phase="accepted",
            request_id=request.request_id,
            kind=kind,
            topology=topology,
            seq=0,
            payload=None,
        )
        handle._record(event)
        self.bus.publish(event)
        scheduler.enqueue(request, handle)
        return handle

    def subscribe(self, predicate: Predicate | None = None) -> Subscription:
        """Open a predicate-filtered event stream over the whole service."""
        return self.bus.subscribe(predicate)

    # ------------------------------------------------------------------
    # Stats endpoint
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """JSON-able live counters (the ``repro serve`` stats payload)."""
        per_topology = {
            name: {
                "queue_depth": s.queue_depth,
                "waves_run": s.waves_run,
                "requests_served": s.requests_served,
                "waves_completed": s.engine.waves_completed,
                "nodes": s.engine.network.n,
            }
            for name, s in sorted(self._schedulers.items())
        }
        coalesced = sum(
            s.requests_served - s.waves_run for s in self._schedulers.values()
        )
        return {
            "started": self._started,
            "closed": self._closed,
            "uptime_seconds": (
                time.perf_counter() - self._started_at if self._started else 0.0
            ),
            "accepted": self.accepted,
            "rejected": self.rejected,
            "events_published": self.bus.published,
            "requests_coalesced": coalesced,
            "knobs": {
                "batch_window": self.batch_window,
                "max_in_flight": self.max_in_flight,
                "queue_bound": self.queue_bound,
                "jobs": self.jobs,
            },
            "topologies": per_topology,
        }
