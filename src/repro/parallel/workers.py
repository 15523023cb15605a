"""Top-level worker functions for the wired parallel layers.

Every function here is module-level (hence picklable by reference into
pool workers) and takes one plain-dict payload; the executor's serial
loop calls the same functions in-process.  Workers own their warm
state: protocol instances are rebuilt *inside* the worker from the
pickled ``(factory, network)`` pair and cached per process in
:data:`_PROTOCOL_CACHE` (cleared in the parent when a serial
:meth:`~repro.parallel.executor.ParallelExecutor.map` returns), and
each model-check shard builds its own
:class:`~repro.verification.model_check.ModelCheckMemo` — nothing
mutable ever crosses the pickle boundary.

Payload shapes
--------------
``campaign_cell``
    ``{"factory", "network", "scenario", "daemon", "seed", "budget",
    "engine", "validate_engine"}`` plus the optional transport knobs
    ``{"transport", "capacity", "model", "heartbeat", "loss_rate"}`` —
    one campaign grid cell; returns the
    :class:`~repro.chaos.campaign.ChaosRun`.
``check_shard``
    ``{"check", "factory", "network", "root", "config_slice", ...check
    kwargs}`` — one contiguous enumeration shard of a synchronous sweep;
    returns the shard's
    :class:`~repro.verification.model_check.ModelCheckResult`.

The shard worker calls back into the public check function it is given
with ``config_slice`` set, which forces the serial single-sweep path — a
worker never re-fans-out, even when ``REPRO_JOBS`` is inherited from
the parent environment.
"""

from __future__ import annotations

from typing import Callable

from repro.runtime.network import Network

__all__ = [
    "campaign_cell",
    "shrink_cell",
    "check_shard",
]

#: Worker-local protocol cache: ``(factory, network) -> protocol``.
#: Networks are immutable and hashable, factories are module-level
#: callables, and protocols are deterministic functions of both, so
#: reuse across the tasks one worker processes never changes results —
#: it only keeps the per-network action/macro caches warm.
_PROTOCOL_CACHE: dict = {}


def _protocol_for(
    factory: Callable | None, network: Network, root: int | None = None
):
    """Build (or reuse) a protocol for ``network``.

    ``root=None`` mirrors :func:`~repro.chaos.campaign.run_campaign`'s
    factory contract (``factory(network)``); an explicit root mirrors
    the model-check factories (``factory(network, root)``).

    Cache behaviour is observable via the ``worker.protocol_cache.*``
    counters (hits / misses / rebuilds).  They live under the
    ``worker.`` prefix because hit rates depend on which worker process
    a task landed in — :meth:`MetricsSnapshot.deterministic` excludes
    them from the bit-identical view.
    """
    from repro import telemetry as _telemetry
    from repro.core.pif import SnapPif

    if factory is None:
        factory = SnapPif.for_network
        if root is None:
            root = 0

    def build():
        return factory(network) if root is None else factory(network, root)

    try:
        key = (factory, network, root)
        cached = _PROTOCOL_CACHE.get(key)
    except TypeError:  # unhashable factory: build fresh every time
        if _telemetry.enabled:
            _telemetry.registry.inc("worker.protocol_cache.rebuilds")
        return build()
    if cached is None:
        if _telemetry.enabled:
            _telemetry.registry.inc("worker.protocol_cache.misses")
        cached = build()
        _PROTOCOL_CACHE[key] = cached
    elif _telemetry.enabled:
        _telemetry.registry.inc("worker.protocol_cache.hits")
    return cached


def campaign_cell(payload: dict):
    """Run one campaign grid cell (scenario × topology × daemon × seed)."""
    from repro.chaos.campaign import run_chaos

    network = payload["network"]
    protocol = _protocol_for(payload.get("factory"), network)
    return run_chaos(
        protocol,
        network,
        payload["scenario"],
        daemon=payload["daemon"],
        seed=payload["seed"],
        budget=payload["budget"],
        engine=payload.get("engine"),
        validate_engine=payload.get("validate_engine"),
        transport=payload.get("transport", "shared-memory"),
        capacity=payload.get("capacity"),
        model=payload.get("model"),
        heartbeat=payload.get("heartbeat"),
        loss_rate=payload.get("loss_rate", 0.0),
    )


def shrink_cell(payload: dict):
    """Run one grid cell and shrink its tape if it violates.

    Returns the shrunk :class:`~repro.chaos.shrink.Repro` (``None`` for
    a passing cell).  The per-iteration shrink metrics stream into this
    task's captured registry and merge back in submission order.
    """
    from repro.chaos.campaign import run_chaos
    from repro.chaos.shrink import shrink_run

    network = payload["network"]
    protocol = _protocol_for(payload.get("factory"), network)
    run = run_chaos(
        protocol,
        network,
        payload["scenario"],
        daemon=payload["daemon"],
        seed=payload["seed"],
        budget=payload["budget"],
        transport=payload.get("transport", "shared-memory"),
        capacity=payload.get("capacity"),
        model=payload.get("model"),
        heartbeat=payload.get("heartbeat"),
        loss_rate=payload.get("loss_rate", 0.0),
    )
    if run.ok:
        return None
    return shrink_run(protocol, run, max_tests=payload["max_tests"])


def check_shard(payload: dict):
    """Run one contiguous enumeration shard of a synchronous sweep."""
    options = dict(payload)
    check = options.pop("check")
    network = options.pop("network")
    root = options.pop("root")
    factory = options.pop("factory")
    return check(
        network,
        root,
        protocol=_protocol_for(factory, network, root),
        **options,
    )
