"""Outside-in per-layer tracing for the end-to-end benchmark.

:class:`Tracer` installs timing wrappers on the *classes* of each layer's
public methods (and on one module function), from the benchmark's own
files: nothing under ``src/`` changes.  Every wrapped call is a span.  A
span's self time is its duration minus the wrapped calls nested in it on
the same thread, so the self times of one thread partition the time its
top-level spans cover.  Span stacks and totals are thread-local (the
wave service executes waves on a worker thread while its event loop
publishes events on the main one) and are merged only when the run
ends, so the hot path takes no lock.

Totals are kept per *phase*: ``setup`` (construction, compile, load),
``run`` (the timed region) and ``idle`` (everything else, discarded).
The workload switches phases; the wrappers read the phase when a span
ends.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter

__all__ = ["LAYER_UNITS", "NullTracer", "Tracer", "install", "layer_metrics"]


class NullTracer:
    """What untraced runs get: phase switches are no-ops."""

    phase = "idle"
    setups = 0


class _ThreadTotals:
    __slots__ = ("stack", "self_s", "calls", "counts", "top_s", "log")

    def __init__(self) -> None:
        #: One child-time accumulator per open span.
        self.stack: list[float] = []
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        #: Time covered by top-level spans, per phase.
        self.top_s: dict[str, float] = defaultdict(float)
        #: ``(layer, start, end)`` of the layers wrapped with ``log=True``.
        self.log: list[tuple[str, float, float]] = []


class Tracer:
    """Class-level timing wrappers with thread-local span stacks."""

    def __init__(self) -> None:
        self.phase = "setup"
        #: Set-ups performed while tracing (normalizes set-up layers).
        self.setups = 0
        self._local = threading.local()
        self._threads: list[_ThreadTotals] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = _ThreadTotals()
            with self._lock:
                self._threads.append(totals)
        return totals

    def wrap(self, owner, attr: str, layer: str, *, count=None, log=False):
        """Replace ``owner.attr`` by a timing wrapper charged to ``layer``.

        ``count`` is ``(name, fn)``: ``fn(args, result)`` is added to the
        counter ``name`` after every call.
        """
        original = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            totals = tracer._totals()
            stack = totals.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                nested = stack.pop()
                phase = tracer.phase
                totals.self_s[phase, layer] += elapsed - nested
                totals.calls[phase, layer] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    totals.top_s[phase] += elapsed
                if log:
                    totals.log.append((layer, start, end))
            if count is not None:
                totals.counts[phase, count[0]] += count[1](args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- merged totals -------------------------------------------------
    def self_s(self, phase: str, *layers: str) -> float:
        return sum(
            t.self_s.get((phase, layer), 0.0) for t in self._threads for layer in layers
        )

    def calls(self, phase: str, layer: str) -> int:
        return sum(t.calls.get((phase, layer), 0) for t in self._threads)

    def count(self, phase: str, name: str) -> float:
        return sum(t.counts.get((phase, name), 0.0) for t in self._threads)

    def top_s(self, phase: str) -> float:
        return sum(t.top_s.get(phase, 0.0) for t in self._threads)

    def spans(self, layer: str) -> list[tuple[float, float]]:
        return sorted(
            (start, end)
            for t in self._threads
            for name, start, end in t.log
            if name == layer
        )


def install(tracer: Tracer) -> None:
    """Wrap every traced layer (see README.md, per-layer metrics)."""
    from repro.applications.waves import WaveEngine
    from repro.columnar.compiler import CompiledSpecKernel
    from repro.core.monitor import PifCycleMonitor
    from repro.messaging.channel import Channel
    from repro.messaging.runtime import MessageSimulator
    from repro.runtime.daemons import CentralDaemon, SynchronousDaemon
    from repro.runtime.protocol import Protocol
    from repro.runtime.rounds import RoundCounter
    from repro.runtime.simulator import Simulator
    from repro.runtime.trace import Trace
    from repro.service.events import EventBus
    from repro.verification import model_check
    from repro.verification.model_check import ModelCheckMemo

    wrap = tracer.wrap
    wrap(Simulator, "step", "runtime.step")
    wrap(CentralDaemon, "select", "runtime.daemon")
    wrap(SynchronousDaemon, "select", "runtime.daemon")
    wrap(RoundCounter, "observe_step", "runtime.rounds")
    wrap(Trace, "append", "runtime.trace")
    wrap(Protocol, "compile_columnar", "columnar.compile")
    kernel = CompiledSpecKernel
    wrap(kernel, "load", "columnar.load")
    wrap(
        kernel,
        "execute_selection",
        "columnar.execute",
        count=("columnar.dirty_nodes", lambda args, result: len(result)),
    )
    wrap(kernel, "pending_updates", "columnar.statements")
    wrap(
        kernel,
        "mask_values",
        "columnar.guards",
        count=("columnar.guard_nodes", lambda args, result: len(args[1])),
    )
    wrap(kernel, "affected_of", "columnar.repair")
    wrap(kernel, "apply_masks", "columnar.repair")
    wrap(
        kernel,
        "enabled_map",
        "columnar.enabled_map",
        count=("columnar.enabled_nodes", lambda args, result: len(result)),
    )
    wrap(kernel, "materialize", "columnar.materialize")
    wrap(PifCycleMonitor, "on_step", "core.monitor")
    wrap(WaveEngine, "run_wave", "applications.wave", log=True)
    wrap(EventBus, "publish", "service.publish")
    wrap(Channel, "send", "messaging.send")
    wrap(Channel, "take_due", "messaging.deliver")
    wrap(MessageSimulator, "step", "messaging.step")
    wrap(model_check, "check_snap_safety", "verification.check")
    wrap(ModelCheckMemo, "transition", "verification.transition")
    wrap(ModelCheckMemo, "enabled_map", "verification.enabled")
    wrap(ModelCheckMemo, "successor_enabled_map", "verification.enabled")
    wrap(ModelCheckMemo, "advance", "verification.advance")


#: Every per-layer metric and its unit.  Times are self times.  ``/item``
#: is per throughput item: a step, a served request, a delivered
#: message or an explored state, so a workload's ``s/item`` layer times
#: plus ``trace.unattributed_s`` add up to ``trace.wall_s``, the traced
#: inverse throughput.
LAYER_UNITS: dict[str, str] = {
    "runtime.step_self_s": "s/item",
    "runtime.daemon_s": "s/item",
    "runtime.rounds_s": "s/item",
    "runtime.trace_s": "s/item",
    "columnar.compile_s": "s",
    "columnar.load_s": "s",
    "columnar.setup_enabled_map_s": "s",
    "columnar.statements_s": "s/item",
    "columnar.guards_s": "s/item",
    "columnar.guard_nodes": "count/item",
    "columnar.repair_s": "s/item",
    "columnar.enabled_map_s": "s/item",
    "columnar.enabled_nodes_mean": "count",
    "columnar.dirty_nodes": "count/item",
    "columnar.materialize_s": "s/item",
    "core.monitor_s": "s/item",
    "applications.wave_s": "s/item",
    "applications.wave_steps_mean": "count",
    "service.latency_p90_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.exec_p50_s": "s",
    "service.coalesce_ratio": "ratio",
    "service.publish_s": "s/item",
    "messaging.send_s": "s/item",
    "messaging.deliver_s": "s/item",
    "messaging.step_self_s": "s/item",
    "messaging.delivered": "count/step",
    "verification.check_self_s": "s/item",
    "verification.transition_s": "s/item",
    "verification.enabled_s": "s/item",
    "verification.advance_s": "s/item",
    "verification.memo_hit_rate": "ratio",
    "verification.view_hit_rate": "ratio",
    "verification.interning_ratio": "ratio",
    "verification.states": "count/check",
    "trace.wall_s": "s/item",
    "trace.unattributed_s": "s/item",
    "trace.overhead_frac": "fraction",
}

#: ``metric -> layers`` whose run-phase self time, per item, it reports.
_RUN_TIMES = {
    "runtime.step_self_s": ("runtime.step",),
    "runtime.daemon_s": ("runtime.daemon",),
    "runtime.rounds_s": ("runtime.rounds",),
    "runtime.trace_s": ("runtime.trace",),
    # Statement evaluation plus landing the writes; for object-statement
    # specs (the served protocol) the statements run inside
    # execute_selection itself.
    "columnar.statements_s": ("columnar.execute", "columnar.statements"),
    "columnar.guards_s": ("columnar.guards",),
    "columnar.repair_s": ("columnar.repair",),
    "columnar.enabled_map_s": ("columnar.enabled_map",),
    "columnar.materialize_s": ("columnar.materialize",),
    "core.monitor_s": ("core.monitor",),
    "applications.wave_s": ("applications.wave",),
    "service.publish_s": ("service.publish",),
    "messaging.send_s": ("messaging.send",),
    "messaging.deliver_s": ("messaging.deliver",),
    "messaging.step_self_s": ("messaging.step",),
    "verification.check_self_s": ("verification.check",),
    "verification.transition_s": ("verification.transition",),
    "verification.enabled_s": ("verification.enabled",),
    "verification.advance_s": ("verification.advance",),
}

#: ``metric -> layer`` whose set-up-phase self time, per set-up, it reports.
_SETUP_TIMES = {
    "columnar.compile_s": "columnar.compile",
    "columnar.load_s": "columnar.load",
    "columnar.setup_enabled_map_s": "columnar.enabled_map",
}


def layer_metrics(
    tracer: Tracer, items: int, traced_s: float, untraced_s: float, extra: dict
) -> dict[str, float]:
    """Every :data:`LAYER_UNITS` metric from one traced timed region.

    ``traced_s`` and ``untraced_s`` are the timed-region walls of the
    same operations with and without tracing; ``extra`` carries the
    workload's own per-layer values (service quantiles, model-check
    stats, delivered messages); missing ones read 0.
    """
    items = max(items, 1)
    out = {name: 0.0 for name in LAYER_UNITS}
    for name, layers in _RUN_TIMES.items():
        out[name] = tracer.self_s("run", *layers) / items
    setups = max(tracer.setups, 1)
    for name, layer in _SETUP_TIMES.items():
        out[name] = tracer.self_s("setup", layer) / setups
    out["columnar.guard_nodes"] = tracer.count("run", "columnar.guard_nodes") / items
    out["columnar.dirty_nodes"] = tracer.count("run", "columnar.dirty_nodes") / items
    maps = tracer.calls("run", "columnar.enabled_map")
    if maps:
        out["columnar.enabled_nodes_mean"] = (
            tracer.count("run", "columnar.enabled_nodes") / maps
        )
    waves = tracer.calls("run", "applications.wave")
    if waves:
        out["applications.wave_steps_mean"] = (
            tracer.calls("run", "runtime.step") / waves
        )
    out.update(extra)
    out["trace.wall_s"] = traced_s / items
    out["trace.unattributed_s"] = (traced_s - tracer.top_s("run")) / items
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out
