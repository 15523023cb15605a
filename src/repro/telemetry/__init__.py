"""repro.telemetry — zero-dependency metrics and span tracing.

The module itself is the switchboard.  All instrumented call sites in
the engine guard on the module-level :data:`enabled` flag::

    from repro import telemetry as _telemetry
    ...
    if _telemetry.enabled:
        _telemetry.registry.inc("sim.steps")

so with telemetry off (the default) the cost per call site is one
module-attribute check.  ``benchmarks/e2e/run.py`` measures the engine
in that state, and ``run.py compare`` gates it between commits.
Hot loops that fire many times per step should hoist metric objects
(``Counter``/``Histogram``) once and bump ``.value`` directly.

State model
-----------

* :data:`enabled` — bool, flipped by :func:`enable` / :func:`disable`.
* :data:`registry` — the active :class:`MetricsRegistry`.  Never
  rebound while enabled except by :func:`capture`, which swaps in a
  fresh registry around a unit of work (the executor uses this to give
  every parallel task its own snapshot, shipped back across the pickle
  boundary and merged in serial submission order — DESIGN.md §10).
* :data:`sink` — optional :class:`JsonlSink`; only the process that
  opened it writes (fork guard), so worker processes under the
  ``fork`` start method inherit an enabled flag but never corrupt the
  trace file.

``REPRO_TELEMETRY=/path/to/trace.jsonl`` in the environment enables
telemetry via :func:`enable_from_env` — the hand-off used by
``repro bench --telemetry`` whose benchmarks run in a pytest
subprocess.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from repro import settings
from repro.telemetry.registry import (
    NONDET_PREFIX,
    SIZE_BOUNDS,
    TIME_BOUNDS,
    TIMING_SUFFIX,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.telemetry.spans import (
    NULL_SPAN,
    JsonlSink,
    NullSpan,
    Span,
    read_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NONDET_PREFIX",
    "NULL_SPAN",
    "NullSpan",
    "SIZE_BOUNDS",
    "Span",
    "TIME_BOUNDS",
    "TIMING_SUFFIX",
    "capture",
    "disable",
    "enable",
    "enable_from_env",
    "enabled",
    "read_trace",
    "registry",
    "sink",
    "span",
    "write_snapshot",
]

#: The one flag every instrumented call site checks.
enabled: bool = False

#: The active registry.  Instrumentation must re-read this module
#: attribute (not hold a stale reference), except for the length of a
#: single call that :func:`capture` cannot interleave with.
registry: MetricsRegistry = MetricsRegistry()

#: The active JSONL sink, or None.
sink: JsonlSink | None = None


def enable(trace_path: str | None = None) -> None:
    """Turn telemetry on, optionally opening a JSONL sink at ``trace_path``."""
    global enabled, sink
    if trace_path is not None:
        if sink is not None:
            sink.close()
        sink = JsonlSink(trace_path)
    enabled = True


def disable() -> None:
    """Turn telemetry off, close the sink, and reset the registry."""
    global enabled, sink, _next_span_id
    enabled = False
    if sink is not None:
        sink.close()
        sink = None
    registry.clear()
    _span_stack.clear()
    _next_span_id = 1


def enable_from_env() -> bool:
    """Enable telemetry if ``REPRO_TELEMETRY`` names a trace path.

    Returns True when telemetry was enabled.  A blank value is treated
    as unset (the ``telemetry`` row of :mod:`repro.settings`).
    """
    path = settings.resolve("telemetry")
    if path is None:
        return False
    enable(path)
    return True


def span(name: str):
    """A context-manager span, or the shared no-op when disabled."""
    if not enabled:
        return NULL_SPAN
    return Span(name, sys.modules[__name__])


#: Innermost-open-span stack of this process: ``(span_id, trace_id)``
#: pairs.  Gives every finished span its parent/trace identifiers so
#: nested spans (e.g. ``columnar.compile`` under a campaign cell) can
#: be reassembled into a tree from the flat JSONL.
_span_stack: list[tuple[str, str]] = []
_next_span_id: int = 1


def _open_span(span: Span) -> None:
    """Called by Span.__enter__: assign span/parent/trace identifiers."""
    global _next_span_id
    span_id = f"s{_next_span_id}"
    _next_span_id += 1
    if _span_stack:
        parent_id, trace_id = _span_stack[-1]
    else:
        parent_id, trace_id = None, span_id
    span.span_id = span_id
    span.parent_id = parent_id
    span.trace_id = trace_id
    _span_stack.append((span_id, trace_id))


def _finish_span(span: Span, seconds: float) -> None:
    """Called by Span.__exit__: record into the registry and the sink."""
    if _span_stack and _span_stack[-1][0] == span.span_id:
        _span_stack.pop()
    else:
        # Unbalanced exit (e.g. a span leaked across disable/enable):
        # drop it and anything opened inside it.
        for i in range(len(_span_stack) - 1, -1, -1):
            if _span_stack[i][0] == span.span_id:
                del _span_stack[i:]
                break
    registry.observe(f"span.{span.name}{TIMING_SUFFIX}", seconds, TIME_BOUNDS)
    if sink is not None:
        record = {
            "type": "span",
            "name": span.name,
            "seconds": seconds,
            "span_id": span.span_id,
            "trace_id": span.trace_id,
        }
        if span.parent_id is not None:
            record["parent_id"] = span.parent_id
        if span.attrs:
            record["attrs"] = span.attrs
        sink.write(record)


@contextmanager
def capture():
    """Swap in a fresh registry for the duration of the block.

    Yields the temporary :class:`MetricsRegistry`; the previous one is
    restored on exit (even on error).  The caller snapshots the yielded
    registry to get the block's metrics in isolation — this is how the
    parallel executor gives each pool task its own snapshot regardless
    of which worker process runs it.

    No-op-ish when disabled: still swaps, but nothing records.
    """
    global registry
    previous = registry
    fresh = MetricsRegistry()
    registry = fresh
    try:
        yield fresh
    finally:
        registry = previous


def write_snapshot(
    snapshot: MetricsSnapshot | None = None, *, label: str = "metrics"
) -> None:
    """Append a metrics snapshot record to the sink (if open and owned).

    With no explicit ``snapshot``, snapshots the active registry.
    """
    if sink is None:
        return
    if snapshot is None:
        snapshot = registry.snapshot()
    sink.write(
        {"type": "metrics", "label": label, "metrics": snapshot.metrics}
    )
