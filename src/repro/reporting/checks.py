"""Rendering of model-check results and their instrumentation.

The verification CLI (``repro verify``) and examples print
:class:`~repro.verification.model_check.ModelCheckResult` objects with
:func:`render_model_check`: one verdict line, the coverage counters, and
— when the checker collected a stats block — the memo/interning/
throughput instrumentation of the run.
"""

from __future__ import annotations

from repro.verification.model_check import ModelCheckResult

__all__ = ["render_model_check"]


def render_model_check(result: ModelCheckResult) -> str:
    """Render a model-check result as a small multi-line report."""
    verdict = "PASS" if result.ok else "FAIL"
    lines = [
        f"{result.property_name}: {verdict}"
        + ("" if result.complete else " (incomplete)")
    ]
    lines.append(
        f"  configurations={result.configurations_checked} "
        f"states={result.states_explored} "
        f"transitions={result.transitions_explored}"
    )
    if result.truncation:
        lines.append(f"  truncated: {result.truncation}")
    if not result.ok:
        lines.append(f"  counterexamples: {len(result.counterexamples)}")
    stats = result.stats
    if stats is not None:
        lines.append(
            f"  time={stats.elapsed_seconds:.2f}s "
            f"states/s={stats.states_per_second:,.0f} "
            f"memo={'on' if stats.memo_enabled else 'off'}"
        )
        if stats.memo_enabled:
            if stats.memo_capacity:
                lines.append(
                    f"  transition memo: {stats.memo_entries} entries "
                    f"(cap {stats.memo_capacity}), "
                    f"hit rate {stats.memo_hit_rate:.1%}, "
                    f"{stats.memo_evictions} evictions"
                )
            lines.append(
                f"  view memo: hit rate {stats.view_hit_rate:.1%}; "
                f"interned {stats.interned_configurations} configurations "
                f"(dedup ratio {stats.interning_ratio:.1%})"
            )
            if stats.peak_parent_entries:
                lines.append(
                    f"  peak schedule-reconstruction entries: "
                    f"{stats.peak_parent_entries}"
                )
    return "\n".join(lines)
