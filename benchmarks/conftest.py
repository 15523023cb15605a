"""Benchmark-suite conftest: print the experiment tables."""

from __future__ import annotations

from benchmarks.common import ALL_TABLES
from repro import telemetry


def pytest_configure(config) -> None:
    # ``repro bench --telemetry PATH`` forwards the trace path to this
    # subprocess via REPRO_TELEMETRY; benchmarks then run instrumented.
    telemetry.enable_from_env()


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if telemetry.enabled:
        telemetry.write_snapshot(label="bench-final")
        if telemetry.sink is not None:
            terminalreporter.write_line(
                f"telemetry trace: {telemetry.sink.path}"
            )
        telemetry.disable()
    printed_header = False
    for collector in ALL_TABLES:
        rendered = collector.render()
        if rendered is None:
            continue
        if not printed_header:
            terminalreporter.section("paper-vs-measured experiment tables")
            printed_header = True
        terminalreporter.write_line("")
        terminalreporter.write_line(rendered)
