"""Shared plumbing for the benchmark/experiment suite.

Each ``bench_*.py`` file regenerates one experiment of EXPERIMENTS.md
(the paper's proved bounds, re-measured).  Tests use pytest-benchmark to
time the underlying simulation; every test also contributes a row to a
module-level :class:`TableCollector`.  The collectors register
themselves in a global registry, and ``benchmarks/conftest.py`` prints
every collected table in the terminal summary, so running::

    pytest benchmarks/ --benchmark-only

produces both the timing tables and the reproduction tables.  The
end-to-end speed of the program is measured separately, by
``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

from repro.reporting import render_table

__all__ = ["TableCollector", "ALL_TABLES"]


#: Global registry of experiment tables, printed by the conftest hook.
ALL_TABLES: list["TableCollector"] = []


class TableCollector:
    """Accumulates paper-vs-measured rows for one experiment."""

    def __init__(self, title: str, columns: list[str] | None = None) -> None:
        self.title = title
        self.columns = columns
        self.rows: list[dict[str, object]] = []
        ALL_TABLES.append(self)

    def add(self, row: dict[str, object]) -> None:
        self.rows.append(row)

    def render(self) -> str | None:
        if not self.rows:
            return None
        return render_table(self.rows, self.columns, title=self.title)
