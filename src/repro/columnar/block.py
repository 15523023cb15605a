"""Columnar state storage: one flat array per variable.

A :class:`ColumnBlock` holds a whole configuration as per-variable flat
arrays indexed by node id — the columnar transpose of the object
engine's tuple-of-states :class:`~repro.runtime.state.Configuration`.
Writes are in-place and O(written nodes); the object engine instead
copies the full state tuple on every step, which is the O(N)-per-step
cost the columnar engine removes.

Bidirectional conversion keeps the object-level API alive: monitors,
traces, model checkers and the chaos replay oracle all receive ordinary
:class:`Configuration` objects materialized on demand.  Materialization
caches aggressively — per-node decoded states are invalidated only when
that node is written, and the assembled ``Configuration`` object is
reused until any write happens — so a no-op step returns the *same*
configuration object, preserving the identity guarantee the incremental
engine's dirty-set filtering established.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.columnar.backend import make_column
from repro.columnar.schema import ColumnSchema
from repro.runtime.state import Configuration, NodeState

__all__ = ["ColumnBlock"]


class ColumnBlock:
    """Flat per-variable columns for one configuration.

    ``columns`` maps field name → backing array (``array.array`` or
    ndarray, per backend).  Kernels read and write the arrays directly;
    all writes must go through :meth:`write_row` (or be followed by
    :meth:`invalidate`) so the materialization cache stays honest.
    """

    __slots__ = ("schema", "backend", "n", "columns", "_row", "_states", "_config")

    def __init__(
        self, schema: ColumnSchema, backend: str, configuration: Configuration
    ) -> None:
        self.schema = schema
        self.backend = backend
        self.n = len(configuration)
        rows = [schema.encode_state(state) for state in configuration]
        self.columns = {
            f.name: make_column(
                backend, f.typecode, (row[i] for row in rows)
            )
            for i, f in enumerate(schema.fields)
        }
        #: The columns in schema field order: one node's row, by index.
        self._row = tuple(self.columns[f.name] for f in schema.fields)
        # Per-node decoded state cache, seeded with the exact objects of
        # the source configuration (no decode needed until a write).
        self._states: list[NodeState | None] = list(configuration.states)
        self._config: Configuration | None = configuration

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def read_row(self, p: int) -> tuple[int, ...]:
        """Node ``p``'s raw column values, in schema field order."""
        return tuple([int(column[p]) for column in self._row])

    def write_row(self, p: int, row: Sequence[int]) -> None:
        """Overwrite node ``p``'s columns and invalidate its cache entry."""
        for column, value in zip(self._row, row):
            column[p] = value
        self._states[p] = None
        self._config = None

    def invalidate(self, nodes: Iterable[int] | None = None) -> None:
        """Drop cached decodes after direct column writes.

        ``None`` invalidates every node (full overwrite).
        """
        if nodes is None:
            self._states = [None] * self.n
        else:
            for p in nodes:
                self._states[p] = None
        self._config = None

    # ------------------------------------------------------------------
    # Object-level conversion
    # ------------------------------------------------------------------
    def state_of(self, p: int) -> NodeState:
        """Decode node ``p``'s state (cached until the node is written)."""
        state = self._states[p]
        if state is None:
            state = self.schema.decode_row(self.read_row(p))
            self._states[p] = state
        return state

    def materialize(self) -> Configuration:
        """The block as an object :class:`Configuration` (cached).

        Consecutive calls with no intervening write return the same
        object, and unwritten nodes reuse their previously decoded
        state objects — successive materializations share storage the
        same way object-engine successors share unwritten states.
        """
        config = self._config
        if config is None:
            state_of = self.state_of
            config = Configuration(
                tuple(state_of(p) for p in range(self.n))
            )
            self._config = config
        return config

    def load(self, configuration: Configuration) -> None:
        """Re-encode every column from ``configuration`` (transient fault)."""
        if len(configuration) != self.n:
            raise ValueError(
                f"configuration has {len(configuration)} states for an "
                f"{self.n}-node block"
            )
        schema = self.schema
        for i, f in enumerate(schema.fields):
            column = self.columns[f.name]
            encode = f.encode
            for p, state in enumerate(configuration.states):
                column[p] = encode(getattr(state, f.name))
        self._states = list(configuration.states)
        self._config = configuration
