"""Generic guard-expression compiler: spec → columnar kernel.

:class:`CompiledSpecKernel` turns a protocol's declarative
:class:`~repro.columnar.expr.ColumnarSpec` into a kernel satisfying the
columnar engine interface (``load`` / ``enabled_map`` /
``take_changes`` / ``execute_selection`` / ``apply_updates``),
replacing the per-protocol hand transcription the snap-PIF kernel used
to be.  The same expression
tree is evaluated two ways:

* **scalar** — each IR node compiles once into a small closure
  (``fn(cols, p, memo)`` for owner scope, ``fn(cols, p, q)`` for fold
  bodies); neighborhood folds run as loops over the node's CSR slice
  and are memoized per node pass, so subexpressions shared between
  guards (``Sum_p``, ``Potential_p``…) are folded once.  Used by the
  pure backend always and by the numpy backend on small dirty regions.
* **vectorized** (numpy backend, regions ≥ :data:`VECTOR_MIN_NODES`) —
  the tree is interpreted over whole-region arrays: own reads become
  fancy indexing, parent gathers a clamped take, and folds one
  :func:`segment_reduce` over the gathered edge arrays.

Mask-bit ``i`` of a node equals guard ``i`` of its role's program —
DESIGN.md §12 argues why both evaluators agree with per-node
``Action.enabled``, and ``tests/columnar`` cross-checks all three.

Degree-0 nodes (churn can isolate a node mid-run) are handled in
:func:`segment_reduce` itself: empty CSR segments are dropped from the
``reduceat`` index list and patched with the fold identity, instead of
aliasing the next segment's result (``np.ufunc.reduceat`` gives an
empty segment the *single element* at its offset, and clamping offsets
corrupts the preceding segment).

Statements always execute scalarly: selections are far smaller than
mask regions, and all statement reads happen against the pre-step
columns before any write lands — the simultaneous-write semantics of
the model.  Specs with ``object_statements=True`` (impure statements,
e.g. payload envelopes) run compiled guards but delegate statements to
the protocol's object :class:`~repro.runtime.protocol.Action` path and
opt out of successor lockstep validation (``validates_successor``).
"""

from __future__ import annotations

import time
import weakref
from typing import Callable, Mapping, Sequence

from repro import telemetry as _telemetry
from repro.columnar.backend import make_column
from repro.columnar.block import ColumnBlock
from repro.columnar.csr import CSRIndex
from repro.columnar.expr import (
    Add,
    And,
    ColumnarSpec,
    Const,
    Eq,
    Expr,
    FOLDS,
    Ge,
    Gt,
    Le,
    Lt,
    Min2,
    Nbr,
    NbrAll,
    NbrArgMinFirst,
    NbrExists,
    NbrId,
    NbrMin,
    NbrSum,
    Ne,
    NodeId,
    Not,
    Or,
    Own,
    Ptr,
    Sub,
)
from repro.errors import ProtocolError
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Context, Protocol
from repro.runtime.state import Configuration, NodeState
from repro.telemetry.registry import TIME_BOUNDS

__all__ = [
    "CompiledSpecKernel",
    "VECTOR_MIN_NODES",
    "csr_for",
    "segment_reduce",
]

#: Below this many affected nodes the numpy backend evaluates masks
#: scalarly — gather/reduce setup costs more than the fold it replaces.
VECTOR_MIN_NODES = 48

#: Sentinel larger than any in-domain column value (levels, counts and
#: node ids are all bounded by N' ≤ 2^62); min folds use it as identity.
_BIG = 1 << 62

_MISSING = object()

#: One CSR index per Network, shared by every kernel compiled for it.
#: Weakly keyed — Network objects are immutable (topology churn swaps
#: the whole Network, and the runtime recompiles), so a cached index
#: can never go stale, and transient networks do not leak.
_CSR_CACHE: "weakref.WeakKeyDictionary[Network, CSRIndex]" = (
    weakref.WeakKeyDictionary()
)


def csr_for(network: Network) -> CSRIndex:
    """The (cached) CSR neighbor index of ``network``."""
    csr = _CSR_CACHE.get(network)
    if csr is None:
        csr = CSRIndex(network)
        _CSR_CACHE[network] = csr
    return csr


def segment_reduce(ufunc, values, offsets, counts, identity):
    """Per-segment ``ufunc`` reduction that is safe for empty segments.

    ``values`` is the concatenation of variable-length segments;
    ``offsets[i]`` is segment ``i``'s start and ``counts[i]`` its
    length (0 allowed).  Returns one reduced value per segment, with
    empty segments yielding ``identity``.

    Plain ``ufunc.reduceat(values, offsets)`` is wrong for empty
    segments twice over: a zero-length segment returns the single
    element ``values[offset]`` (aliasing the *next* segment's first
    element), and a trailing empty segment's offset equals
    ``len(values)``, which ``reduceat`` rejects.  Clamping offsets is
    also wrong — it silently truncates the preceding non-empty segment.
    The sound fix: reduce only the non-empty segments (their offsets
    are strictly increasing and in range by construction) and fill the
    empty ones with the identity.
    """
    import numpy as np

    if int(counts.min(initial=1)) > 0:
        return ufunc.reduceat(values, offsets)
    out_dtype = values.dtype
    out = np.full(counts.shape, identity, dtype=out_dtype)
    nz = np.nonzero(counts)[0]
    if nz.size:
        out[nz] = ufunc.reduceat(values, offsets[nz])
    return out


def _validate_expr(
    expr: Expr, *, in_guard: bool, fields: frozenset, where: str
) -> None:
    """Static checks the evaluators rely on (fail at compile, not step)."""

    def visit(e: Expr, in_fold: bool) -> None:
        if isinstance(e, (Nbr, NbrId)) and not in_fold:
            raise ProtocolError(
                f"{where}: {type(e).__name__} outside a neighborhood fold"
            )
        if isinstance(e, (Own, Nbr)) and e.field not in fields:
            raise ProtocolError(
                f"{where}: unknown column {e.field!r}"
            )
        if isinstance(e, Ptr) and (
            e.field not in fields or e.ptr_field not in fields
        ):
            raise ProtocolError(
                f"{where}: unknown column in Ptr({e.ptr_field!r}, {e.field!r})"
            )
        if isinstance(e, FOLDS):
            if in_fold:
                raise ProtocolError(
                    f"{where}: neighborhood folds cannot nest"
                )
            if isinstance(e, NbrMin):
                if in_guard and e.default is None:
                    raise ProtocolError(
                        f"{where}: NbrMin in a guard must provide a "
                        f"default (scalar and vectorized evaluation "
                        f"would diverge on an empty match set)"
                    )
                visit(e.value, True)
                if e.where is not None:
                    visit(e.where, True)
                if e.default is not None:
                    visit(e.default, False)  # defaults are owner-scope
                return
            for child in e.children():
                visit(child, True)
            return
        for child in e.children():
            visit(child, in_fold)

    visit(expr, False)


class CompiledSpecKernel:
    """Columnar kernel compiled from one ``(protocol, network, spec)``."""

    def __init__(
        self,
        protocol: Protocol,
        network: Network,
        backend: str,
        spec: ColumnarSpec,
    ) -> None:
        self.protocol = protocol
        self.network = network
        self.backend = backend
        self.spec = spec
        self.schema = spec.schema
        self.csr = csr_for(network)
        self.n = network.n
        #: Whether the lockstep validator may re-execute selections
        #: against the object engine (false for object-statement specs:
        #: impure statements must run exactly once).
        self.validates_successor = not spec.object_statements

        schema_names = set(self.schema.names)
        static_cols: dict[str, object] = {}
        if spec.statics:
            for name, builder in spec.statics.items():
                if name in schema_names:
                    raise ProtocolError(
                        f"static column {name!r} collides with a schema column"
                    )
                values = [int(v) for v in builder(network)]
                if len(values) != self.n:
                    raise ProtocolError(
                        f"static column {name!r} has {len(values)} values "
                        f"for an {self.n}-node network"
                    )
                static_cols[name] = make_column(backend, "q", values)
        self._static_cols = static_cols
        fields = frozenset(schema_names | set(static_cols))

        # Role table + spec/object program agreement (checks run against
        # one representative node per role; node_actions also triggers
        # the protocol's own network validation).
        roles = spec.roles
        programs = spec.programs
        role_keys: list[str] = []
        for p in range(self.n):
            role = roles(p)
            if role not in programs:
                raise ProtocolError(
                    f"node {p} has role {role!r} with no program in the spec"
                )
            role_keys.append(role)
        self._role_keys = role_keys
        self._nonbulk = [
            p for p in range(self.n) if role_keys[p] != spec.bulk_role
        ]
        representatives: dict[str, int] = {}
        for p, role in enumerate(role_keys):
            representatives.setdefault(role, p)
        for role, rep in representatives.items():
            spec_names = [a.name for a in programs[role]]
            object_names = [a.name for a in protocol.node_actions(rep, network)]
            if spec_names != object_names:
                raise ProtocolError(
                    f"columnar spec for role {role!r} disagrees with the "
                    f"object program at node {rep}: "
                    f"{spec_names} != {object_names}"
                )

        # Compile guards and statement updates per role.
        field_index = {name: i for i, name in enumerate(self.schema.names)}
        self._field_index = field_index
        self._guards: dict[str, tuple[Callable, ...]] = {}
        self._dispatch: dict[str, dict[str, tuple[int, object]]] = {}
        for role, program in programs.items():
            guard_fns = []
            dispatch: dict[str, tuple[int, object]] = {}
            for bit, aspec in enumerate(program):
                where = f"role {role!r}, action {aspec.name!r}"
                _validate_expr(
                    aspec.guard, in_guard=True, fields=fields, where=where
                )
                guard_fns.append(self._compile_node(aspec.guard))
                if spec.object_statements:
                    updates: object = None
                else:
                    compiled = []
                    for fname, uexpr in aspec.updates.items():
                        if fname not in field_index:
                            raise ProtocolError(
                                f"{where}: update target {fname!r} is not "
                                f"a schema column"
                            )
                        _validate_expr(
                            uexpr, in_guard=False, fields=fields, where=where
                        )
                        compiled.append(
                            (field_index[fname], self._compile_node(uexpr))
                        )
                    updates = tuple(compiled)
                dispatch[aspec.name] = (bit, updates)
            self._guards[role] = tuple(guard_fns)
            self._dispatch[role] = dispatch

        self._mask_actions: dict[tuple[int, int], tuple[Action, ...]] = {}
        self.block: ColumnBlock | None = None
        self.cols: dict[str, object] = {}
        self._masks: list[int] = [0] * self.n
        #: Nodes whose mask changed since the last report or load.
        self._changed: set[int] = set()
        # Object-statement side-car: the authoritative state objects
        # (columns carry only the pure core the guards read).
        self._objstates: list[NodeState] | None = None
        self._objconfig: Configuration | None = None

    # ------------------------------------------------------------------
    # Kernel interface (used by ColumnarRuntime)
    # ------------------------------------------------------------------
    def load(self, configuration: Configuration) -> None:
        """(Re-)encode the columns and recompute every mask."""
        if self.block is None or len(configuration) != self.n:
            self.block = ColumnBlock(self.schema, self.backend, configuration)
            self.cols = {**self.block.columns, **self._static_cols}
        else:
            self.block.load(configuration)
        if self.spec.object_statements:
            self._objstates = list(configuration.states)
            self._objconfig = configuration
        self._recompute_masks(range(self.n))
        self._changed.clear()

    def materialize(self) -> Configuration:
        if self.spec.object_statements:
            config = self._objconfig
            if config is None:
                config = Configuration(tuple(self._objstates))
                self._objconfig = config
            return config
        return self.block.materialize()

    def enabled_map(self) -> dict[int, list[Action]]:
        """``{node: enabled actions}`` in ascending node order.

        Byte-identical (same keys, same order, same ``Action`` objects)
        to :meth:`Protocol.enabled_map` on the materialized
        configuration — the property the lockstep validator asserts.
        O(N): the step loop reads :meth:`take_changes` instead.
        """
        actions_of = self._actions_of
        return {
            p: list(actions_of(p)) for p, mask in enumerate(self._masks) if mask
        }

    def take_changes(self) -> dict[int, list[Action] | None]:
        """The entries that changed since the last report or load.

        ``{node: enabled actions}``, ``None`` for a node that became
        disabled; the nodes are the ones :meth:`apply_masks` saw change.
        """
        changed = self._changed
        if not changed:
            return {}
        self._changed = set()
        masks = self._masks
        memo = self._mask_actions
        changes: dict[int, list[Action] | None] = {}
        for p in changed:
            mask = masks[p]
            if mask:
                changes[p] = list(memo.get((p, mask)) or self._actions_of(p))
            else:
                changes[p] = None
        return changes

    def _actions_of(self, p: int) -> tuple[Action, ...]:
        """The actions enabled at ``p`` by its current (non-zero) mask."""
        mask = self._masks[p]
        key = (p, mask)
        actions = self._mask_actions.get(key)
        if actions is None:
            program = self.protocol.node_actions(p, self.network)
            actions = tuple(a for i, a in enumerate(program) if mask >> i & 1)
            self._mask_actions[key] = actions
        return actions

    def execute_selection(self, selection: Mapping[int, Action]) -> set[int]:
        """One computation step: simultaneous writes, dirty-region repair."""
        if self.spec.object_statements:
            return self._execute_selection_object(selection)
        # Phase 1: every statement reads the pre-step columns.
        pending = self.pending_updates(
            [(p, selection[p]) for p in sorted(selection)]
        )
        # Phase 2: all writes land simultaneously.
        if not pending:
            return set()
        write_row = self.block.write_row
        dirty = set()
        for p, row in pending:
            write_row(p, row)
            dirty.add(p)
        self._refresh(dirty)
        return dirty

    def pending_updates(
        self, items: Sequence[tuple[int, Action]]
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Phase 1 of a step: statements evaluated on pre-step columns.

        ``items`` is ``(node, action)`` pairs in ascending node order.
        Returns the *changed* rows as ``(node, new_row)``, ascending,
        without writing anything — callers land the writes and repair
        masks themselves.  Pure with respect to kernel state (column
        reads stay within one hop of the given nodes), so every
        statement of a step sees the same pre-step configuration, as
        the model requires.  Large bulk-role groups on the numpy backend
        are evaluated vectorially; the result is bit-identical to the
        scalar path because both interpret the same IR over int64.
        """
        masks = self._masks
        role_keys = self._role_keys
        dispatch_by_role = self._dispatch
        resolved: list[tuple[int, str, tuple]] = []
        for p, action in items:
            entry = dispatch_by_role[role_keys[p]].get(action.name)
            if entry is None:
                raise ProtocolError(
                    f"action {action.name!r} is not in node {p}'s program"
                )
            bit, updates = entry
            if not masks[p] >> bit & 1:
                raise ProtocolError(
                    f"action {action.name!r} executed at node {p} "
                    f"while its guard is false"
                )
            resolved.append((p, action.name, updates))
        pending: list[tuple[int, tuple[int, ...]]] = []
        if (
            self.backend == "numpy"
            and self.n > 1
            and len(resolved) >= VECTOR_MIN_NODES
        ):
            resolved, vectorized = self._updates_vectorized(resolved)
            pending.extend(vectorized)
        read_row = self.block.read_row
        cols = self.cols
        for p, _name, updates in resolved:
            before = read_row(p)
            row = list(before)
            memo: dict = {}
            for idx, fn in updates:
                row[idx] = int(fn(cols, p, memo))
            after = tuple(row)
            if after != before:
                pending.append((p, after))
        pending.sort()
        return pending

    def _updates_vectorized(self, resolved):
        """Vectorized statement evaluation for large bulk-role groups.

        Splits ``resolved`` into groups by action name; groups of
        bulk-role nodes with compiled updates of size ≥
        :data:`VECTOR_MIN_NODES` are interpreted over whole-group arrays
        (same IR, same int64 arithmetic as the scalar closures), the
        rest fall back.  Returns ``(scalar_leftover, pending)``.
        """
        import numpy as np

        bulk = self.spec.bulk_role
        role_keys = self._role_keys
        groups: dict[str, list[int]] = {}
        scalar: list[tuple[int, str, tuple]] = []
        for item in resolved:
            p, name, updates = item
            if role_keys[p] == bulk and updates:
                groups.setdefault(name, []).append(p)
            else:
                scalar.append(item)
        specs = {a.name: a for a in self.spec.programs[bulk]}
        pending: list[tuple[int, tuple[int, ...]]] = []
        field_index = self._field_index
        read_row = self.block.read_row
        for name in sorted(groups):
            nodes = groups[name]
            if len(nodes) < VECTOR_MIN_NODES:
                entry = self._dispatch[bulk][name]
                scalar.extend((p, name, entry[1]) for p in nodes)
                continue
            A, vn, _truthy = self._vector_scope(nodes)
            size = len(nodes)
            new_vals: list[tuple[str, object]] = []
            changed = np.zeros(size, dtype=bool)
            for fname, uexpr in specs[name].updates.items():
                vals = np.asarray(vn(uexpr))
                if vals.ndim == 0:
                    vals = np.full(size, int(vals), dtype=np.int64)
                else:
                    vals = vals.astype(np.int64, copy=False)
                changed |= vals != np.asarray(self.cols[fname])[A]
                new_vals.append((fname, vals))
            for i in np.nonzero(changed)[0]:
                i = int(i)
                p = nodes[i]
                row = list(read_row(p))
                for fname, vals in new_vals:
                    row[field_index[fname]] = int(vals[i])
                pending.append((p, tuple(row)))
        return scalar, pending

    def _execute_selection_object(
        self, selection: Mapping[int, Action]
    ) -> set[int]:
        """Compiled guards, object statements (impure-statement specs)."""
        masks = self._masks
        role_keys = self._role_keys
        dispatch_by_role = self._dispatch
        config = self.materialize()
        network = self.network
        pending: list[tuple[int, NodeState]] = []
        for p, action in selection.items():
            entry = dispatch_by_role[role_keys[p]].get(action.name)
            if entry is None:
                raise ProtocolError(
                    f"action {action.name!r} is not in node {p}'s program"
                )
            bit, _ = entry
            if not masks[p] >> bit & 1:
                raise ProtocolError(
                    f"action {action.name!r} executed at node {p} "
                    f"while its guard is false"
                )
            state = action.statement(Context(p, network, config))
            if state != config[p]:
                pending.append((p, state))
        if not pending:
            return set()
        encode = self.schema.encode_state
        write_row = self.block.write_row
        dirty = set()
        for p, state in pending:
            self._objstates[p] = state
            write_row(p, encode(state))
            dirty.add(p)
        self._objconfig = None
        self._refresh(dirty)
        return dirty

    def apply_updates(self, updates: Mapping[int, NodeState]) -> set[int]:
        """Overwrite a subset of node states (targeted transient fault)."""
        encode = self.schema.encode_state
        write_row = self.block.write_row
        dirty = set()
        if self.spec.object_statements:
            for p, state in updates.items():
                if state != self._objstates[p]:
                    self._objstates[p] = state
                    write_row(p, encode(state))
                    dirty.add(p)
            if dirty:
                self._objconfig = None
                self._refresh(dirty)
            return dirty
        read_row = self.block.read_row
        for p, state in updates.items():
            row = encode(state)
            if row != read_row(p):
                write_row(p, row)
                dirty.add(p)
        if dirty:
            self._refresh(dirty)
        return dirty

    # ------------------------------------------------------------------
    # Mask maintenance
    # ------------------------------------------------------------------
    def _refresh(self, dirty: set[int]) -> None:
        """Re-evaluate masks on ``dirty ∪ N(dirty)`` (1-hop locality)."""
        affected = self.affected_of(dirty)
        if _telemetry.enabled:
            start = time.perf_counter()
            self._recompute_masks(affected)
            reg = _telemetry.registry
            reg.observe("columnar.mask_eval_nodes", len(affected))
            reg.observe(
                "columnar.mask_eval.seconds",
                time.perf_counter() - start,
                TIME_BOUNDS,
            )
        else:
            self._recompute_masks(affected)

    def affected_of(self, dirty) -> list[int]:
        """``sorted(dirty ∪ N(dirty))`` — the mask-repair set of a write."""
        affected = set(dirty)
        indptr, indices = self.csr.indptr, self.csr.indices
        for p in dirty:
            affected.update(indices[indptr[p] : indptr[p + 1]])
        return sorted(affected)

    def _recompute_masks(self, nodes) -> None:
        self.apply_masks(nodes, self.mask_values(nodes))

    def mask_values(self, nodes) -> list[int]:
        """Guard masks of ``nodes`` (ascending, sized) — the pure half
        of mask repair.  Reads columns within one hop of ``nodes`` and
        writes nothing; :meth:`apply_masks` installs the results.
        """
        if (
            self.backend == "numpy"
            and self.n > 1
            and len(nodes) >= VECTOR_MIN_NODES
        ):
            return self._masks_vectorized(nodes)
        mask_of = self._mask_of
        return [mask_of(p) for p in nodes]

    def apply_masks(self, nodes, values: Sequence[int]) -> None:
        """Install :meth:`mask_values` results, noting the masks that changed."""
        masks = self._masks
        changed = self._changed
        for p, mask in zip(nodes, values):
            if masks[p] != mask:
                masks[p] = mask
                changed.add(p)

    def _mask_of(self, p: int) -> int:
        cols = self.cols
        memo: dict = {}
        mask = 0
        bit = 1
        for fn in self._guards[self._role_keys[p]]:
            if fn(cols, p, memo):
                mask |= bit
            bit <<= 1
        return mask

    # ------------------------------------------------------------------
    # Scalar compilation: IR node -> closure
    # ------------------------------------------------------------------
    def _compile_node(self, expr: Expr) -> Callable:
        """Owner scope: ``fn(cols, p, memo) -> int/bool``."""
        if isinstance(expr, Const):
            value = expr.value
            return lambda cols, p, memo: value
        if isinstance(expr, Own):
            name = expr.field
            return lambda cols, p, memo: cols[name][p]
        if isinstance(expr, NodeId):
            return lambda cols, p, memo: p
        if isinstance(expr, Ptr):
            ptr_name = expr.ptr_field
            name = expr.field

            def gather(cols, p, memo):
                i = cols[ptr_name][p]
                return cols[name][i if i >= 0 else 0]

            return gather
        if isinstance(expr, And):
            fns = [self._compile_node(a) for a in expr.args]

            def conj(cols, p, memo):
                for fn in fns:
                    if not fn(cols, p, memo):
                        return False
                return True

            return conj
        if isinstance(expr, Or):
            fns = [self._compile_node(a) for a in expr.args]

            def disj(cols, p, memo):
                for fn in fns:
                    if fn(cols, p, memo):
                        return True
                return False

            return disj
        if isinstance(expr, Not):
            fn = self._compile_node(expr.arg)
            return lambda cols, p, memo: not fn(cols, p, memo)
        if isinstance(expr, FOLDS):
            return self._compile_fold(expr)
        if isinstance(expr, (Eq, Ne, Lt, Le, Gt, Ge, Add, Sub, Min2)):
            a = self._compile_node(expr.a)
            b = self._compile_node(expr.b)
            return _binop(type(expr), a, b)
        raise ProtocolError(
            f"unsupported IR node in owner scope: {type(expr).__name__}"
        )

    def _compile_edge(self, expr: Expr) -> Callable:
        """Fold-body scope: ``fn(cols, p, q) -> int/bool``."""
        if isinstance(expr, Const):
            value = expr.value
            return lambda cols, p, q: value
        if isinstance(expr, Nbr):
            name = expr.field
            return lambda cols, p, q: cols[name][q]
        if isinstance(expr, NbrId):
            return lambda cols, p, q: q
        if isinstance(expr, Own):
            name = expr.field
            return lambda cols, p, q: cols[name][p]
        if isinstance(expr, NodeId):
            return lambda cols, p, q: p
        if isinstance(expr, Ptr):
            ptr_name = expr.ptr_field
            name = expr.field

            def gather(cols, p, q):
                i = cols[ptr_name][p]
                return cols[name][i if i >= 0 else 0]

            return gather
        if isinstance(expr, And):
            fns = [self._compile_edge(a) for a in expr.args]

            def conj(cols, p, q):
                for fn in fns:
                    if not fn(cols, p, q):
                        return False
                return True

            return conj
        if isinstance(expr, Or):
            fns = [self._compile_edge(a) for a in expr.args]

            def disj(cols, p, q):
                for fn in fns:
                    if fn(cols, p, q):
                        return True
                return False

            return disj
        if isinstance(expr, Not):
            fn = self._compile_edge(expr.arg)
            return lambda cols, p, q: not fn(cols, p, q)
        if isinstance(expr, (Eq, Ne, Lt, Le, Gt, Ge, Add, Sub, Min2)):
            a = self._compile_edge(expr.a)
            b = self._compile_edge(expr.b)
            return _binop_edge(type(expr), a, b)
        raise ProtocolError(
            f"unsupported IR node in a fold body: {type(expr).__name__}"
        )

    def _compile_fold(self, expr: Expr) -> Callable:
        """One CSR-slice fold, memoized per node pass (keyed by the
        expression object's identity, so subexpressions shared between
        guards evaluate once per node)."""
        key = id(expr)
        indptr = self.csr.indptr
        indices = self.csr.indices
        if isinstance(expr, NbrExists):
            pred = self._compile_edge(expr.pred)

            def exists(cols, p, memo):
                val = memo.get(key, _MISSING)
                if val is _MISSING:
                    val = False
                    for i in range(indptr[p], indptr[p + 1]):
                        if pred(cols, p, indices[i]):
                            val = True
                            break
                    memo[key] = val
                return val

            return exists
        if isinstance(expr, NbrAll):
            pred = self._compile_edge(expr.pred)

            def forall(cols, p, memo):
                val = memo.get(key, _MISSING)
                if val is _MISSING:
                    val = True
                    for i in range(indptr[p], indptr[p + 1]):
                        if not pred(cols, p, indices[i]):
                            val = False
                            break
                    memo[key] = val
                return val

            return forall
        if isinstance(expr, NbrSum):
            value = self._compile_edge(expr.value)
            where = (
                None if expr.where is None else self._compile_edge(expr.where)
            )

            def total(cols, p, memo):
                val = memo.get(key, _MISSING)
                if val is _MISSING:
                    val = 0
                    for i in range(indptr[p], indptr[p + 1]):
                        q = indices[i]
                        if where is None or where(cols, p, q):
                            val += value(cols, p, q)
                    memo[key] = val
                return val

            return total
        if isinstance(expr, NbrMin):
            value = self._compile_edge(expr.value)
            where = (
                None if expr.where is None else self._compile_edge(expr.where)
            )
            default = (
                None
                if expr.default is None
                else self._compile_node(expr.default)
            )

            def minimum(cols, p, memo):
                val = memo.get(key, _MISSING)
                if val is _MISSING:
                    best = None
                    for i in range(indptr[p], indptr[p + 1]):
                        q = indices[i]
                        if where is None or where(cols, p, q):
                            v = value(cols, p, q)
                            if best is None or v < best:
                                best = v
                    if best is None:
                        if default is None:
                            raise ProtocolError(
                                f"NbrMin fold at node {p} matched no "
                                f"neighbor and has no default"
                            )
                        best = default(cols, p, memo)
                    val = best
                    memo[key] = val
                return val

            return minimum
        if isinstance(expr, NbrArgMinFirst):
            value = self._compile_edge(expr.value)
            where = (
                None if expr.where is None else self._compile_edge(expr.where)
            )

            def argmin(cols, p, memo):
                val = memo.get(key, _MISSING)
                if val is _MISSING:
                    best = None
                    chosen = -1
                    # Strict < keeps the *first* minimal neighbor in
                    # local order ≻_p — the object engines' candidates[0].
                    for i in range(indptr[p], indptr[p + 1]):
                        q = indices[i]
                        if where is None or where(cols, p, q):
                            v = value(cols, p, q)
                            if best is None or v < best:
                                best = v
                                chosen = q
                    val = chosen
                    memo[key] = val
                return val

            return argmin
        raise ProtocolError(f"unknown fold {type(expr).__name__}")

    # ------------------------------------------------------------------
    # Vectorized mask evaluation (numpy backend, large regions)
    # ------------------------------------------------------------------
    def _vector_scope(self, nodes):
        """Build the whole-region evaluation scope over ``nodes``.

        Returns ``(A, vn, truthy)``: the node-id array, the memoized
        owner-scope evaluator (guards *and* statement updates interpret
        through it), and the boolean coercion helper.  Shared by
        :meth:`_masks_vectorized` and :meth:`_updates_vectorized` so the
        two vectorized interpreters cannot drift apart.
        """
        import numpy as np

        indptr, indices = self.csr.as_numpy()
        A = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
        cols = {
            name: np.asarray(col) for name, col in self.cols.items()
        }
        starts = indptr[A]
        counts = indptr[A + 1] - starts
        offsets = np.zeros(len(A), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        total_edges = int(offsets[-1] + counts[-1])
        # Edge positions: node i's CSR slice, concatenated in order
        # (zero-degree nodes simply contribute no edges).
        pos = (
            np.arange(total_edges, dtype=np.int64)
            - np.repeat(offsets, counts)
            + np.repeat(starts, counts)
        )
        nbr = indices[pos]
        owner = np.repeat(A, counts)
        node_memo: dict[int, object] = {}
        edge_memo: dict[int, object] = {}

        def truthy(x):
            return np.asarray(x) != 0

        def as_edges(x):
            arr = np.asarray(x)
            if arr.ndim == 0:
                return np.full(total_edges, arr.item(), dtype=np.int64)
            return arr

        def vn(expr: Expr):
            """Owner scope: arrays over A (or numpy/python scalars)."""
            key = id(expr)
            cached = node_memo.get(key, _MISSING)
            if cached is not _MISSING:
                return cached
            out = _vn_eval(expr)
            node_memo[key] = out
            return out

        def _vn_eval(expr: Expr):
            if isinstance(expr, Const):
                return expr.value
            if isinstance(expr, Own):
                return cols[expr.field][A]
            if isinstance(expr, NodeId):
                return A
            if isinstance(expr, Ptr):
                ptr = cols[expr.ptr_field][A]
                safe = np.where(ptr < 0, 0, ptr)
                return cols[expr.field][safe]
            if isinstance(expr, And):
                out = truthy(vn(expr.args[0]))
                for a in expr.args[1:]:
                    out = out & truthy(vn(a))
                return out
            if isinstance(expr, Or):
                out = truthy(vn(expr.args[0]))
                for a in expr.args[1:]:
                    out = out | truthy(vn(a))
                return out
            if isinstance(expr, Not):
                return ~truthy(vn(expr.arg))
            if isinstance(expr, Eq):
                return vn(expr.a) == vn(expr.b)
            if isinstance(expr, Ne):
                return vn(expr.a) != vn(expr.b)
            if isinstance(expr, Lt):
                return vn(expr.a) < vn(expr.b)
            if isinstance(expr, Le):
                return vn(expr.a) <= vn(expr.b)
            if isinstance(expr, Gt):
                return vn(expr.a) > vn(expr.b)
            if isinstance(expr, Ge):
                return vn(expr.a) >= vn(expr.b)
            if isinstance(expr, Add):
                return vn(expr.a) + vn(expr.b)
            if isinstance(expr, Sub):
                return vn(expr.a) - vn(expr.b)
            if isinstance(expr, Min2):
                return np.minimum(vn(expr.a), vn(expr.b))
            if isinstance(expr, NbrExists):
                pred = as_edges(truthy(ve(expr.pred)))
                return segment_reduce(
                    np.bitwise_or, pred, offsets, counts, False
                )
            if isinstance(expr, NbrAll):
                pred = as_edges(truthy(ve(expr.pred)))
                return segment_reduce(
                    np.bitwise_and, pred, offsets, counts, True
                )
            if isinstance(expr, NbrSum):
                vals = as_edges(ve(expr.value)).astype(np.int64, copy=False)
                if expr.where is not None:
                    vals = np.where(as_edges(truthy(ve(expr.where))), vals, 0)
                return segment_reduce(np.add, vals, offsets, counts, 0)
            if isinstance(expr, NbrMin):
                vals = as_edges(ve(expr.value)).astype(np.int64, copy=False)
                if expr.where is not None:
                    vals = np.where(
                        as_edges(truthy(ve(expr.where))), vals, _BIG
                    )
                m = segment_reduce(np.minimum, vals, offsets, counts, _BIG)
                empty = m == _BIG
                if not empty.any():
                    return m
                if expr.default is None:
                    bad = int(A[np.nonzero(empty)[0][0]])
                    raise ProtocolError(
                        f"NbrMin fold at node {bad} matched no neighbor "
                        f"and has no default"
                    )
                return np.where(empty, vn(expr.default), m)
            if isinstance(expr, NbrArgMinFirst):
                if total_edges == 0:
                    return np.full(len(A), -1, dtype=np.int64)
                vals = as_edges(ve(expr.value)).astype(np.int64, copy=False)
                if expr.where is not None:
                    vals = np.where(
                        as_edges(truthy(ve(expr.where))), vals, _BIG
                    )
                m = segment_reduce(np.minimum, vals, offsets, counts, _BIG)
                m_edge = np.repeat(m, counts)
                pos_in_slice = np.arange(
                    total_edges, dtype=np.int64
                ) - np.repeat(offsets, counts)
                cand = np.where(
                    (vals == m_edge) & (vals != _BIG), pos_in_slice, _BIG
                )
                best = segment_reduce(
                    np.minimum, cand, offsets, counts, _BIG
                )
                found = best != _BIG
                idx = offsets + np.where(found, best, 0)
                idx = np.minimum(idx, total_edges - 1)
                return np.where(found, nbr[idx], -1)
            raise ProtocolError(
                f"unsupported IR node in owner scope: {type(expr).__name__}"
            )

        def ve(expr: Expr):
            """Fold-body scope: arrays over the gathered edges."""
            key = id(expr)
            cached = edge_memo.get(key, _MISSING)
            if cached is not _MISSING:
                return cached
            out = _ve_eval(expr)
            edge_memo[key] = out
            return out

        def _ve_eval(expr: Expr):
            if isinstance(expr, Const):
                return expr.value
            if isinstance(expr, Nbr):
                return cols[expr.field][nbr]
            if isinstance(expr, NbrId):
                return nbr
            if isinstance(expr, Own):
                return cols[expr.field][owner]
            if isinstance(expr, NodeId):
                return owner
            if isinstance(expr, Ptr):
                ptr = cols[expr.ptr_field][owner]
                safe = np.where(ptr < 0, 0, ptr)
                return cols[expr.field][safe]
            if isinstance(expr, And):
                out = truthy(ve(expr.args[0]))
                for a in expr.args[1:]:
                    out = out & truthy(ve(a))
                return out
            if isinstance(expr, Or):
                out = truthy(ve(expr.args[0]))
                for a in expr.args[1:]:
                    out = out | truthy(ve(a))
                return out
            if isinstance(expr, Not):
                return ~truthy(ve(expr.arg))
            if isinstance(expr, Eq):
                return ve(expr.a) == ve(expr.b)
            if isinstance(expr, Ne):
                return ve(expr.a) != ve(expr.b)
            if isinstance(expr, Lt):
                return ve(expr.a) < ve(expr.b)
            if isinstance(expr, Le):
                return ve(expr.a) <= ve(expr.b)
            if isinstance(expr, Gt):
                return ve(expr.a) > ve(expr.b)
            if isinstance(expr, Ge):
                return ve(expr.a) >= ve(expr.b)
            if isinstance(expr, Add):
                return ve(expr.a) + ve(expr.b)
            if isinstance(expr, Sub):
                return ve(expr.a) - ve(expr.b)
            if isinstance(expr, Min2):
                return np.minimum(ve(expr.a), ve(expr.b))
            raise ProtocolError(
                f"unsupported IR node in a fold body: {type(expr).__name__}"
            )

        return A, vn, truthy

    def _masks_vectorized(self, nodes) -> list[int]:
        import numpy as np

        A, vn, truthy = self._vector_scope(nodes)
        program = self.spec.programs[self.spec.bulk_role]
        masks = np.zeros(len(A), dtype=np.int64)
        for bit, aspec in enumerate(program):
            g = np.broadcast_to(truthy(vn(aspec.guard)), A.shape)
            masks |= g.astype(np.int64) << bit
        result = masks.tolist()
        # Nodes outside the bulk role (typically just the root) run a
        # different program: overwrite scalarly.
        mask_of = self._mask_of
        size = len(A)
        for p in self._nonbulk:
            idx = int(np.searchsorted(A, p))
            if idx < size and int(A[idx]) == p:
                result[idx] = mask_of(p)
        return result


def _binop(op: type, a: Callable, b: Callable) -> Callable:
    if op is Eq:
        return lambda cols, p, memo: a(cols, p, memo) == b(cols, p, memo)
    if op is Ne:
        return lambda cols, p, memo: a(cols, p, memo) != b(cols, p, memo)
    if op is Lt:
        return lambda cols, p, memo: a(cols, p, memo) < b(cols, p, memo)
    if op is Le:
        return lambda cols, p, memo: a(cols, p, memo) <= b(cols, p, memo)
    if op is Gt:
        return lambda cols, p, memo: a(cols, p, memo) > b(cols, p, memo)
    if op is Ge:
        return lambda cols, p, memo: a(cols, p, memo) >= b(cols, p, memo)
    if op is Add:
        return lambda cols, p, memo: a(cols, p, memo) + b(cols, p, memo)
    if op is Sub:
        return lambda cols, p, memo: a(cols, p, memo) - b(cols, p, memo)
    if op is Min2:
        return lambda cols, p, memo: min(a(cols, p, memo), b(cols, p, memo))
    raise ProtocolError(f"unknown binary op {op.__name__}")


def _binop_edge(op: type, a: Callable, b: Callable) -> Callable:
    if op is Eq:
        return lambda cols, p, q: a(cols, p, q) == b(cols, p, q)
    if op is Ne:
        return lambda cols, p, q: a(cols, p, q) != b(cols, p, q)
    if op is Lt:
        return lambda cols, p, q: a(cols, p, q) < b(cols, p, q)
    if op is Le:
        return lambda cols, p, q: a(cols, p, q) <= b(cols, p, q)
    if op is Gt:
        return lambda cols, p, q: a(cols, p, q) > b(cols, p, q)
    if op is Ge:
        return lambda cols, p, q: a(cols, p, q) >= b(cols, p, q)
    if op is Add:
        return lambda cols, p, q: a(cols, p, q) + b(cols, p, q)
    if op is Sub:
        return lambda cols, p, q: a(cols, p, q) - b(cols, p, q)
    if op is Min2:
        return lambda cols, p, q: min(a(cols, p, q), b(cols, p, q))
    raise ProtocolError(f"unknown binary op {op.__name__}")
