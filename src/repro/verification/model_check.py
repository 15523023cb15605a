"""Exhaustive verification of the snap property on small networks.

Snap-stabilization (Definition 1) quantifies over *every* execution from
*every* configuration.  On small networks the configuration space of the
PIF protocol is finite and enumerable, so the quantifier can be checked
mechanically:

**Safety** (:func:`check_snap_safety`).  A wave the root initiates is
precisely a ``B-action`` of the root, whose guard requires the root and
all its neighbors to be in phase ``C``.  Any configuration in which such
a step can occur — whatever garbage the rest of the network holds — is
therefore an *initiation configuration*, and the set of initiation
configurations is a superset of those reachable in real executions.  The
checker enumerates all of them, then explores every execution under the
fully general distributed daemon (all non-empty subsets of enabled
processors, all action choices) while tracking wave membership exactly
like :class:`~repro.core.monitor.PifCycleMonitor`:

* a processor *receives m* when its B-action attaches to a wave member;
* it *acknowledges* when it executes its F-action as a wave member;
* when the root executes its F-action, [PIF1] and [PIF2] must hold;
* a wave member must never be demoted by a correction, and the root must
  never abort or double-start the wave.

Any violation yields a replayable counterexample (initial configuration
plus schedule); by default every counterexample is immediately replayed
through the real :class:`~repro.runtime.simulator.Simulator` with a
scripted daemon to confirm it (:func:`replay_counterexample`).

**Liveness** (:func:`check_cycle_liveness_synchronous`).  Under the
synchronous daemon the system is deterministic (given the program-order
action choice), so "every initiated wave completes" is checked by
running every initiation configuration to cycle completion within the
Theorem 4 + Theorem 3 budget.  Liveness under weakly fair asynchronous
daemons is exercised statistically by the randomized experiments (E6).

**The evaluators.**  Every checker runs one loop over an evaluator:
``intern``, ``enabled_map``, ``successor_enabled_map``, ``transition``,
``advance`` and ``fill_stats``.  :class:`DirectEvaluator` answers them
by plain protocol evaluation (``memo=False``, and the reference the
memo is validated against).  Initiation configurations share most of
their explored cores, so the hot path is successor computation, and
:class:`ModelCheckMemo` removes the redundancy at three layers, all
exact (see docs/API.md and DESIGN.md §7):

1. an interned-configuration table — equal configurations become
   pointer-identical, so memo keys and visited-set lookups hash once and
   compare by identity;
2. a *local-view* memo — a guard/statement/``join_parent`` of processor
   ``p`` is a pure function of ``p``'s own state and its neighbors'
   states (``Context`` enforces the locally-shared-memory footprint), so
   enabled-action lists, next states and join parents are cached per
   ``(node, view)``;
3. a bounded LRU **transition memo** keyed by
   ``(configuration, selection signature)`` holding the already-computed
   ``(successor, dirty set, join parents)``, for the synchronous sweeps
   whose executions from different initiation configurations converge
   onto shared suffixes.  The snap-safety search runs without it: its
   visited set already expands every tagged state once, so no
   ``(configuration, selection)`` pair is ever computed twice.

``REPRO_MODELCHECK_MEMO=0`` selects the direct evaluator;
``REPRO_MODELCHECK_VALIDATE=1`` cross-checks every memoized result
against direct evaluation (mirroring ``REPRO_ENGINE_VALIDATE``).

The state space grows as the product of per-node domains; the functions
take explicit budgets, terminate the whole enumeration the moment a
budget or the counterexample limit is reached, and report exactly what
was covered (:attr:`ModelCheckResult.truncation`).
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Sequence

from repro import settings
from repro import telemetry as _telemetry
from repro.analysis import bounds
from repro.core.monitor import PifCycleMonitor
from repro.core.pif import SnapPif
from repro.core.state import Phase, PifConstants, PifState
from repro.errors import ScheduleError, VerificationError
from repro.runtime.daemons import ReplayDaemon
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Context
from repro.runtime.simulator import Simulator
from repro.runtime.state import Configuration, InternTable
from repro.runtime.trace import StepRecord

__all__ = [
    "WaveTag",
    "Counterexample",
    "ModelCheckResult",
    "ModelCheckStats",
    "ModelCheckMemo",
    "DirectEvaluator",
    "DEFAULT_MEMO_CAPACITY",
    "DEFAULT_SHARDS",
    "node_state_domain",
    "enumerate_initiation_configurations",
    "count_initiation_configurations",
    "merge_model_check_results",
    "apply_selection",
    "apply_selection_dirty",
    "check_snap_safety",
    "check_cycle_liveness_synchronous",
    "synchronous_selection",
    "run_synchronous",
    "replay_counterexample",
]

#: Default bound on cached transitions (and cached successor enabled
#: maps) in :class:`ModelCheckMemo` — keeps memory predictable on
#: ``max_states``-scale runs; evictions are counted in the stats.
DEFAULT_MEMO_CAPACITY = 262_144

#: Safety valve on the total number of local-view memo entries.  View
#: domains are products of tiny per-node state domains, so this is
#: effectively never hit on the graph sizes the exhaustive checker can
#: cover; if it is, the view tables are cleared wholesale.
DEFAULT_VIEW_CAPACITY = 1_048_576

#: Default shard count for the parallel sweeps.  Shards partition the
#: *enumeration*, not the workers: the partition depends only on the
#: workload, so the same sweep run with 1, 2 or 4 workers produces
#: bit-identical shard results and therefore bit-identical merged
#: results (see DESIGN.md §9).
DEFAULT_SHARDS = 8

#: Every sweep stops once it holds this many counterexamples (snap
#: safety under ``stop_at_first`` stops at the first).
_COUNTEREXAMPLE_LIMIT = 5


# ----------------------------------------------------------------------
# State enumeration
# ----------------------------------------------------------------------
def node_state_domain(
    network: Network,
    k: PifConstants,
    node: int,
    *,
    phases: Sequence[Phase] = (Phase.B, Phase.F, Phase.C),
) -> list[PifState]:
    """All states of ``node`` over the full variable domains."""
    counts = range(1, k.n_prime + 1)
    foks = (False, True)
    states = []
    if node == k.root:
        for pif, count, fok in itertools.product(phases, counts, foks):
            states.append(
                PifState(pif=pif, par=None, level=0, count=count, fok=fok)
            )
        return states
    pars = network.neighbors(node)
    levels = range(1, k.l_max + 1)
    for pif, par, level, count, fok in itertools.product(
        phases, pars, levels, counts, foks
    ):
        states.append(
            PifState(pif=pif, par=par, level=level, count=count, fok=fok)
        )
    return states


def enumerate_initiation_configurations(
    network: Network, k: PifConstants
) -> Iterator[Configuration]:
    """All configurations in which the root's ``Broadcast`` guard holds.

    The root and each of its neighbors are in phase ``C`` (with all
    combinations of their remaining variables); every other processor
    ranges over its full state domain.
    """
    root_neighbors = set(network.neighbors(k.root))
    domains: list[list[PifState]] = []
    for p in network.nodes:
        if p == k.root or p in root_neighbors:
            domains.append(node_state_domain(network, k, p, phases=(Phase.C,)))
        else:
            domains.append(node_state_domain(network, k, p))
    for states in itertools.product(*domains):
        yield Configuration(states)


def count_initiation_configurations(network: Network, k: PifConstants) -> int:
    """``len(list(enumerate_initiation_configurations(...)))`` in O(n).

    The enumeration is a cartesian product of per-node domains, so its
    size is the product of the domain sizes — computable without
    materializing a single configuration.  The parallel sweeps use this
    to partition the enumeration index space into contiguous shards.
    """
    root_neighbors = set(network.neighbors(k.root))
    total = 1
    for p in network.nodes:
        if p == k.root or p in root_neighbors:
            total *= len(node_state_domain(network, k, p, phases=(Phase.C,)))
        else:
            total *= len(node_state_domain(network, k, p))
    return total


# ----------------------------------------------------------------------
# Transition machinery
# ----------------------------------------------------------------------
def apply_selection(
    protocol: SnapPif,
    network: Network,
    configuration: Configuration,
    selection: dict[int, Action],
    *,
    cache: dict | None = None,
) -> Configuration:
    """Execute one computation step: all selected actions against ``configuration``.

    ``cache`` is an optional per-``configuration`` evaluation cache
    (macro memo table) shared across the many selections the exhaustive
    daemon executes against the same configuration.
    """
    after, _dirty = apply_selection_dirty(
        protocol, network, configuration, selection, cache=cache
    )
    return after


def apply_selection_dirty(
    protocol: SnapPif,
    network: Network,
    configuration: Configuration,
    selection: dict[int, Action],
    *,
    cache: dict | None = None,
) -> tuple[Configuration, set[int]]:
    """Like :func:`apply_selection`, also returning the set of nodes whose
    state actually changed (no-op writes excluded) — the dirty set for
    :meth:`~repro.runtime.protocol.Protocol.enabled_map_incremental`.

    Delegates to :meth:`~repro.runtime.protocol.Protocol.execute_selection`,
    whose ``next_state`` hook is how :class:`ModelCheckMemo` substitutes
    local-view lookups for direct statement execution.
    """
    return protocol.execute_selection(
        configuration, network, selection, cache=cache
    )


@dataclass(frozen=True, slots=True)
class WaveTag:
    """Monitor state carried alongside a configuration during exploration.

    ``members`` is the set of processors that received ``m`` (the root's
    wave tree, provenance-tracked); ``acked`` the members whose F-action
    has fired; ``feedback_done`` whether the root has fed back.

    The hash is cached like :class:`~repro.core.state.PifState`'s: every
    visited-set and frontier membership test hashes the tag.
    """

    members: frozenset[int]
    acked: frozenset[int]
    feedback_done: bool
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.members, self.acked, self.feedback_done))
            object.__setattr__(self, "_hash", h)
        return h

    def advance(
        self,
        protocol: SnapPif,
        network: Network,
        before: Configuration,
        selection: dict[int, Action],
        *,
        joins: Mapping[int, int | None] | None = None,
        step: tuple[tuple[int, str], ...] | None = None,
    ) -> tuple["WaveTag | None", str | None]:
        """Update the tag across one step.

        Returns ``(new_tag, violation)``.  ``new_tag`` is ``None`` when
        the wave is over (root's C-action after feedback).  ``violation``
        is a message when a snap condition failed in this step.

        ``joins`` optionally supplies the precomputed join parent for
        every non-root B-action in ``selection`` (the only
        configuration-dependent input of the advance, memoized by the
        transition memo); without it the parent is derived from
        ``before`` directly.  ``step`` optionally supplies ``selection``
        as the already-sorted ``((node, action name), ...)`` signature
        so the advance need not re-sort it.

        Every move of a step reads the pre-step configuration, so every
        check here reads the pre-step tag: a join or acknowledgment made
        in the same step as the root's F-action does not count for it,
        whatever the node numbering.
        """
        root = protocol.root
        n = network.n
        members = set(self.members)
        acked = set(self.acked)
        feedback_done = self.feedback_done

        if step is None:
            step = tuple(
                sorted((p, a.name) for p, a in selection.items())
            )
        for node, name in step:
            if node == root:
                if name == "F-action":
                    if len(self.members) != n:
                        return self, (
                            f"[PIF1] root fed back with only "
                            f"{len(self.members)}/{n} processors reached"
                        )
                    if len(self.acked) != n - 1:
                        return self, (
                            f"[PIF2] root fed back with only "
                            f"{len(self.acked)}/{n - 1} acknowledgments"
                        )
                    feedback_done = True
                elif name == "C-action":
                    if feedback_done:
                        return None, None  # cycle complete
                    return self, "root cleaned without feeding back"
                elif name == "B-correction":
                    return self, "root aborted the initiated wave"
                elif name == "B-action":
                    return self, "root re-broadcast inside an open cycle"
            else:
                if name == "B-action":
                    if joins is None:
                        parent = protocol.join_parent(
                            Context(node, network, before)
                        )
                    else:
                        parent = joins[node]
                    if parent in self.members:
                        members.add(node)
                elif name == "F-action":
                    if node in self.members:
                        acked.add(node)
                elif name in ("B-correction", "F-correction"):
                    if node in self.members:
                        return self, (
                            f"wave member {node} demoted by {name}"
                        )
        return (
            WaveTag(frozenset(members), frozenset(acked), feedback_done),
            None,
        )


@dataclass(frozen=True, slots=True)
class Counterexample:
    """A violating execution: initial configuration plus schedule."""

    initial: Configuration
    schedule: tuple[tuple[tuple[int, str], ...], ...]
    message: str

    def pretty(self) -> str:
        lines = [f"violation: {self.message}", "schedule:"]
        for i, step in enumerate(self.schedule):
            moves = ", ".join(f"{p}:{a}" for p, a in step)
            lines.append(f"  step {i}: {moves}")
        return "\n".join(lines)


@dataclass
class ModelCheckStats:
    """Instrumentation of one exhaustive check (attached to the result).

    ``memo_*`` counters cover the transition memo (all zero for a check
    that runs without one, such as snap safety), ``view_*`` the
    local-view guard/statement/join memo; ``intern_hits`` counts
    configuration-intern lookups resolved to an existing object.
    """

    memo_enabled: bool = False
    memo_hits: int = 0
    memo_misses: int = 0
    memo_evictions: int = 0
    memo_entries: int = 0
    memo_capacity: int = 0
    view_hits: int = 0
    view_misses: int = 0
    view_evictions: int = 0
    interned_configurations: int = 0
    intern_hits: int = 0
    #: Largest per-first-selection schedule-reconstruction table (one
    #: compact ``(parent id, step)`` entry per discovered state).
    peak_parent_entries: int = 0
    elapsed_seconds: float = 0.0
    states_per_second: float = 0.0

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    @property
    def view_hit_rate(self) -> float:
        total = self.view_hits + self.view_misses
        return self.view_hits / total if total else 0.0

    @property
    def interning_ratio(self) -> float:
        """Fraction of intern lookups that deduplicated to an existing object."""
        total = self.intern_hits + self.interned_configurations
        return self.intern_hits / total if total else 0.0


@dataclass
class ModelCheckResult:
    """Outcome of an exhaustive check."""

    property_name: str
    configurations_checked: int = 0
    states_explored: int = 0
    transitions_explored: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    #: True when every enumerated configuration was fully explored
    #: within the budgets.
    complete: bool = True
    #: When a budget stopped the enumeration, where and why (``None``
    #: for a fully completed check).
    truncation: str | None = None
    #: Memo/interning/throughput instrumentation for the checkers that
    #: collect it (``None`` otherwise).
    stats: ModelCheckStats | None = None
    #: ``(counterexamples, configurations_checked, states_explored,
    #: transitions_explored)`` right after each configuration that
    #: yielded counterexamples: where a sharded sweep's merge cuts a
    #: shard so that its counters end where the serial sweep stops.
    found_at: list[tuple[int, int, int, int]] = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def raise_on_failure(self) -> None:
        """Raise :class:`~repro.errors.VerificationError` on any counterexample."""
        if self.counterexamples:
            raise VerificationError(
                f"{self.property_name}: "
                f"{len(self.counterexamples)} counterexample(s); first:\n"
                f"{self.counterexamples[0].pretty()}"
            )


# ----------------------------------------------------------------------
# The memo engine
# ----------------------------------------------------------------------
_MISS = object()


class _LruCache:
    """Bounded mapping with LRU eviction and hit/miss/eviction counters.

    The counters are :class:`repro.telemetry.Counter` objects (slotted,
    bumped via ``.value += 1`` — the same cost as a plain int
    attribute), so the memo's instrumentation *is* its telemetry:
    :meth:`ModelCheckMemo.fill_stats` copies ``.value`` onto the public
    :class:`ModelCheckStats` ints, and :func:`_publish_check` folds the
    same numbers into the active telemetry registry when enabled.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_data")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = _telemetry.Counter("modelcheck.memo.hits")
        self.misses = _telemetry.Counter("modelcheck.memo.misses")
        self.evictions = _telemetry.Counter("modelcheck.memo.evictions")
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        value = self._data.get(key, _MISS)
        if value is _MISS:
            self.misses.value += 1
            return None
        self._data.move_to_end(key)
        self.hits.value += 1
        return value

    def put(self, key, value) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
            data[key] = value
            return
        data[key] = value
        if len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions.value += 1


class ModelCheckMemo:
    """Global, bounded memoization shared across a whole exhaustive check.

    Everything cached here is a pure function of a configuration (or of
    a node's 1-hop view of one), so entries stay valid for the lifetime
    of the ``(protocol, network)`` pair regardless of the path that
    reached a configuration — the soundness argument is spelled out in
    DESIGN.md §7.  ``validate=True`` re-derives every answer (enabled
    maps, transitions with their join parents, wave-tag advances)
    through :class:`DirectEvaluator` and raises
    :class:`~repro.errors.VerificationError` on any divergence.

    ``capacity=None`` computes transitions without storing them, for
    sweeps that never repeat a ``(configuration, selection)`` pair (snap
    safety, normal closure).
    """

    def __init__(
        self,
        protocol: SnapPif,
        network: Network,
        *,
        capacity: int | None = DEFAULT_MEMO_CAPACITY,
        view_capacity: int = DEFAULT_VIEW_CAPACITY,
        validate: bool = False,
    ) -> None:
        self.protocol = protocol
        self.network = network
        self.validate = validate
        #: The reference every validated answer is compared with.
        self._direct = DirectEvaluator(protocol, network)
        self.interner = InternTable()
        #: ``(configuration, selection signature) -> (successor, dirty, joins)``
        self.transitions = None if capacity is None else _LruCache(capacity)
        self._nodes = tuple(network.nodes)
        self._neighbors = {p: network.neighbors(p) for p in self._nodes}
        self._root = protocol.root
        #: Per-node read footprint: the node itself plus its neighbors,
        #: as one index tuple so a view is a single C-level ``map``.
        self._view_idx = {
            p: (p, *network.neighbors(p)) for p in self._nodes
        }
        self._enabled_views: dict[int, dict] = {p: {} for p in self._nodes}
        #: ``node -> action name -> {view: next state}`` — nested so the
        #: hot lookup hashes a cached string instead of building a
        #: ``(name, view)`` tuple per call.
        self._next_views: dict[int, dict[str, dict]] = {
            p: {a.name: {} for a in protocol.node_actions(p, network)}
            for p in self._nodes
        }
        self._join_views: dict[int, dict] = {p: {} for p in self._nodes}
        #: ``(tag, step, join parents) -> (new tag, violation)`` — the
        #: wave-tag advance is a pure function of those three inputs
        #: once the join parents are pinned, and the cached result
        #: canonicalizes tag objects (one object per distinct tag value,
        #: so visited-set members hash once and compare by identity).
        self._advance_cache: dict = {}
        self.view_capacity = view_capacity
        # Telemetry-backed counters: hot paths bump ``.value`` directly
        # (one attribute store — see repro.telemetry), fill_stats reads
        # ``.value`` back onto the public ModelCheckStats ints.
        self.view_hits = _telemetry.Counter("modelcheck.view.hits")
        self.view_misses = _telemetry.Counter("modelcheck.view.misses")
        self.view_evictions = _telemetry.Counter("modelcheck.view.evictions")
        self._view_entries = 0

    def intern(self, configuration: Configuration) -> Configuration:
        """The canonical object equal to ``configuration``."""
        return self.interner.intern(configuration)

    # -- local views ----------------------------------------------------
    def _view(self, configuration: Configuration, node: int) -> tuple:
        """The 1-hop state tuple a guard/statement at ``node`` can read."""
        return tuple(
            map(configuration.states.__getitem__, self._view_idx[node])
        )

    def _note_view_entry(self) -> None:
        self._view_entries += 1
        if self._view_entries > self.view_capacity:
            for family in (self._enabled_views, self._join_views):
                for table in family.values():
                    table.clear()
            for per_action in self._next_views.values():
                for table in per_action.values():
                    table.clear()
            self._advance_cache.clear()
            self.view_evictions.value += self._view_entries
            self._view_entries = 0

    def enabled_actions(
        self, configuration: Configuration, node: int
    ) -> list[Action]:
        """Enabled actions of ``node``, memoized on its local view."""
        view = self._view(configuration, node)
        table = self._enabled_views[node]
        actions = table.get(view, _MISS)
        if actions is not _MISS:
            self.view_hits.value += 1
            return actions
        self.view_misses.value += 1
        actions = self.protocol.enabled_actions(
            configuration, self.network, node, cache={}
        )
        table[view] = actions
        self._note_view_entry()
        return actions

    def next_state(self, configuration: Configuration, node: int, action: Action):
        """Result of ``action``'s statement at ``node``, memoized on its view."""
        view = self._view(configuration, node)
        table = self._next_views[node][action.name]
        state = table.get(view, _MISS)
        if state is not _MISS:
            self.view_hits.value += 1
            return state
        self.view_misses.value += 1
        state = action.execute(Context(node, self.network, configuration, {}))
        table[view] = state
        self._note_view_entry()
        return state

    def join_parent(self, configuration: Configuration, node: int) -> int | None:
        """``protocol.join_parent`` memoized on the node's local view."""
        view = self._view(configuration, node)
        table = self._join_views[node]
        parent = table.get(view, _MISS)
        if parent is not _MISS:
            self.view_hits.value += 1
            return parent
        self.view_misses.value += 1
        parent = self.protocol.join_parent(
            Context(node, self.network, configuration)
        )
        table[view] = parent
        self._note_view_entry()
        return parent

    # -- enabled maps ---------------------------------------------------
    def enabled_map(self, configuration: Configuration) -> dict[int, list[Action]]:
        """Full enabled map via the view memo (ascending node order)."""
        enabled: dict[int, list[Action]] = {}
        for node in self._nodes:
            actions = self.enabled_actions(configuration, node)
            if actions:
                enabled[node] = actions
        if self.validate:
            self._check_enabled(configuration, enabled, "full enabled map")
        return enabled

    def successor_enabled_map(
        self,
        prev_enabled: dict[int, list[Action]],
        configuration: Configuration,
        dirty,
    ) -> dict[int, list[Action]]:
        """Enabled map of a successor: an incremental dirty-region update
        through the view memo (same region argument as
        :meth:`~repro.runtime.protocol.Protocol.enabled_map_incremental`,
        same ascending node order)."""
        affected = set(dirty)
        for p in tuple(affected):
            affected.update(self._neighbors[p])
        if affected:
            enabled: dict[int, list[Action]] = {}
            for node in self._nodes:
                if node in affected:
                    actions = self.enabled_actions(configuration, node)
                    if actions:
                        enabled[node] = actions
                else:
                    prev = prev_enabled.get(node)
                    if prev is not None:
                        enabled[node] = prev
        else:
            enabled = dict(prev_enabled)
        if self.validate:
            self._check_enabled(
                configuration, enabled, "incremental enabled map"
            )
        return enabled

    # -- transitions ----------------------------------------------------
    def transition(
        self,
        configuration: Configuration,
        selection: dict[int, Action],
        signature: tuple,
    ) -> tuple[Configuration, frozenset[int], dict[int, int | None]]:
        """Memoized ``(successor, dirty set, join parents)`` of one step.

        ``signature`` is the canonical ``((node, action name), ...)``
        tuple of ``selection`` — the same object the checker uses as the
        schedule step.  The join parents (the only configuration-
        dependent input of :meth:`WaveTag.advance`) are stored for every
        non-root B-action so a hit needs no guard, statement or macro
        evaluation at all.  Without a transition memo every call computes
        the entry.
        """
        transitions = self.transitions
        key = (configuration, signature)
        entry = None if transitions is None else transitions.get(key)
        if entry is None:
            # Inlined single pass over the selection (the semantics of
            # Protocol.execute_selection with the memoized next_state
            # hook): next states and join parents come from the view
            # memo; no-op writes stay out of the dirty set.
            states = configuration.states
            root = self._root
            updates: dict[int, PifState] = {}
            joins: dict[int, int | None] = {}
            for p, action in selection.items():
                state = self.next_state(configuration, p, action)
                if state != states[p]:
                    updates[p] = state
                if p != root and action.name == "B-action":
                    joins[p] = self.join_parent(configuration, p)
            after = self.interner.intern(configuration.replace(updates))
            entry = (after, updates, joins, tuple(joins.items()))
            if transitions is not None:
                transitions.put(key, entry)
        if self.validate:
            self._check_transition(configuration, selection, entry)
        return entry

    def advance(
        self,
        tag: WaveTag,
        configuration: Configuration,
        selection: dict[int, Action],
        step: tuple,
        joins: dict[int, int | None],
        joins_key: tuple,
    ) -> tuple["WaveTag | None", str | None]:
        """Memoized :meth:`WaveTag.advance`.

        With the join parents pinned by the transition memo, the advance
        is a pure function of ``(tag, step, joins)`` — the configuration
        is never consulted.  Beyond skipping recomputation, the cache
        canonicalizes the resulting tag objects, so visited-set members
        built from them hash once and usually compare by identity.
        """
        key = (tag, step, joins_key)
        cached = self._advance_cache.get(key, _MISS)
        if cached is _MISS:
            self.view_misses.value += 1
            cached = tag.advance(
                self.protocol,
                self.network,
                configuration,
                selection,
                joins=joins,
                step=step,
            )
            self._advance_cache[key] = cached
            self._note_view_entry()
        else:
            self.view_hits.value += 1
        if self.validate:
            direct = self._direct.advance(
                tag, configuration, selection, step, None, None
            )
            if cached != direct:
                raise VerificationError(
                    f"memoized wave-tag advance diverged from the direct "
                    f"path for step {step}: memo={cached} direct={direct}"
                )
        return cached

    # -- validation + stats ---------------------------------------------
    def _check_enabled(
        self, configuration: Configuration, enabled: dict, where: str
    ) -> None:
        full = self._direct.enabled_map(configuration)
        if full != enabled or list(full) != list(enabled):
            raise VerificationError(
                f"memoized {where} diverged from the direct path: "
                f"memo={ {p: [a.name for a in v] for p, v in enabled.items()} } "
                f"direct={ {p: [a.name for a in v] for p, v in full.items()} }"
            )

    def _check_transition(
        self, configuration: Configuration, selection: dict, entry: tuple
    ) -> None:
        after, dirty, joins, _joins_key = entry
        direct_after, direct_dirty, _, _ = self._direct.transition(
            configuration, selection, None
        )
        direct_joins = {
            p: self.protocol.join_parent(
                Context(p, self.network, configuration)
            )
            for p, action in selection.items()
            if p != self._root and action.name == "B-action"
        }
        if (
            after != direct_after
            or set(dirty) != direct_dirty
            or joins != direct_joins
        ):
            raise VerificationError(
                f"memoized transition diverged from the direct path for "
                f"selection "
                f"{sorted((p, a.name) for p, a in selection.items())}"
            )

    def fill_stats(self, stats: ModelCheckStats) -> None:
        """Copy the engine's counters onto a stats block."""
        transitions = self.transitions
        if transitions is not None:
            stats.memo_hits = transitions.hits.value
            stats.memo_misses = transitions.misses.value
            stats.memo_evictions = transitions.evictions.value
            stats.memo_entries = len(transitions)
            stats.memo_capacity = transitions.capacity
        stats.view_hits = self.view_hits.value
        stats.view_misses = self.view_misses.value
        stats.view_evictions = self.view_evictions.value
        stats.interned_configurations = len(self.interner)
        stats.intern_hits = self.interner.hits


class DirectEvaluator:
    """:class:`ModelCheckMemo`'s interface over plain protocol evaluation.

    What ``memo=False`` runs, and the reference the memo is checked
    against: enabled maps come from
    :meth:`~repro.runtime.protocol.Protocol.enabled_map` and
    :meth:`~repro.runtime.protocol.Protocol.enabled_map_incremental`,
    successors from :func:`apply_selection_dirty`, and
    :meth:`WaveTag.advance` takes join parents from the configuration.
    Nothing is interned, stored or counted.
    """

    def __init__(self, protocol: SnapPif, network: Network) -> None:
        self.protocol = protocol
        self.network = network

    def intern(self, configuration: Configuration) -> Configuration:
        return configuration

    def enabled_map(self, configuration: Configuration) -> dict[int, list[Action]]:
        return self.protocol.enabled_map(configuration, self.network, cache={})

    def successor_enabled_map(
        self,
        prev_enabled: dict[int, list[Action]],
        configuration: Configuration,
        dirty,
    ) -> dict[int, list[Action]]:
        return self.protocol.enabled_map_incremental(
            prev_enabled, configuration, self.network, dirty, cache={}
        )

    def transition(
        self,
        configuration: Configuration,
        selection: dict[int, Action],
        signature: tuple,
    ) -> tuple[Configuration, set[int], None, None]:
        after, dirty = apply_selection_dirty(
            self.protocol, self.network, configuration, selection, cache={}
        )
        return after, dirty, None, None

    def advance(
        self,
        tag: WaveTag,
        configuration: Configuration,
        selection: dict[int, Action],
        step: tuple,
        joins: None,
        joins_key: None,
    ) -> tuple["WaveTag | None", str | None]:
        return tag.advance(
            self.protocol, self.network, configuration, selection, step=step
        )

    def fill_stats(self, stats: ModelCheckStats) -> None:
        """Nothing is cached, so every counter stays zero."""


def _publish_check(result: ModelCheckResult) -> None:
    """Fold a finished check's counters into the telemetry registry.

    Called from the serial exploration paths only: the sharded sweeps
    run their shards through the serial path inside worker processes
    whose registries the executor captures and merges in shard order, so
    publishing the parent's merged result as well would double-count.
    The published keys are deterministic functions of the workload
    (wall time lands in a ``*.seconds`` histogram, which the
    deterministic snapshot view excludes).
    """
    if not _telemetry.enabled:
        return
    reg = _telemetry.registry
    base = f"check.{result.property_name}"
    reg.inc(f"{base}.runs")
    reg.inc(f"{base}.configurations_checked", result.configurations_checked)
    reg.inc(f"{base}.states_explored", result.states_explored)
    reg.inc(f"{base}.transitions_explored", result.transitions_explored)
    reg.inc(f"{base}.counterexamples", len(result.counterexamples))
    stats = result.stats
    if stats is None:
        return
    reg.inc("modelcheck.memo.hits", stats.memo_hits)
    reg.inc("modelcheck.memo.misses", stats.memo_misses)
    reg.inc("modelcheck.memo.evictions", stats.memo_evictions)
    reg.inc("modelcheck.view.hits", stats.view_hits)
    reg.inc("modelcheck.view.misses", stats.view_misses)
    reg.inc("modelcheck.view.evictions", stats.view_evictions)
    reg.inc("modelcheck.interned_configurations",
            stats.interned_configurations)
    reg.inc("modelcheck.intern_hits", stats.intern_hits)
    reg.observe(
        f"{base}.elapsed{_telemetry.TIMING_SUFFIX}",
        stats.elapsed_seconds,
        _telemetry.TIME_BOUNDS,
    )


def _limit_note(limit: int) -> str:
    return f"stopped after {limit} counterexample{'s' if limit > 1 else ''}"


class _Sweep:
    """The skeleton every exhaustive checker runs in.

    Resolves the ``memo`` / ``validate_memo`` knobs and builds the
    evaluator (:class:`ModelCheckMemo`, or :class:`DirectEvaluator`
    with the memo off); admits configurations under the
    ``max_configurations`` and ``max_states`` budgets; stops at
    ``limit`` counterexamples; and times the run, fills its stats and
    publishes it.  Every stop before the enumeration's end leaves
    ``complete=False`` and says why in ``truncation``.
    """

    def __init__(
        self,
        property_name: str,
        network: Network,
        root: int,
        *,
        protocol: SnapPif | None,
        protocol_factory: "Callable[[Network, int], SnapPif] | None" = None,
        memo: bool | None,
        validate_memo: bool | None,
        capacity: int | None,
        max_configurations: int | None,
        max_states: int | None = None,
        limit: int | None = _COUNTEREXAMPLE_LIMIT,
    ) -> None:
        if protocol is None:
            protocol = (protocol_factory or SnapPif.for_network)(network, root)
        self.protocol = protocol
        self.k = protocol.constants
        memo = settings.resolve("memo", memo)
        validate_memo = settings.resolve("validate_memo", validate_memo)
        self.evaluator = (
            ModelCheckMemo(
                protocol, network, capacity=capacity, validate=validate_memo
            )
            if memo
            else DirectEvaluator(protocol, network)
        )
        self.result = ModelCheckResult(
            property_name, stats=ModelCheckStats(memo_enabled=memo)
        )
        self.max_configurations = max_configurations
        self.max_states = max_states
        self.limit = limit

    def _truncate(self, why: str) -> None:
        self.result.complete = False
        self.result.truncation = why

    def configurations(
        self, configurations: Iterator[Configuration]
    ) -> Iterator[Configuration]:
        """Count and intern each configuration until a budget runs out."""
        result = self.result
        cap = self.max_configurations
        for config in configurations:
            if cap is not None and result.configurations_checked >= cap:
                self._truncate(f"max_configurations={cap} reached")
                return
            if self.out_of_states():
                return
            result.configurations_checked += 1
            yield self.evaluator.intern(config)

    def out_of_states(self) -> bool:
        """Whole-enumeration budget guard: once ``max_states`` is spent,
        no further work happens anywhere."""
        result = self.result
        if self.max_states is None or result.states_explored < self.max_states:
            return False
        if result.truncation is None:
            self._truncate(
                f"max_states={self.max_states} exhausted after "
                f"{result.configurations_checked} initiation "
                f"configuration(s); enumeration terminated"
            )
        return True

    def found(self, *counterexamples: Counterexample) -> bool:
        """Record counterexamples; True when the sweep must stop."""
        result = self.result
        result.counterexamples.extend(counterexamples)
        result.found_at.append(
            (
                len(result.counterexamples),
                result.configurations_checked,
                result.states_explored,
                result.transitions_explored,
            )
        )
        if self.limit is None or len(result.counterexamples) < self.limit:
            return False
        self._truncate(_limit_note(self.limit))
        return True

    def run(self, explore: Callable[[], None]) -> ModelCheckResult:
        result = self.result
        stats = result.stats
        start = time.perf_counter()
        try:
            explore()
        finally:
            stats.elapsed_seconds = time.perf_counter() - start
            # The closure sweep explores transitions only.
            items = result.states_explored or result.transitions_explored
            stats.states_per_second = (
                items / stats.elapsed_seconds
                if stats.elapsed_seconds > 0
                else 0.0
            )
            self.evaluator.fill_stats(stats)
            _publish_check(result)
        return result


def _stride_hits(
    configurations: Iterator[Configuration],
    config_slice: tuple[int, int] | None,
    stride: int = 1,
) -> Iterator[Configuration]:
    """Every ``stride``-th configuration by raw enumeration index, within
    the raw window ``config_slice``.

    ``enumerate`` before ``islice`` keeps the global raw index on every
    item, so a shard window picks exactly the serial sweep's stride hits.
    """
    indexed = enumerate(configurations)
    if config_slice is not None:
        indexed = itertools.islice(indexed, *config_slice)
    return (config for index, config in indexed if index % stride == 0)


# ----------------------------------------------------------------------
# Shard merging (parallel sweeps)
# ----------------------------------------------------------------------
def merge_model_check_results(
    results: Sequence[ModelCheckResult],
    *,
    property_name: str | None = None,
) -> ModelCheckResult:
    """Merge per-shard results in stable shard order.

    ``results`` must be ordered by shard (i.e. by enumeration range), so
    counterexamples concatenate in enumeration order and the merged
    result is a deterministic function of the shard results alone —
    independent of which worker computed which shard, and therefore of
    the worker count.  Counters sum; ``complete`` holds only when every
    shard completed; shard truncations are aggregated into one message.

    Timing fields (``elapsed_seconds`` summed across shards,
    ``states_per_second`` derived) are the only merged values that are
    not bit-deterministic.
    """
    if not results:
        raise ValueError("merge_model_check_results needs at least one shard")
    merged = ModelCheckResult(
        property_name=property_name or results[0].property_name
    )
    stats = ModelCheckStats()
    merged.stats = stats
    truncations: list[str] = []
    for index, shard in enumerate(results):
        merged.configurations_checked += shard.configurations_checked
        merged.states_explored += shard.states_explored
        merged.transitions_explored += shard.transitions_explored
        merged.counterexamples.extend(shard.counterexamples)
        if not shard.complete:
            merged.complete = False
            if shard.truncation:
                truncations.append(f"shard {index}: {shard.truncation}")
        s = shard.stats
        if s is None:
            continue
        stats.memo_enabled = stats.memo_enabled or s.memo_enabled
        stats.memo_hits += s.memo_hits
        stats.memo_misses += s.memo_misses
        stats.memo_evictions += s.memo_evictions
        stats.memo_entries += s.memo_entries
        stats.memo_capacity = max(stats.memo_capacity, s.memo_capacity)
        stats.view_hits += s.view_hits
        stats.view_misses += s.view_misses
        stats.view_evictions += s.view_evictions
        stats.interned_configurations += s.interned_configurations
        stats.intern_hits += s.intern_hits
        stats.peak_parent_entries = max(
            stats.peak_parent_entries, s.peak_parent_entries
        )
        stats.elapsed_seconds += s.elapsed_seconds
    if truncations:
        merged.truncation = "; ".join(truncations)
    stats.states_per_second = (
        merged.states_explored / stats.elapsed_seconds
        if stats.elapsed_seconds > 0
        else 0.0
    )
    return merged


# ----------------------------------------------------------------------
# Safety: exhaustive over all daemon choices
# ----------------------------------------------------------------------
def _selections(
    enabled: dict[int, list[Action]]
) -> Iterator[tuple[dict[int, Action], tuple[tuple[int, str], ...]]]:
    """Every daemon choice: non-empty node subsets × per-node action choices.

    Yields ``(selection, step)`` where ``step`` is the canonical sorted
    ``((node, action name), ...)`` signature of the selection — built
    here, where the subset is already in ascending order, so the hot
    loops never re-sort it.  The signature doubles as the transition
    memo key component and the schedule step.
    """
    nodes = sorted(enabled)
    for size in range(1, len(nodes) + 1):
        for subset in itertools.combinations(nodes, size):
            for combo in itertools.product(*(enabled[p] for p in subset)):
                yield (
                    dict(zip(subset, combo)),
                    tuple((p, a.name) for p, a in zip(subset, combo)),
                )


def _initiation_selections(
    enabled: dict[int, list[Action]], root: int, root_action: Action
) -> Iterator[
    tuple[
        dict[int, Action],
        tuple[tuple[int, str], ...],
        tuple[tuple[int, str], ...],
    ]
]:
    """The daemon choices containing the root's initiating action.

    Equivalent to filtering :func:`_selections` down to the selections
    in which the root executes ``root_action``, without materializing
    the discarded ones.  Yields ``(selection, step, rest_step)`` with
    ``step`` the full sorted signature and ``rest_step`` the signature
    without the root's entry (the portion a :meth:`WaveTag.advance` of
    the initiating step consumes).
    """
    others = sorted(p for p in enabled if p != root)
    root_pair = (root, root_action.name)
    for size in range(0, len(others) + 1):
        for subset in itertools.combinations(others, size):
            split = sum(1 for p in subset if p < root)
            for combo in itertools.product(*(enabled[p] for p in subset)):
                selection = dict(zip(subset, combo))
                selection[root] = root_action
                rest_step = tuple(
                    (p, a.name) for p, a in zip(subset, combo)
                )
                step = (
                    rest_step[:split] + (root_pair,) + rest_step[split:]
                )
                yield selection, step, rest_step


def check_snap_safety(
    network: Network,
    root: int = 0,
    *,
    protocol: SnapPif | None = None,
    protocol_factory: "Callable[[Network, int], SnapPif] | None" = None,
    max_configurations: int | None = None,
    max_states: int = 5_000_000,
    stop_at_first: bool = True,
    memo: bool | None = None,
    validate_memo: bool | None = None,
    replay_counterexamples: bool = True,
) -> ModelCheckResult:
    """Exhaustively verify PIF1/PIF2 safety for every initiated wave.

    Explores, for every initiation configuration (optionally capped),
    every execution of the initiated wave under all daemon choices.
    States are memoized globally across initial configurations — the
    tagged state ``(configuration, wave tag)`` fully determines the
    future, so each is explored once, and so each transition is
    computed once.  The memo engine (on by default, see
    :class:`ModelCheckMemo`) therefore stores no transitions: it caches
    guards, statements and join parents per local view, interns
    configurations and canonicalizes wave tags.  With ``memo=False`` the
    same loop runs on :class:`DirectEvaluator`; both visit identical
    states and transitions and return identical results.

    ``memo`` defaults to the ``REPRO_MODELCHECK_MEMO`` environment
    variable (``0`` disables); ``validate_memo`` to
    ``REPRO_MODELCHECK_VALIDATE`` (cross-check every memoized answer
    against the direct path).  When a budget (``max_states`` /
    ``max_configurations``) is exhausted, or ``stop_at_first`` stops
    at a counterexample, the *whole* enumeration stops immediately and
    :attr:`ModelCheckResult.truncation` records where.  With
    ``replay_counterexamples`` (the default) every counterexample is
    confirmed through :func:`replay_counterexample` before being
    reported.

    The sweep is always serial: one memo and one visited set are shared
    by every initiation configuration, which is what makes it fast
    (DESIGN.md §9).
    """
    sweep = _Sweep(
        "snap-safety (PIF1 ∧ PIF2)",
        network,
        root,
        protocol=protocol,
        protocol_factory=protocol_factory,
        memo=memo,
        validate_memo=validate_memo,
        capacity=None,
        max_configurations=max_configurations,
        max_states=max_states,
        limit=1 if stop_at_first else None,
    )
    protocol = sweep.protocol
    evaluator = sweep.evaluator
    result = sweep.result
    stats = result.stats
    transition = evaluator.transition
    advance = evaluator.advance
    successor_enabled_map = evaluator.successor_enabled_map
    out_of_states = sweep.out_of_states

    visited: set[tuple[Configuration, WaveTag]] = set()
    root_b_action = protocol.node_actions(root, network)[0]
    assert root_b_action.name == "B-action"

    def found(counterexample: Counterexample) -> bool:
        if replay_counterexamples:
            replay_counterexample(network, counterexample, protocol=protocol)
        return sweep.found(counterexample)

    def explore() -> None:
        # The tag of every freshly initiated wave: only the root is a
        # member, nothing acknowledged, no feedback yet.
        tag0 = WaveTag(frozenset({root}), frozenset(), False)
        for config in sweep.configurations(
            enumerate_initiation_configurations(network, sweep.k)
        ):
            # The initiating step: the root's B-action fires, alone or
            # with any other enabled processors.  Successor enabled maps
            # are derived incrementally from the predecessor's map and
            # the step's dirty set — guard evaluation cost scales with
            # the 1-hop neighborhood of the changed nodes instead of
            # with the network.
            enabled = evaluator.enabled_map(config)
            assert root in enabled and root_b_action in enabled[root]

            for first, first_step, rest_step in _initiation_selections(
                enabled, root, root_b_action
            ):
                if out_of_states():
                    return
                # The root's own B-action in this step *is* the
                # initiation; only the other selected processors
                # (``rest_step``) are advanced against it.
                rest = {p: a for p, a in first.items() if p != root}
                after, dirty, joins, joins_key = transition(
                    config, first, first_step
                )
                if rest:
                    tag, violation = advance(
                        tag0, config, rest, rest_step, joins, joins_key
                    )
                else:
                    tag, violation = tag0, None
                if violation is not None:
                    if found(Counterexample(config, (first_step,), violation)):
                        return
                    continue
                assert tag is not None  # the wave cannot finish on step one

                start_state = (after, tag)
                if start_state in visited:
                    # The entire subtree behind this initiation step was
                    # already explored from another entry path — the
                    # shared visited set's cross-initiation dedup.
                    continue
                after_enabled = successor_enabled_map(enabled, after, dirty)

                # Schedule-reconstruction data, compact: states are
                # numbered in discovery order and each holds one
                # ``(parent id, step)`` pair; with interned
                # configurations the step tuples are the only per-state
                # payload.  Both tables are dropped as soon as this
                # first-selection's DFS finishes — the only moment a
                # schedule can still be requested from them.
                parent_steps: list[tuple[int, tuple]] = [(-1, first_step)]
                discovered: set[tuple[Configuration, WaveTag]] = {start_state}
                stack: list[
                    tuple[Configuration, WaveTag, dict[int, list[Action]], int]
                ] = [(after, tag, after_enabled, 0)]

                while stack:
                    if out_of_states():
                        return
                    current, current_tag, current_enabled, state_id = (
                        stack.pop()
                    )
                    state = (current, current_tag)
                    if state in visited:
                        continue
                    visited.add(state)
                    result.states_explored += 1
                    for selection, step in _selections(current_enabled):
                        result.transitions_explored += 1
                        nxt_config, nxt_dirty, joins, joins_key = transition(
                            current, selection, step
                        )
                        new_tag, violation = advance(
                            current_tag, current, selection, step,
                            joins, joins_key,
                        )
                        if violation is not None:
                            schedule = _reconstruct(
                                parent_steps, state_id
                            ) + (step,)
                            if found(Counterexample(config, schedule, violation)):
                                return
                            continue
                        if new_tag is None:
                            continue  # cycle completed cleanly on this path
                        nxt = (nxt_config, new_tag)
                        if nxt in visited or nxt in discovered:
                            continue
                        nxt_enabled = successor_enabled_map(
                            current_enabled, nxt_config, nxt_dirty
                        )
                        discovered.add(nxt)
                        nxt_id = len(parent_steps)
                        parent_steps.append((state_id, step))
                        stack.append(
                            (nxt_config, new_tag, nxt_enabled, nxt_id)
                        )
                if len(parent_steps) > stats.peak_parent_entries:
                    stats.peak_parent_entries = len(parent_steps)

    return sweep.run(explore)


def _check_sharded_sweep(
    check: Callable[..., ModelCheckResult],
    count: Callable[[Network, PifConstants], int],
    network: Network,
    root: int,
    *,
    property_name: str,
    protocol: SnapPif | None,
    protocol_factory,
    max_configurations: int | None,
    jobs: int,
    shards: int | None,
    task_timeout: float | None,
    options: dict,
) -> ModelCheckResult:
    """Shard a synchronous sweep over raw enumeration windows and merge.

    ``count(network, k)`` is the size of the sweep's raw enumeration;
    ``options`` are the keyword arguments every shard passes to
    ``check``, a ``stride`` among them (1 when absent).  The serial sweep
    checks the stride hits ``0, s, 2s, …`` and, under
    ``max_configurations=M``, stops after ``M`` of them, so it never
    looks past raw index ``(M-1)·s``.  The window
    ``min(total, (M-1)·s + 1)`` is split into contiguous ranges whose
    count depends only on the workload; each shard runs ``check``
    serially over its ``config_slice`` and the union of the shards'
    stride hits is exactly the serial set.  Shards merge in range order
    and stop where the serial sweep's counterexample stop does: the pool
    submits no shard once the finished prefix holds the limit, and the
    shard that reaches it is cut after the configuration that brings the
    total to the limit — its counterexamples and coverage counters both
    (``ModelCheckResult.found_at``), so a convergence configuration's
    normal/SBN pair is never split (DESIGN.md §9).
    """
    from repro.parallel.executor import (
        ParallelError,
        ParallelExecutor,
        chunk_ranges,
        raise_failures,
    )
    from repro.parallel.workers import check_shard

    if protocol is not None and protocol_factory is None:
        raise ParallelError(
            f"sharded {check.__name__} cannot ship a protocol instance "
            "across the pickle boundary; pass protocol_factory= (a "
            "module-level (network, root) -> protocol callable) instead"
        )
    stride = options.get("stride", 1)
    k = (protocol_factory or SnapPif.for_network)(network, root).constants
    total = count(network, k)
    window = total
    if max_configurations is not None:
        window = min(total, max(0, (max_configurations - 1) * stride + 1))
    tasks = [
        (
            (network.name, check.__name__, start, stop),
            {
                "check": check,
                "factory": protocol_factory,
                "network": network,
                "root": root,
                "config_slice": (start, stop),
                **options,
            },
        )
        for start, stop in chunk_ranges(window, shards or DEFAULT_SHARDS)
    ]
    limit = _COUNTEREXAMPLE_LIMIT

    def found(results: list) -> int:
        return sum(len(getattr(r, "counterexamples", ())) for r in results)

    outcomes = ParallelExecutor(
        check_shard, jobs=jobs, timeout=task_timeout
    ).map(tasks, stop=lambda done: found(done) >= limit)
    raise_failures(outcomes)
    if found(outcomes) >= limit:
        # The last shard holds the cut: keep it up to the configuration
        # that brings the total to the limit, counters included.
        before = found(outcomes[:-1])
        last = outcomes[-1]
        cut, configurations, states, transitions = next(
            mark for mark in last.found_at if before + mark[0] >= limit
        )
        outcomes[-1] = replace(
            last,
            counterexamples=last.counterexamples[:cut],
            configurations_checked=configurations,
            states_explored=states,
            transitions_explored=transitions,
        )
        truncation = _limit_note(limit)
    elif max_configurations is not None and total > max_configurations * stride:
        # Shards have no budgets of their own, so nothing else truncated.
        truncation = f"max_configurations={max_configurations} reached"
    else:
        truncation = None
    if outcomes:
        merged = merge_model_check_results(
            outcomes, property_name=property_name
        )
    else:
        merged = ModelCheckResult(property_name, stats=ModelCheckStats())
    if truncation is not None:
        merged.complete = False
        merged.truncation = truncation
    return merged


def _reconstruct(
    parent_steps: list[tuple[int, tuple]], state_id: int
) -> tuple:
    """Walk the compact id-based parent table back to the first step."""
    steps: list[tuple] = []
    cursor = state_id
    while cursor != -1:
        cursor, step = parent_steps[cursor]
        steps.append(step)
    return tuple(reversed(steps))


# ----------------------------------------------------------------------
# Counterexample replay
# ----------------------------------------------------------------------
def replay_counterexample(
    network: Network,
    counterexample: Counterexample,
    *,
    protocol: SnapPif | None = None,
    root: int = 0,
) -> str:
    """Re-execute a counterexample through the real simulator and confirm it.

    The schedule is replayed with a scripted daemon
    (:class:`~repro.runtime.daemons.ReplayDaemon`) from the
    counterexample's initial configuration — which proves every selected
    action is genuinely enabled when scheduled — and the resulting trace
    is walked with :meth:`WaveTag.advance` (direct evaluation, no memo)
    to confirm the recorded PIF1/PIF2 violation occurs on the final
    step.  This is the guard against a (hypothetically stale) memoized
    transition producing a schedule that does not actually execute.

    Returns the reproduced violation message; raises
    :class:`~repro.errors.VerificationError` when the schedule is not
    executable or reproduces a different outcome.
    """
    if protocol is None:
        protocol = SnapPif.for_network(network, root)
    ce = counterexample
    if not ce.schedule:
        raise VerificationError(
            "counterexample has an empty schedule; nothing to replay"
        )
    schedule = [dict(step) for step in ce.schedule]
    sim = Simulator(
        protocol,
        network,
        ReplayDaemon(schedule),
        configuration=ce.initial,
        trace_level="configurations",
    )
    try:
        for _ in schedule:
            if sim.step() is None:
                raise VerificationError(
                    "counterexample schedule reached a terminal "
                    "configuration before completing"
                )
    except ScheduleError as exc:
        raise VerificationError(
            f"counterexample schedule is not executable: {exc}"
        ) from exc

    actions = {
        p: {a.name: a for a in protocol.node_actions(p, network)}
        for p in network.nodes
    }
    configs = sim.trace.configurations()
    root_id = protocol.root
    tag: WaveTag | None = None
    violation: str | None = None
    for record in sim.trace:
        before = configs[record.index]
        selection = {
            p: actions[p][name] for p, name in record.selection.items()
        }
        if tag is None:
            if record.selection.get(root_id) != "B-action":
                raise VerificationError(
                    "counterexample schedule does not start with the "
                    "root's B-action"
                )
            tag = WaveTag(frozenset({root_id}), frozenset(), False)
            rest = {p: a for p, a in selection.items() if p != root_id}
            if rest:
                tag, violation = tag.advance(protocol, network, before, rest)
        else:
            tag, violation = tag.advance(protocol, network, before, selection)
        if violation is not None or tag is None:
            break
    if violation != ce.message:
        raise VerificationError(
            f"counterexample did not reproduce: recorded "
            f"{ce.message!r}, replay produced {violation!r}"
        )
    return violation


# ----------------------------------------------------------------------
# Liveness under the synchronous daemon
# ----------------------------------------------------------------------
def synchronous_selection(
    enabled: dict[int, list[Action]]
) -> tuple[dict[int, Action], tuple[tuple[int, str], ...]]:
    """The synchronous daemon's deterministic choice on an enabled map.

    Every enabled processor fires its first enabled action (program
    order — exactly :class:`~repro.runtime.daemons.SynchronousDaemon`
    with the default ``action_policy="first"``).  Returns ``(selection,
    signature)`` with the signature in ascending node order — the order
    :meth:`ModelCheckMemo.enabled_map` and
    :meth:`ModelCheckMemo.successor_enabled_map` guarantee — so it can
    key the transition memo directly.
    """
    selection = {p: actions[0] for p, actions in enabled.items()}
    signature = tuple((p, actions[0].name) for p, actions in enabled.items())
    return selection, signature


def run_synchronous(
    evaluator: "ModelCheckMemo | DirectEvaluator",
    configuration: Configuration,
    *,
    max_steps: int,
    monitor: PifCycleMonitor | None = None,
    stop: "Callable[[Configuration], bool] | None" = None,
) -> tuple[Configuration, int]:
    """Synchronous execution driven through an evaluator.

    Replicates :meth:`~repro.runtime.simulator.Simulator.run` under the
    synchronous daemon step for step: ``stop`` is evaluated on the
    current configuration *before* each step, a terminal configuration
    ends the run, and each step feeds the optional ``monitor`` a
    synthesized :class:`~repro.runtime.trace.StepRecord` with
    ``rounds_completed=1`` (one synchronous step is exactly one round —
    every pending processor is selected, so the round closes every
    step).  ``configuration`` is used as given, so pass it through
    ``evaluator.intern`` first.  Returns ``(final configuration, steps
    executed)``.
    """
    config = configuration
    if monitor is not None:
        monitor.on_start(config)
    enabled = evaluator.enabled_map(config)
    steps = 0
    while True:
        if stop is not None and stop(config):
            break
        if not enabled or steps >= max_steps:
            break
        selection, signature = synchronous_selection(enabled)
        after, dirty, _joins, _joins_key = evaluator.transition(
            config, selection, signature
        )
        if monitor is not None:
            record = StepRecord(
                index=steps,
                selection={p: a.name for p, a in selection.items()},
                rounds_completed=1,
                after=after,
            )
            monitor.on_step(config, record, after)
        enabled = evaluator.successor_enabled_map(enabled, after, dirty)
        config = after
        steps += 1
    return config, steps


_LIVENESS_PROPERTY = "cycle-liveness (synchronous)"


def check_cycle_liveness_synchronous(
    network: Network,
    root: int = 0,
    *,
    protocol: SnapPif | None = None,
    protocol_factory: "Callable[[Network, int], SnapPif] | None" = None,
    max_configurations: int | None = None,
    memo: bool | None = None,
    memo_capacity: int = DEFAULT_MEMO_CAPACITY,
    validate_memo: bool | None = None,
    jobs: int | None = None,
    shards: int | None = None,
    config_slice: tuple[int, int] | None = None,
    task_timeout: float | None = None,
) -> ModelCheckResult:
    """From every initiation configuration, the synchronous execution completes the cycle.

    Deterministic (program-order action choice), so one run per
    configuration suffices.  The budget is the Theorem 3 + Theorem 4
    worst case, in steps (one round per synchronous step), with slack.

    The executions run through :func:`run_synchronous` on the sweep's
    evaluator (same ``memo`` / ``validate_memo`` semantics as
    :func:`check_snap_safety`) while a real
    :class:`~repro.core.monitor.PifCycleMonitor` consumes the
    synthesized step records.  With the memo on, initiation
    configurations converge onto shared suffixes, so transitions and
    enabled maps are computed once across the whole enumeration;
    verdicts, counterexamples and counters are bit-identical either way.

    ``jobs`` of 2 or more (``None`` falls back to ``REPRO_JOBS``)
    shards the sweep across a process pool
    (:func:`_check_sharded_sweep`; ``shards`` and ``task_timeout``
    apply there only); otherwise the one serial sweep runs, sharing one
    memo across the whole enumeration.  ``config_slice`` is one shard's
    half-open window of enumeration indices.  Each per-configuration
    run is deterministic and the step counts do not depend on the
    evaluator, so the sharded sweep's merged coverage counters (not
    just its verdicts) match the serial sweep, early stops included.
    """
    n_jobs = settings.resolve("jobs", jobs) or 1
    if config_slice is None and n_jobs > 1:
        return _check_sharded_sweep(
            check_cycle_liveness_synchronous,
            count_initiation_configurations,
            network,
            root,
            property_name=_LIVENESS_PROPERTY,
            protocol=protocol,
            protocol_factory=protocol_factory,
            max_configurations=max_configurations,
            jobs=n_jobs,
            shards=shards,
            task_timeout=task_timeout,
            options={
                "memo": memo,
                "memo_capacity": memo_capacity,
                "validate_memo": validate_memo,
            },
        )
    sweep = _Sweep(
        _LIVENESS_PROPERTY,
        network,
        root,
        protocol=protocol,
        protocol_factory=protocol_factory,
        memo=memo,
        validate_memo=validate_memo,
        capacity=memo_capacity,
        max_configurations=max_configurations,
    )
    protocol = sweep.protocol
    k = sweep.k
    budget = bounds.glt_bound(k.l_max) + bounds.cycle_bound(k.l_max) + 8

    def explore() -> None:
        configs = _stride_hits(
            enumerate_initiation_configurations(network, k), config_slice
        )
        for config in sweep.configurations(configs):
            monitor = PifCycleMonitor(protocol, network)
            _final, steps = run_synchronous(
                sweep.evaluator,
                config,
                max_steps=budget,
                monitor=monitor,
                stop=lambda _c: len(monitor.completed_cycles) >= 1,
            )
            sweep.result.states_explored += steps
            cycles = monitor.completed_cycles
            if cycles and cycles[0].ok:
                continue
            message = (
                "; ".join(cycles[0].violations)
                if cycles
                else "initiated wave did not complete in budget"
            )
            if sweep.found(Counterexample(config, (), message)):
                return

    return sweep.run(explore)
