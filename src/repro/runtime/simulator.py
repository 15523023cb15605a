"""The computation engine: drives protocols under a daemon.

A :class:`Simulator` owns a protocol, a network, a daemon and the current
configuration, and produces computation steps ``γ_i ↦ γ_{i+1}``
following the paper's model: the daemon selects a non-empty subset of the
enabled processors; every selected processor atomically evaluates its
guard and executes the corresponding statement *against* ``γ_i``; all
writes land simultaneously in ``γ_{i+1}``.

The simulator also maintains the round count (see
:mod:`repro.runtime.rounds`), cumulative move counts, an optional trace,
and invokes *monitors* — observers such as the PIF-cycle specification
checker — after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, Mapping, Protocol as TypingProtocol, Sequence

from repro import settings
from repro import telemetry as _telemetry
from repro.errors import ScheduleError, SimulationLimitError, VerificationError
from repro.runtime.daemons import Daemon, EnabledView, SynchronousDaemon
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Protocol
from repro.runtime.rounds import RoundCounter
from repro.runtime.state import Configuration, NodeState
from repro.runtime.trace import StepRecord, Trace

__all__ = ["Monitor", "RunResult", "Simulator"]

#: Default safety valve for :meth:`Simulator.run`.
DEFAULT_MAX_STEPS = 1_000_000


class Monitor(TypingProtocol):
    """Observer interface invoked by the simulator.

    Monitors implement executable specifications (e.g. the PIF cycle
    conditions) or invariant assertions; they may raise
    :class:`~repro.errors.SpecificationViolation` to abort a run.
    """

    def on_start(self, configuration: Configuration) -> None:
        """Called once with the initial configuration."""

    def on_step(
        self,
        before: Configuration,
        record: StepRecord,
        after: Configuration,
    ) -> None:
        """Called after every computation step."""


@dataclass
class RunResult:
    """Outcome of a :meth:`Simulator.run` call."""

    final: Configuration
    steps: int
    rounds: int
    moves: int
    #: True if the run stopped because no action was enabled (terminal
    #: configuration — the computation is maximal and finite).
    terminated: bool
    #: True if the run stopped because the ``until`` predicate held.
    satisfied: bool
    trace: Trace | None = None
    action_counts: dict[str, int] = field(default_factory=dict)

    @property
    def stopped_by_limit(self) -> bool:
        """True if the run hit its step/round budget instead of finishing."""
        return not (self.terminated or self.satisfied)


class Simulator:
    """Drive a protocol on a network under a daemon.

    Every engine is a *kernel* behind one interface — ``load``,
    ``materialize``, ``enabled_map``, ``take_changes``,
    ``execute_selection``, ``apply_updates`` and ``rebuild`` (topology
    change) — and the simulator is the one step loop around it: daemon
    selection, round accounting, counters, telemetry, trace and
    monitors.  :meth:`_make_kernel` is the one place an engine name
    becomes a kernel.

    The simulator keeps one live :class:`EnabledView`, read in full from
    ``enabled_map`` only after a load or rebuild and otherwise patched
    from the kernel's ``take_changes`` report; the round counter is fed
    the same report.  A step therefore costs O(|selection| + |dirty ∪
    N(dirty)|) outside the kernel, plus one refill of the round's
    pending set per round.

    Parameters
    ----------
    protocol, network:
        The distributed program and the topology it runs on.
    daemon:
        Scheduler; defaults to :class:`SynchronousDaemon`.
    configuration:
        Starting configuration; defaults to the protocol's clean initial
        configuration.  It must hold one state per processor.
    seed:
        Seed for the daemon's RNG — runs are fully reproducible.
    trace_level:
        ``"none"`` (default), ``"selections"`` or ``"configurations"``.
    monitors:
        Observers receiving every step (see :class:`Monitor`).
    engine:
        ``"incremental"`` (default) re-evaluates guards only on the
        1-hop neighborhood of the nodes a step actually rewrote;
        ``"full"`` re-evaluates every guard at every node after every
        step (the reference, kept for benchmarking and
        cross-validation) — both are the object kernels of
        :mod:`repro.columnar.bridge`; ``"columnar"`` stores the
        configuration as flat per-variable arrays and runs compiled
        mask kernels (see :mod:`repro.columnar`), falling back to the
        incremental object kernel for protocols without a compiled
        kernel.  The ``REPRO_ENGINE`` environment variable overrides
        the default when the parameter is not given.

        Under the columnar engine object configurations are
        materialized lazily: :attr:`configuration` always works, but
        :class:`~repro.runtime.trace.StepRecord.after` is ``None``
        unless something needs the object view (monitors attached,
        ``trace_level="configurations"``, or lockstep validation).
    validate_engine:
        When true, every kernel update is checked in lockstep against a
        from-scratch recompute on the object path — for compiled
        columnar kernels both the enabled map and the successor
        configuration are compared — and a mismatch raises
        :class:`~repro.errors.VerificationError`.  Defaults to the
        ``REPRO_ENGINE_VALIDATE`` environment variable (a boolean, see
        :mod:`repro.settings`).
    """

    def __init__(
        self,
        protocol: Protocol,
        network: Network,
        daemon: Daemon | None = None,
        *,
        configuration: Configuration | None = None,
        seed: int = 0,
        trace_level: str = "none",
        monitors: Iterable[Monitor] = (),
        engine: str | None = None,
        validate_engine: bool | None = None,
    ) -> None:
        self.engine = settings.resolve("engine", engine)
        self.validate_engine = settings.resolve(
            "validate_engine", validate_engine
        )
        self.protocol = protocol
        self.network = network
        self.daemon = daemon if daemon is not None else SynchronousDaemon()
        self.rng = Random(seed)
        config = (
            configuration
            if configuration is not None
            else protocol.initial_configuration(network)
        )
        self._check_size(config)
        self._steps = 0
        self._moves = 0
        self._action_counts: dict[str, int] = {}
        self._monitors = list(monitors)
        #: Crashed processors: excluded from daemon selection and round
        #: accounting, but their memory stays readable by neighbors (the
        #: locally-shared-memory analogue of a fail-stop crash).
        self._crashed: set[int] = set()
        #: Guard-suppressed processors: the shared-memory analogue of
        #: message loss — the processor's guards "fire into the void"
        #: (it cannot act on what it reads) while its memory stays
        #: readable.  Mechanically identical to a crash for selection
        #: and round accounting, but semantically a link fault, so it
        #: is tracked and reported separately.
        self._suppressed: set[int] = set()
        self.trace = Trace(config, level=trace_level)

        self.daemon.reset()
        self._kernel = self._make_kernel(config)
        self._enabled = EnabledView(self._kernel.enabled_map())
        #: The live view minus crashed/suppressed processors, kept only
        #: while some processor is excluded.
        self._selectable_view: EnabledView | None = None
        #: Processors whose enabled entry changed since round accounting
        #: last ran.
        self._changed: set[int] = set()
        self._rounds = RoundCounter(self._enabled)
        for monitor in self._monitors:
            monitor.on_start(config)

    def _make_kernel(self, configuration: Configuration):
        """The kernel that owns the state and the enabled map."""
        if self.engine == "columnar":
            from repro.columnar.engine import ColumnarRuntime

            return ColumnarRuntime(self.protocol, self.network, configuration)
        from repro.columnar import bridge

        kind = (
            bridge.ObjectBridgeKernel
            if self.engine == "incremental"
            else bridge.FullRecomputeKernel
        )
        kernel = kind(self.protocol, self.network)
        kernel.load(configuration)
        return kernel

    def _check_size(self, configuration: Configuration) -> None:
        if len(configuration) != self.network.n:
            raise ScheduleError(
                f"configuration has {len(configuration)} states for a "
                f"{self.network.n}-processor network"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def configuration(self) -> Configuration:
        """The current configuration ``γ``.

        Under the columnar engine this materializes an object view of
        the column block — cached until the next write, so repeated
        reads (and a fully no-op step) return the same object.
        """
        return self._kernel.materialize()

    @property
    def steps(self) -> int:
        """Computation steps executed so far."""
        return self._steps

    @property
    def rounds(self) -> int:
        """Rounds completed so far."""
        return self._rounds.completed_rounds

    @property
    def moves(self) -> int:
        """Total individual actions executed so far."""
        return self._moves

    @property
    def action_counts(self) -> dict[str, int]:
        """Histogram of executed action names."""
        return dict(self._action_counts)

    def enabled(self) -> dict[int, list[Action]]:
        """The enabled map of the current configuration."""
        return {p: list(actions) for p, actions in self._enabled.items()}

    def enabled_nodes(self) -> frozenset[int]:
        """Processors with at least one enabled action."""
        return frozenset(self._enabled)

    @property
    def crashed(self) -> frozenset[int]:
        """Processors currently crashed (see :meth:`crash`)."""
        return frozenset(self._crashed)

    @property
    def suppressed(self) -> frozenset[int]:
        """Processors currently guard-suppressed (see :meth:`suppress`)."""
        return frozenset(self._suppressed)

    def is_terminal(self) -> bool:
        """True if no action is enabled (the computation is maximal)."""
        return not self._enabled

    def is_stalled(self) -> bool:
        """True if actions are enabled but every enabled processor is crashed.

        A stalled simulator cannot step until some processor recovers —
        campaign runners fast-forward to the next recovery event.
        """
        return bool(self._enabled) and not self._selectable()

    def _selectable(self) -> EnabledView:
        """The enabled map minus crashed/suppressed processors."""
        view = self._selectable_view
        return self._enabled if view is None else view

    def add_monitor(self, monitor: Monitor) -> None:
        """Attach a monitor; it sees the current configuration as start."""
        monitor.on_start(self.configuration)
        self._monitors.append(monitor)

    # ------------------------------------------------------------------
    # Fault-event hooks (chaos campaigns)
    # ------------------------------------------------------------------
    def reset_configuration(self, configuration: Configuration) -> None:
        """Replace the current configuration in place — a transient fault.

        Models faults striking *during* execution (arbitrary memory
        corruption at an arbitrary time), the scenario self- and
        snap-stabilization are about.  Counters (steps, rounds, moves)
        keep accumulating; the round in progress restarts from the new
        configuration's enabled set (the fault interrupts it), and every
        monitor is re-started so specifications are judged from the
        post-fault state.
        """
        self._check_size(configuration)
        # A fault can rewrite any subset of the memory, so the dirty-set
        # argument does not apply: the kernel reloads from scratch.
        self._kernel.load(configuration)
        self._reload_all(set(self.network.nodes))
        self._restart("configuration replaced")

    def perturb_configuration(self, updates: Mapping[int, NodeState]) -> set[int]:
        """Overwrite a *subset* of processor memories — a targeted fault.

        The targeted counterpart of :meth:`reset_configuration`: only
        the touched nodes form the dirty set, so the enabled map is
        repaired on ``U ∪ N(U)`` instead of recomputed from scratch.
        Like any transient fault it restarts the round in progress and
        every monitor.  Returns the set of nodes whose state actually
        changed (no-op writes are dropped).
        """
        for p in updates:
            if p not in self.network.nodes:
                raise ScheduleError(f"perturbation targets unknown node {p}")
        current = self.configuration
        effective = {
            p: state
            for p, state in updates.items()
            if state != current[p]
        }
        if not effective:
            return set()
        self._kernel.apply_updates(effective)
        self._reload_enabled(set(effective))
        self._restart(f"nodes {sorted(effective)}")
        return set(effective)

    def _restart(self, detail: str) -> None:
        """After a corruption: restart the round and every monitor."""
        self._rounds.restart(self._enabled)
        self._changed.clear()
        for monitor in self._monitors:
            monitor.on_start(self.configuration)
        self._mark_fault("corrupt", detail)

    def _mark_fault(self, kind: str, detail: str) -> None:
        """Record a fault event in the trace and (if on) telemetry."""
        self.trace.mark_fault(self._steps, kind, detail)
        if _telemetry.enabled:
            reg = _telemetry.registry
            reg.inc("sim.faults")
            reg.inc(f"sim.faults.{kind}")

    def crash(self, nodes: Iterable[int]) -> frozenset[int]:
        """Crash processors: they stop executing but their memory persists.

        Crashed processors are excluded from daemon selection and from
        round accounting's "continuously enabled" bookkeeping (a crash
        plays the disable action); neighbors keep reading their frozen
        state — the locally-shared-memory model has no way to make
        memory disappear.  Over the message transport a crashed
        processor also stops publishing.  Monitors are *not* restarted:
        the configuration is unchanged.  Returns the newly crashed set.
        """
        nodes = frozenset(nodes)
        unknown = nodes - set(self.network.nodes)
        if unknown:
            raise ScheduleError(f"cannot crash unknown nodes {sorted(unknown)}")
        newly = nodes - self._crashed
        if not newly:
            return frozenset()
        self._crashed |= newly
        self._exclusions_changed()
        self._mark_fault("crash", f"nodes {sorted(newly)}")
        return newly

    def recover(self, nodes: Iterable[int] | None = None) -> frozenset[int]:
        """Recover crashed processors (all of them when ``nodes`` is None).

        A recovered processor resumes from its pre-crash memory — the
        snap guarantees treat that memory as arbitrary, so nothing needs
        resetting — and re-enters fairness accounting with a fresh
        enabled-age of 1.  It joins round bookkeeping from the next
        round.  Returns the set that actually recovered.
        """
        wanted = self._crashed if nodes is None else frozenset(nodes)
        back = frozenset(wanted) & self._crashed
        if not back:
            return frozenset()
        self._crashed -= back
        self._exclusions_changed()
        self._mark_fault("recover", f"nodes {sorted(back)}")
        return back

    def suppress(self, nodes: Iterable[int]) -> frozenset[int]:
        """Suppress processors' guards — the shared-memory loss analogue.

        In the message-passing model a lossy link makes a processor act
        on stale neighbor copies; the closest shared-memory rendition
        is a processor whose enabled guards are never granted by the
        daemon (it reads, but its moves are "lost").  Suppressed
        processors keep their memory readable and are excluded from
        selection and round accounting exactly like crashed ones, but
        the fault is marked separately (``suppress``) so tapes and
        telemetry distinguish a loss window from an outage.  Returns
        the newly suppressed set.
        """
        nodes = frozenset(nodes)
        unknown = nodes - set(self.network.nodes)
        if unknown:
            raise ScheduleError(
                f"cannot suppress unknown nodes {sorted(unknown)}"
            )
        newly = nodes - self._suppressed
        if not newly:
            return frozenset()
        self._suppressed |= newly
        self._exclusions_changed()
        self._mark_fault("suppress", f"nodes {sorted(newly)}")
        return newly

    def release(self, nodes: Iterable[int] | None = None) -> frozenset[int]:
        """Release guard suppression (all of it when ``nodes`` is None).

        The mirror of :meth:`recover`: released processors re-enter
        fairness accounting with a fresh enabled-age.  Returns the set
        actually released.
        """
        wanted = self._suppressed if nodes is None else frozenset(nodes)
        back = frozenset(wanted) & self._suppressed
        if not back:
            return frozenset()
        self._suppressed -= back
        self._exclusions_changed()
        self._mark_fault("release", f"nodes {sorted(back)}")
        return back

    def _exclusions_changed(self) -> None:
        """Re-derive round exclusion and the selectable view (O(|enabled|))."""
        self._rounds.set_excluded(self._crashed | self._suppressed, self._enabled)
        self._rebuild_selectable()

    def _rebuild_selectable(self) -> None:
        excluded = self._rounds.excluded
        self._selectable_view = (
            EnabledView(
                {p: a for p, a in self._enabled.items() if p not in excluded}
            )
            if excluded
            else None
        )

    def apply_topology(self, network: Network) -> frozenset[int]:
        """Swap the network under the live run — link churn.

        ``network`` must have the same processor set (links change,
        processors do not).  States whose domains depend on the neighbor
        set are re-domained via the protocol's
        :meth:`~repro.runtime.protocol.Protocol.sanitize_state`; the
        kernel is rebuilt for the new topology (the object kernels
        re-evaluate every guard on the new network's programs; a
        compiled kernel is recompiled).  An edge flip dirties exactly
        its two endpoints, and the round restarts when anything is
        dirty.  Monitors are told the new topology and restarted.
        Returns the dirty set used.
        """
        if network.n != self.network.n:
            raise ScheduleError(
                f"topology change must preserve the processor set "
                f"(have {self.network.n}, got {network.n})"
            )
        touched = self.network.changed_nodes(network)
        old_name = self.network.name
        current = self.configuration
        updates: dict[int, NodeState] = {}
        for p in touched:
            state = current[p]
            fixed = self.protocol.sanitize_state(p, state, network)
            if fixed != state:
                updates[p] = fixed
        dirty = set(touched) | set(updates)
        self.network = network
        self._kernel.rebuild(network, current.replace(updates))
        self._reload_all(dirty)
        if dirty:
            self._rounds.restart(self._enabled)
            self._changed.clear()
        for monitor in self._monitors:
            on_network = getattr(monitor, "on_network", None)
            if on_network is not None:
                on_network(network)
            monitor.on_start(self.configuration)
        self._mark_fault(
            "topology",
            f"{old_name} -> {network.name} (dirty {sorted(dirty)})",
        )
        return frozenset(dirty)

    def swap_daemon(self, daemon: Daemon) -> None:
        """Replace the scheduler mid-run (the adversary changes strategy)."""
        self.daemon = daemon
        daemon.reset()
        self._mark_fault("swap-daemon", daemon.name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> StepRecord | None:
        """Execute one computation step.

        Returns ``None`` on a terminal configuration, and also when the
        run is *stalled* — actions are enabled but every enabled
        processor is crashed (check :meth:`is_stalled` to distinguish).
        """
        selectable = self._selectable()
        if not selectable:
            return None
        selection = self._select(selectable)
        kernel = self._kernel
        # Materialize object views only when something consumes them —
        # monitors, configuration-level traces, or the lockstep
        # validator — unless they cost nothing.
        need_objects = (
            not kernel.lazy_objects
            or bool(self._monitors)
            or self.trace.level == "configurations"
            or self.validate_engine
        )
        before = kernel.materialize() if need_objects else None
        # No-op writes are excluded from the dirty set; a step without
        # one leaves the enabled map valid.
        dirty = kernel.execute_selection(selection)
        if dirty:
            self._reload_enabled(dirty)
        after = kernel.materialize() if need_objects else None
        # Successor validation only applies to kernels that opt in: the
        # object kernels *are* the object path, and compiled kernels
        # with object statements (which protocols may make impure) must
        # not re-execute them — that would itself perturb application
        # state.
        if self.validate_engine and kernel.validates_successor:
            self._check_successor(before, selection, after, dirty)
        return self._finish_step(selection, dirty, before, after)

    def _select(self, selectable: EnabledView) -> dict[int, Action]:
        """Ask the daemon for a selection and check it."""
        selection = self.daemon.select(
            selectable,
            network=self.network,
            step=self._steps,
            ages=self._rounds.ages,
            rng=self.rng,
        )
        self._validate_selection(selection, selectable)
        return selection

    def _finish_step(
        self,
        selection: Mapping[int, Action],
        dirty: set[int],
        before: Configuration | None,
        after: Configuration | None,
    ) -> StepRecord:
        """The bookkeeping every step ends with; returns its record."""
        if self.validate_engine:
            expected = self._expected_rounds(selection)
        rounds_completed = self._rounds.observe_step(
            selection, self._enabled.node_set, self._changed
        )
        self._changed.clear()
        if self.validate_engine:
            self._check_rounds(expected)

        self._steps += 1
        self._moves += len(selection)
        for action in selection.values():
            self._action_counts[action.name] = (
                self._action_counts.get(action.name, 0) + 1
            )

        if _telemetry.enabled:
            reg = _telemetry.registry
            reg.inc("sim.steps")
            reg.inc("sim.moves", len(selection))
            reg.inc("sim.rounds", rounds_completed)
            reg.observe("sim.selection_size", len(selection))
            reg.observe("sim.enabled_set_size", len(self._enabled))
            reg.observe("sim.dirty_set_size", len(dirty))

        record = StepRecord(
            index=self._steps - 1,
            selection={p: a.name for p, a in selection.items()},
            rounds_completed=rounds_completed,
            after=after,
        )
        self.trace.append(record)
        for monitor in self._monitors:
            monitor.on_step(before, record, after)
        return record

    def run(
        self,
        *,
        until: Callable[[Configuration], bool] | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_rounds: int | None = None,
        raise_on_limit: bool = False,
    ) -> RunResult:
        """Run until the predicate holds, the computation terminates, or a budget runs out.

        ``until`` is checked on the current configuration *before* each
        step, so a run whose starting configuration already satisfies the
        predicate returns immediately with ``steps == 0``.
        """
        satisfied = False
        terminated = False
        while True:
            if until is not None and until(self.configuration):
                satisfied = True
                break
            if self.is_terminal() or self.is_stalled():
                # Either way the run cannot advance by itself.
                terminated = self.is_terminal()
                break
            if self._steps >= max_steps or (
                max_rounds is not None and self.rounds >= max_rounds
            ):
                if raise_on_limit:
                    raise SimulationLimitError(
                        f"budget exhausted after {self._steps} steps / "
                        f"{self.rounds} rounds without reaching the goal"
                    )
                break
            self.step()

        return RunResult(
            final=self.configuration,
            steps=self._steps,
            rounds=self.rounds,
            moves=self._moves,
            terminated=terminated,
            satisfied=satisfied,
            trace=self.trace if self.trace.level != "none" else None,
            action_counts=dict(self._action_counts),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validate_selection(
        self,
        selection: dict[int, Action],
        selectable: Mapping[int, Sequence[Action]],
    ) -> None:
        if not selection:
            raise ScheduleError("daemon returned an empty selection")
        for p, action in selection.items():
            enabled_here: Sequence[Action] | None = selectable.get(p)
            if enabled_here is None:
                if p in self._crashed:
                    raise ScheduleError(
                        f"daemon selected crashed processor {p}"
                    )
                if p in self._suppressed:
                    raise ScheduleError(
                        f"daemon selected suppressed processor {p}"
                    )
                raise ScheduleError(
                    f"daemon selected disabled processor {p}"
                )
            if action not in enabled_here:
                raise ScheduleError(
                    f"daemon selected action {action.name!r} not enabled at "
                    f"processor {p}"
                )

    def _reload_enabled(self, dirty: set[int]) -> None:
        """Patch the live view from the kernel's report after ``dirty`` changed."""
        changes = self._kernel.take_changes()
        if changes:
            self._enabled.patch(changes)
            self._changed.update(changes)
            if self._selectable_view is not None:
                excluded = self._rounds.excluded
                self._selectable_view.patch(
                    {p: a for p, a in changes.items() if p not in excluded}
                )
        if self.validate_engine:
            self._check_against_full(dirty)

    def _reload_all(self, dirty: set[int]) -> None:
        """Re-read the whole enabled map after a load or rebuild.

        The caller restarts the round when anything changed, so the
        change report is dropped rather than accounted.
        """
        self._enabled = EnabledView(self._kernel.enabled_map())
        self._kernel.take_changes()
        self._rebuild_selectable()
        if self.validate_engine:
            self._check_against_full(dirty)

    def _full_enabled_map(self) -> dict[int, list[Action]]:
        """The lockstep reference: every guard evaluated from scratch."""
        return self.protocol.enabled_map(self.configuration, self.network)

    def _check_against_full(self, dirty: set[int]) -> None:
        """The live view (and the selectable view) against a full recompute."""
        full = self._full_enabled_map()
        excluded = self._rounds.excluded
        views = [(self._enabled, full)]
        if self._selectable_view is not None:
            views.append(
                (
                    self._selectable_view,
                    {p: a for p, a in full.items() if p not in excluded},
                )
            )
        for view, expect in views:
            if (
                dict(view.items()) != expect
                or list(view) != list(expect)
            ):
                raise VerificationError(
                    f"{self.engine} enabled map diverged from full recompute "
                    f"at step {self._steps} (dirty={sorted(dirty)}): "
                    f"{self.engine}={ {p: [a.name for a in v] for p, v in view.items()} } "
                    f"full={ {p: [a.name for a in v] for p, v in expect.items()} }"
                )

    def _expected_rounds(
        self, executed: Mapping[int, Action]
    ) -> tuple[frozenset[int], dict[int, int], int]:
        """The round state after this step, recomputed from the full view.

        Applies the definition to every enabled processor — the O(N)
        rule the counter's O(|executed ∪ changed|) update must match.
        Called before :meth:`RoundCounter.observe_step`, once the view
        holds the post-step enabled set.
        """
        rounds = self._rounds
        ages = rounds.ages
        live = [p for p in self._enabled if p not in rounds.excluded]
        expect_ages = {
            p: 1 if p in executed or p not in ages else ages[p] + 1 for p in live
        }
        pending = frozenset(
            p for p in rounds.pending if p not in executed and p in self._enabled
        )
        completed = rounds.completed_rounds
        if not pending:
            completed += 1
            pending = frozenset(live)
        return pending, expect_ages, completed

    def _check_rounds(
        self, expected: tuple[frozenset[int], dict[int, int], int]
    ) -> None:
        rounds = self._rounds
        actual = (rounds.pending, dict(rounds.ages), rounds.completed_rounds)
        if actual != expected:
            raise VerificationError(
                f"round accounting diverged from a full recompute at step "
                f"{self._steps}: pending/ages/rounds {actual} vs {expected}"
            )

    def _check_successor(
        self,
        before: Configuration,
        selection: dict[int, Action],
        after: Configuration,
        dirty: set[int],
    ) -> None:
        """Lockstep-check one compiled-kernel step against the object path.

        The object path executes the same selection on the same
        pre-step configuration; successor and dirty set must agree
        bit for bit.
        """
        expect_after, expect_dirty = self.protocol.execute_selection(
            before, self.network, selection
        )
        if expect_dirty != dirty or expect_after != after:
            raise VerificationError(
                f"columnar successor diverged from the object path at "
                f"step {self._steps}: dirty={sorted(dirty)} vs "
                f"expected {sorted(expect_dirty)}; differing nodes: "
                f"{[p for p in range(len(after)) if after[p] != expect_after[p]]}"
            )
