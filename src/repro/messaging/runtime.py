"""The message-passing runtime: shared memory transformed onto links.

:class:`MessageSimulator` runs any existing guarded-action
:class:`~repro.runtime.protocol.Protocol` — SnapPif unmodified — over
per-link bounded-capacity channels, realizing the classic
shared-memory→message-passing transform (Delaët–Devismes–Nesterenko–
Tixeuil, arXiv:0802.1123; Cournier et al., arXiv:0905.2540):

* every process keeps a *local view*: its own register state plus the
  **last received copy** of each neighbor's registers;
* guards are evaluated and statements executed against that view, not
  against the ground truth;
* whenever a process's registers change it *publishes* the new state on
  every outgoing link, and every ``heartbeat`` steps it re-offers its
  state on links whose receiver has not yet applied the latest version
  (the retransmission that makes views eventually consistent under
  message loss);
* publications carry a per-sender version number and receivers apply
  only strictly newer versions, so duplicated and reordered copies can
  never regress a view to an older snapshot.

Each :meth:`MessageSimulator.step` is a fixed phase sequence —
**deliver → evaluate → select/execute → publish** — with every phase
deterministic under the run seed: channels are visited in ascending
``(src, dst)`` order, buffers deliver in ascending sequence order, and
the delivery/loss coins come from *stateless per-step* generators
(``Random(seed·STRIDE + 2·step [+1])``), so dropping a fault-tape entry
never shifts any later step's randomness — the property the ddmin
shrinker's identical-violation oracle relies on — and runs are
bit-identical regardless of process-pool sharding.

Conformance (DESIGN.md §13): under the ``eager`` model with no loss, a
publication sent at the end of step ``k`` is applied at the start of
step ``k+1``, which is exactly when a shared-memory neighbor would
first read the step-``k`` write — so the message run is step-for-step
identical to the shared-memory run (:mod:`repro.messaging.conformance`
checks this in lockstep, faults included).
"""

from __future__ import annotations

from random import Random
from typing import Callable, Iterable, Mapping, Sequence

from repro import settings
from repro import telemetry as _telemetry
from repro.errors import MessagingError, ProtocolError, ScheduleError
from repro.messaging.channel import Channel, check_loss_rate
from repro.runtime.daemons import Daemon, SynchronousDaemon
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Context, Protocol
from repro.runtime.rounds import RoundCounter
from repro.runtime.simulator import DEFAULT_MAX_STEPS, Monitor, RunResult
from repro.runtime.state import Configuration, NodeState
from repro.runtime.trace import StepRecord, Trace

__all__ = ["LocalView", "MessageSimulator"]

#: Mixing stride for the per-step stateless generators; the same prime
#: the scenario DSL uses for per-event seeds.
_SEED_STRIDE = 1_000_003

#: Per-message hold probability of the ``async`` delivery model.
_ASYNC_HOLD_RATE = 0.3


class LocalView:
    """What one process can read: itself plus last-received neighbor copies.

    Quacks like a :class:`~repro.runtime.state.Configuration` for the
    one index pattern :class:`~repro.runtime.protocol.Context` uses
    (``configuration[q]``), so guards and statements run unchanged.
    Reading a node without a link copy is a protocol bug (remote read),
    reported as :class:`~repro.errors.ProtocolError`.
    """

    __slots__ = ("node", "_states")

    def __init__(self, node: int, states: dict[int, NodeState]) -> None:
        self.node = node
        self._states = states

    def __getitem__(self, q: int) -> NodeState:
        try:
            return self._states[q]
        except KeyError:
            raise ProtocolError(
                f"node {self.node} read node {q} without a link-local copy"
            ) from None


class MessageSimulator:
    """Drive a protocol over lossy bounded-capacity links.

    Constructor parameters mirror :class:`~repro.runtime.simulator.
    Simulator` (protocol, network, daemon, configuration, seed,
    trace_level, monitors) plus the transport knobs:

    capacity:
        Per-link channel bound (default 8, ``REPRO_CHANNEL_CAPACITY``);
        overflow drops the oldest buffered publication.
    model:
        ``"eager"`` (default, ``REPRO_MESSAGE_MODEL``) delivers every
        in-flight message the step after it was sent; ``"async"`` holds
        each back with a seeded coin, so views lag truth even without
        injected faults.
    heartbeat:
        Republish period (default 4, ``REPRO_MESSAGE_HEARTBEAT``).
    loss_rate:
        Probability in ``[0, 1)`` that any single publication is lost
        at send time (ambient link loss, distinct from the targeted
        :class:`~repro.chaos.DropMessage` fault).

    ``engine`` is accepted for call-site compatibility: guard evaluation
    here is per-node over local views (structurally the incremental
    engine's dirty-set discipline — only nodes whose view changed are
    re-evaluated).  ``"columnar"`` silently maps to this path so suite
    runs under ``REPRO_ENGINE=columnar`` exercise the transport too;
    ``validate_engine`` cross-checks every incremental view refresh
    against a from-scratch recompute of all views.
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
        capacity: int | None = None,
        model: str | None = None,
        heartbeat: int | None = None,
        loss_rate: float = 0.0,
    ) -> None:
        engine = settings.resolve("engine", engine)
        self.engine = "incremental" if engine == "columnar" else engine
        self.validate_engine = settings.resolve(
            "validate_engine", validate_engine
        )
        self.protocol = protocol
        self.network = network
        self.daemon = daemon if daemon is not None else SynchronousDaemon()
        self.seed = seed
        self.rng = Random(seed)
        self.capacity = settings.resolve("channel_capacity", capacity)
        self.model = settings.resolve("message_model", model)
        self.heartbeat = settings.resolve("heartbeat", heartbeat)
        self.loss_rate = check_loss_rate(loss_rate)

        config = (
            configuration
            if configuration is not None
            else protocol.initial_configuration(network)
        )
        if len(config) != network.n:
            raise ScheduleError(
                f"configuration has {len(config)} states for a "
                f"{network.n}-processor network"
            )
        self._steps = 0
        self._moves = 0
        self._action_counts: dict[str, int] = {}
        self._monitors = list(monitors)
        self._crashed: set[int] = set()
        self._suppressed: set[int] = set()
        self.trace = Trace(config, level=trace_level)
        self.daemon.reset()

        #: Ground truth: the real register state of every process.
        self._truth: list[NodeState] = [config[p] for p in network.nodes]
        #: Per-sender publication version (bumped on every truth change).
        self._version: dict[int, int] = {p: 0 for p in network.nodes}
        #: ``views[p]``: p's own state + last applied copy per neighbor.
        self._views: dict[int, dict[int, NodeState]] = {}
        #: ``applied[(u, v)]``: highest version of ``u`` applied at ``v``
        #: (the transport's delivery-acknowledgement bookkeeping).
        self._applied: dict[tuple[int, int], int] = {}
        self.channels: dict[tuple[int, int], Channel] = {}
        self._build_links(config)

        #: Nodes whose view changed since their guards were evaluated.
        self._stale: set[int] = set(network.nodes)
        #: Per-node macro memo tables, dropped when the view changes.
        self._caches: dict[int, dict] = {}
        #: Nodes whose truth changed this step (must publish).
        self._pending_publish: set[int] = set()
        self._enabled: dict[int, list[Action]] = {}
        self._refresh_enabled()
        self._rounds = RoundCounter(self._enabled)
        self._config_cache: Configuration | None = config

        self.counters: dict[str, int] = {
            "sent": 0,
            "delivered": 0,
            "stale_discarded": 0,
            "dropped_loss": 0,
            "dropped_capacity": 0,
            "dropped_fault": 0,
            "duplicated": 0,
            "reordered": 0,
            "heartbeats": 0,
            "idle_steps": 0,
        }
        for monitor in self._monitors:
            monitor.on_start(config)

    # ------------------------------------------------------------------
    # Link plumbing
    # ------------------------------------------------------------------
    def _build_links(self, config: Configuration) -> None:
        """(Re)create channels and seed views from ``config``.

        Fresh links start *consistent*: the link-establishment handshake
        exchanges current states, so a new neighbor's copy is the
        sender's truth at creation time.
        """
        self.channels = {}
        self._applied = {}
        self._views = {
            p: {p: config[p]} for p in self.network.nodes
        }
        for u in self.network.nodes:
            for v in self.network.neighbors(u):
                self.channels[(u, v)] = Channel(u, v, self.capacity)
                self._applied[(u, v)] = self._version[u]
                self._views[v][u] = config[u]
        self._link_order = sorted(self.channels)

    def channel(self, u: int, v: int) -> Channel:
        """The channel of directed link ``(u, v)`` (fault events use this)."""
        try:
            return self.channels[(u, v)]
        except KeyError:
            raise MessagingError(
                f"no channel for link ({u}, {v}) — not an edge of "
                f"{self.network.name}"
            ) from None

    def in_flight(self) -> int:
        """Total messages currently buffered across all channels."""
        return sum(len(ch) for ch in self.channels.values())

    def _stale_links(self) -> list[tuple[int, int]]:
        """Links whose receiver has not applied the sender's latest version.

        Only live (non-crashed) senders count: a crashed process cannot
        retransmit, so its stale links cannot resolve by themselves.
        """
        return [
            (u, v)
            for (u, v), applied in self._applied.items()
            if applied < self._version[u] and u not in self._crashed
        ]

    def _network_quiet(self) -> bool:
        return (
            not self._pending_publish
            and all(len(ch) == 0 for ch in self.channels.values())
            and not self._stale_links()
        )

    # ------------------------------------------------------------------
    # Introspection (Simulator-compatible surface)
    # ------------------------------------------------------------------
    @property
    def configuration(self) -> Configuration:
        """The ground-truth configuration ``γ`` (not any local view)."""
        if self._config_cache is None:
            self._config_cache = Configuration(tuple(self._truth))
        return self._config_cache

    def view(self, p: int) -> dict[int, NodeState]:
        """A copy of process ``p``'s local view (tests and tooling)."""
        return dict(self._views[p])

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def rounds(self) -> int:
        return self._rounds.completed_rounds

    @property
    def moves(self) -> int:
        return self._moves

    @property
    def action_counts(self) -> dict[str, int]:
        return dict(self._action_counts)

    def enabled(self) -> dict[int, list[Action]]:
        return {p: list(actions) for p, actions in self._enabled.items()}

    def enabled_nodes(self) -> frozenset[int]:
        return frozenset(self._enabled)

    @property
    def crashed(self) -> frozenset[int]:
        return frozenset(self._crashed)

    @property
    def suppressed(self) -> frozenset[int]:
        return frozenset(self._suppressed)

    def is_terminal(self) -> bool:
        """No enabled view-guard anywhere and nothing left in the network."""
        return not self._enabled and self._network_quiet()

    def is_stalled(self) -> bool:
        """Cannot advance: no selectable process and the network is quiet.

        Unlike the shared-memory simulator an empty selectable set alone
        is not a stall — in-flight or retransmittable messages still
        advance the system through idle steps.
        """
        return (
            not self._selectable()
            and self._network_quiet()
            and bool(self._enabled)
        )

    def _selectable(self) -> dict[int, list[Action]]:
        if not self._crashed and not self._suppressed:
            return self._enabled
        excluded = self._crashed | self._suppressed
        return {
            p: actions
            for p, actions in self._enabled.items()
            if p not in excluded
        }

    def add_monitor(self, monitor: Monitor) -> None:
        monitor.on_start(self.configuration)
        self._monitors.append(monitor)

    # ------------------------------------------------------------------
    # Fault-event hooks (chaos campaigns)
    # ------------------------------------------------------------------
    def _mark_fault(self, kind: str, detail: str) -> None:
        self.trace.mark_fault(self._steps, kind, detail)
        if _telemetry.enabled:
            reg = _telemetry.registry
            reg.inc("sim.faults")
            reg.inc(f"sim.faults.{kind}")

    def _sync_views(self, updates: Mapping[int, NodeState]) -> None:
        """Instantly propagate ``updates`` into every neighbor view.

        Transient faults strike *memory* — in the message model that
        includes the published register images, so corruption is visible
        to neighbors exactly as in shared memory (this keeps the
        conformance theorem valid across corruption events).  Stale
        in-flight copies are left buffered; the version bump makes the
        receiver discard them on arrival.
        """
        for p, state in updates.items():
            self._truth[p] = state
            self._version[p] += 1
            self._views[p][p] = state
            self._touch_view(p)
            for q in self.network.neighbors(p):
                self._views[q][p] = state
                self._applied[(p, q)] = self._version[p]
                self._touch_view(q)
        self._config_cache = None

    def _touch_view(self, p: int) -> None:
        self._stale.add(p)
        self._caches.pop(p, None)

    def reset_configuration(self, configuration: Configuration) -> None:
        """Replace every register (and its published image) — a transient fault."""
        if len(configuration) != self.network.n:
            raise ScheduleError(
                f"configuration has {len(configuration)} states for a "
                f"{self.network.n}-processor network"
            )
        updates = {
            p: configuration[p]
            for p in self.network.nodes
            if configuration[p] != self._truth[p]
        }
        self._sync_views(updates)
        self._refresh_enabled()
        self._rounds.restart(frozenset(self._enabled))
        for monitor in self._monitors:
            monitor.on_start(self.configuration)
        self._mark_fault("corrupt", "configuration replaced")

    def perturb_configuration(self, updates: Mapping[int, NodeState]) -> set[int]:
        """Overwrite a subset of registers (and their published images)."""
        for p in updates:
            if p not in self.network.nodes:
                raise ScheduleError(f"perturbation targets unknown node {p}")
        effective = {
            p: state
            for p, state in updates.items()
            if state != self._truth[p]
        }
        if not effective:
            return set()
        self._sync_views(effective)
        self._refresh_enabled()
        self._rounds.restart(frozenset(self._enabled))
        for monitor in self._monitors:
            monitor.on_start(self.configuration)
        self._mark_fault("corrupt", f"nodes {sorted(effective)}")
        return set(effective)

    def crash(self, nodes: Iterable[int]) -> frozenset[int]:
        """Crash processes: they stop acting *and publishing*.

        In-flight publications keep flowing and the crashed process's
        mailbox still accepts deliveries, but nothing new leaves it —
        the message-passing sharpening of the shared-memory crash.
        """
        nodes = frozenset(nodes)
        unknown = nodes - set(self.network.nodes)
        if unknown:
            raise ScheduleError(f"cannot crash unknown nodes {sorted(unknown)}")
        newly = nodes - self._crashed
        if not newly:
            return frozenset()
        self._crashed |= newly
        self._rounds.set_excluded(
            frozenset(self._crashed | self._suppressed),
            frozenset(self._enabled),
        )
        self._mark_fault("crash", f"nodes {sorted(newly)}")
        return newly

    def recover(self, nodes: Iterable[int] | None = None) -> frozenset[int]:
        wanted = self._crashed if nodes is None else frozenset(nodes)
        back = frozenset(wanted) & self._crashed
        if not back:
            return frozenset()
        self._crashed -= back
        self._rounds.set_excluded(
            frozenset(self._crashed | self._suppressed),
            frozenset(self._enabled),
        )
        self._mark_fault("recover", f"nodes {sorted(back)}")
        return back

    def suppress(self, nodes: Iterable[int]) -> frozenset[int]:
        """Suppress processes' moves (they still publish and receive)."""
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
        self._rounds.set_excluded(
            frozenset(self._crashed | self._suppressed),
            frozenset(self._enabled),
        )
        self._mark_fault("suppress", f"nodes {sorted(newly)}")
        return newly

    def release(self, nodes: Iterable[int] | None = None) -> frozenset[int]:
        wanted = self._suppressed if nodes is None else frozenset(nodes)
        back = frozenset(wanted) & self._suppressed
        if not back:
            return frozenset()
        self._suppressed -= back
        self._rounds.set_excluded(
            frozenset(self._crashed | self._suppressed),
            frozenset(self._enabled),
        )
        self._mark_fault("release", f"nodes {sorted(back)}")
        return back

    def apply_topology(self, network: Network) -> frozenset[int]:
        """Swap the network: channels churn with the links."""
        if network.n != self.network.n:
            raise ScheduleError(
                f"topology change must preserve the processor set "
                f"(have {self.network.n}, got {network.n})"
            )
        touched = self.network.changed_nodes(network)
        old = self.network
        updates: dict[int, NodeState] = {}
        for p in touched:
            state = self._truth[p]
            fixed = self.protocol.sanitize_state(p, state, network)
            if fixed != state:
                updates[p] = fixed
        # Removed links lose their channel, their view copy and their
        # bookkeeping; new links handshake to a consistent copy.
        for u in old.nodes:
            for v in old.neighbors(u):
                if not network.has_edge(u, v):
                    del self.channels[(u, v)]
                    del self._applied[(u, v)]
                    self._views[v].pop(u, None)
                    self._touch_view(v)
        for u in network.nodes:
            for v in network.neighbors(u):
                if (u, v) not in self.channels:
                    self.channels[(u, v)] = Channel(u, v, self.capacity)
                    self._applied[(u, v)] = self._version[u]
                    self._views[v][u] = self._truth[u]
                    self._touch_view(v)
        self._link_order = sorted(self.channels)
        self.network = network
        if updates:
            self._sync_views(updates)
        dirty = set(touched) | set(updates)
        for p in dirty:
            self._touch_view(p)
        if dirty:
            self._refresh_enabled()
            self._rounds.restart(frozenset(self._enabled))
        for monitor in self._monitors:
            on_network = getattr(monitor, "on_network", None)
            if on_network is not None:
                on_network(network)
            monitor.on_start(self.configuration)
        self._mark_fault(
            "topology",
            f"{old.name} -> {network.name} (dirty {sorted(dirty)})",
        )
        return frozenset(dirty)

    def swap_daemon(self, daemon: Daemon) -> None:
        self.daemon = daemon
        daemon.reset()
        self._mark_fault("swap-daemon", daemon.name)

    # Link-fault surgery — called by the chaos events -----------------
    def drop_messages(self, u: int, v: int, count: int, rng: Random) -> int:
        lost = self.channel(u, v).drop(count, rng)
        if lost:
            self.counters["dropped_fault"] += lost
            if _telemetry.enabled:
                _telemetry.registry.inc("messaging.dropped.fault", lost)
            self._mark_fault(
                "message-drop", f"link ({u}, {v}) lost {lost} message(s)"
            )
        return lost

    def duplicate_messages(self, u: int, v: int, count: int, rng: Random) -> int:
        copied = self.channel(u, v).duplicate(count, rng, self._steps)
        if copied:
            self.counters["duplicated"] += copied
            if _telemetry.enabled:
                _telemetry.registry.inc("messaging.duplicated", copied)
            self._mark_fault(
                "message-duplicate",
                f"link ({u}, {v}) duplicated {copied} message(s)",
            )
        return copied

    def reorder_window(self, u: int, v: int, window: int, rng: Random) -> int:
        permuted = self.channel(u, v).reorder(window, rng)
        if permuted:
            self.counters["reordered"] += permuted
            if _telemetry.enabled:
                _telemetry.registry.inc("messaging.reordered", permuted)
            self._mark_fault(
                "message-reorder",
                f"link ({u}, {v}) permuted its oldest {permuted} message(s)",
            )
        return permuted

    def delay_link(self, u: int, v: int, delay: int, duration: int) -> None:
        if isinstance(duration, bool) or not isinstance(duration, int) \
                or duration < 1:
            raise MessagingError(
                f"delay duration must be a positive integer, got {duration!r}"
            )
        self.channel(u, v).set_delay(delay, self._steps + duration)
        if _telemetry.enabled:
            _telemetry.registry.inc("messaging.delayed_links")
        self._mark_fault(
            "link-delay",
            f"link ({u}, {v}) +{delay} step(s) until step "
            f"{self._steps + duration}",
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _phase_rng(self, phase: int) -> Random:
        """Stateless per-(step, phase) generator.

        Not derived from ``self.rng``: the daemon stream must consume
        exactly what the shared-memory simulator's does (conformance),
        and per-step independence is what keeps tapes shrinkable —
        removing an event cannot shift any later step's coins.
        """
        return Random(self.seed * _SEED_STRIDE + 2 * self._steps + phase)

    def _deliver(self) -> int:
        """Delivery phase: hand over due messages in ascending link order."""
        now = self._steps
        rng = self._phase_rng(0)
        delivered = 0
        for link in self._link_order:
            ch = self.channels[link]
            if not ch.buffer:
                continue
            for msg in ch.take_due(
                now, model=self.model, rng=rng, hold_rate=_ASYNC_HOLD_RATE
            ):
                delivered += 1
                u, v = link
                if msg.version > self._applied[link]:
                    self._applied[link] = msg.version
                    if self._views[v].get(u) != msg.payload:
                        self._views[v][u] = msg.payload
                        self._touch_view(v)
                else:
                    self.counters["stale_discarded"] += 1
        self.counters["delivered"] += delivered
        return delivered

    def _refresh_enabled(self) -> None:
        """Re-evaluate guards of the nodes whose view changed."""
        if self._stale:
            fresh: dict[int, list[Action] | None] = {}
            for p in self._stale:
                cache: dict = {}
                ctx = Context(
                    p, self.network, LocalView(p, self._views[p]), cache
                )
                actions = [
                    a
                    for a in self.protocol.node_actions(p, self.network)
                    if a.enabled(ctx)
                ]
                fresh[p] = actions or None
                self._caches[p] = cache
            enabled: dict[int, list[Action]] = {}
            for node in self.network.nodes:
                if node in fresh:
                    actions = fresh[node]
                    if actions is not None:
                        enabled[node] = actions
                else:
                    prev = self._enabled.get(node)
                    if prev is not None:
                        enabled[node] = prev
            self._enabled = enabled
            self._stale.clear()
        if self.validate_engine:
            self._check_against_full()

    def _check_against_full(self) -> None:
        from repro.errors import VerificationError

        full: dict[int, list[Action]] = {}
        for node in self.network.nodes:
            ctx = Context(node, self.network, LocalView(node, self._views[node]))
            actions = [
                a
                for a in self.protocol.node_actions(node, self.network)
                if a.enabled(ctx)
            ]
            if actions:
                full[node] = actions
        if full != self._enabled or list(full) != list(self._enabled):
            raise VerificationError(
                f"view-incremental enabled map diverged from full view "
                f"recompute at step {self._steps}: "
                f"{ {p: [a.name for a in v] for p, v in self._enabled.items()} } "
                f"vs { {p: [a.name for a in v] for p, v in full.items()} }"
            )

    def _publish(self, changed: set[int]) -> None:
        """Publish phase: changed nodes always, heartbeat retries on top."""
        now = self._steps
        rng = self._phase_rng(1)
        publishers: set[int] = set(changed)
        if now % self.heartbeat == 0:
            for (u, v) in self._stale_links():
                if u not in publishers and u not in self._crashed:
                    publishers.add(u)
                    self.counters["heartbeats"] += 1
                    if _telemetry.enabled:
                        _telemetry.registry.inc("messaging.heartbeats")
        for p in sorted(publishers):
            if p in self._crashed:
                continue
            version = self._version[p]
            payload = self._truth[p]
            for q in self.network.neighbors(p):
                link = (p, q)
                if self._applied[link] >= version:
                    continue  # the receiver already has this version
                if self.loss_rate and rng.random() < self.loss_rate:
                    self.counters["dropped_loss"] += 1
                    if _telemetry.enabled:
                        _telemetry.registry.inc("messaging.dropped.loss")
                    continue
                overflowed = self.channels[link].send(payload, version, now)
                self.counters["sent"] += 1
                if overflowed:
                    self.counters["dropped_capacity"] += overflowed
                if _telemetry.enabled:
                    _telemetry.registry.inc("messaging.sent")
                    if overflowed:
                        _telemetry.registry.inc(
                            "messaging.dropped.capacity", overflowed
                        )

    def step(self) -> StepRecord | None:
        """One transport step: deliver → evaluate → execute → publish.

        Returns ``None`` when nothing can ever advance again without an
        external event: no selectable process *and* a quiet network (no
        in-flight, no pending publication, no retransmittable stale
        link).  A step with deliveries but no selectable process is an
        *idle step*: it is recorded with an empty selection and counts
        against budgets like any other step.
        """
        before = self.configuration
        delivered = self._deliver()
        self._refresh_enabled()

        selectable = self._selectable()
        if not selectable and self._network_quiet():
            return None

        changed: set[int] = set()
        if selectable:
            selection = self.daemon.select(
                selectable,
                network=self.network,
                step=self._steps,
                ages=self._rounds.ages,
                rng=self.rng,
            )
            self._validate_selection(selection, selectable)
            updates: dict[int, NodeState] = {}
            for p, action in selection.items():
                ctx = Context(
                    p,
                    self.network,
                    LocalView(p, self._views[p]),
                    self._caches.get(p),
                )
                state = action.execute(ctx)
                if state != self._truth[p]:
                    updates[p] = state
            for p, state in updates.items():
                self._truth[p] = state
                self._version[p] += 1
                self._views[p][p] = state
                self._touch_view(p)
            changed = set(updates)
            if changed:
                self._config_cache = None
        else:
            selection = {}
            self.counters["idle_steps"] += 1
            if _telemetry.enabled:
                _telemetry.registry.inc("messaging.idle_steps")

        self._publish(changed)
        self._refresh_enabled()
        rounds_completed = self._rounds.observe_step(
            set(selection), frozenset(self._enabled)
        )

        self._steps += 1
        self._moves += len(selection)
        for action in selection.values():
            self._action_counts[action.name] = (
                self._action_counts.get(action.name, 0) + 1
            )

        if _telemetry.enabled:
            reg = _telemetry.registry
            reg.inc("messaging.steps")
            reg.inc("messaging.delivered", delivered)
            reg.observe("messaging.delivered_per_step", delivered)
            depths = [len(ch) for ch in self.channels.values()]
            reg.observe("messaging.in_flight", sum(depths))
            reg.observe(
                "messaging.max_channel_depth", max(depths) if depths else 0
            )
            reg.inc("sim.steps")
            reg.inc("sim.moves", len(selection))
            reg.inc("sim.rounds", rounds_completed)
            reg.observe("sim.selection_size", len(selection))
            reg.observe("sim.enabled_set_size", len(self._enabled))

        after = self.configuration
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
    ) -> RunResult:
        """Run until the predicate holds, the system quiesces, or budget."""
        satisfied = False
        terminated = False
        while True:
            if until is not None and until(self.configuration):
                satisfied = True
                break
            if self._steps >= max_steps or (
                max_rounds is not None and self.rounds >= max_rounds
            ):
                break
            if self.step() is None:
                terminated = self.is_terminal()
                break
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
