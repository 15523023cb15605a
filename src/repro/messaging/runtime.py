"""The message-passing transport: shared memory transformed onto links.

:class:`MessageSimulator` runs any existing guarded-action
:class:`~repro.runtime.protocol.Protocol` — SnapPif unmodified — over
per-link bounded-capacity channels, realizing the classic
shared-memory→message-passing transform (Delaët–Devismes–Nesterenko–
Tixeuil, arXiv:0802.1123; Cournier et al., arXiv:0905.2540).  The
transform changes only where a process reads its neighbors, so the
transport is a :class:`~repro.runtime.simulator.Simulator` subclass
that drives a different kernel, :class:`ViewKernel`:

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

The subclass adds only the links: the channels, the deliver and publish
phases around the inherited selection and bookkeeping, link-fault
surgery, idle steps and the quiet/terminal rules.  Each
:meth:`MessageSimulator.step` is a fixed phase sequence — **deliver →
evaluate → select/execute → publish** — with every phase deterministic
under the run seed: channels are visited in ascending ``(src, dst)``
order, buffers deliver in ascending sequence order, and the
delivery/loss coins come from *stateless per-step* generators
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
from typing import Iterable, Mapping

from repro import settings
from repro import telemetry as _telemetry
from repro.errors import MessagingError, ProtocolError
from repro.messaging.channel import Channel, check_loss_rate
from repro.runtime.daemons import Daemon
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Context, Protocol
from repro.runtime.simulator import Monitor, Simulator
from repro.runtime.state import Configuration, NodeState
from repro.runtime.trace import StepRecord

__all__ = ["LocalView", "MessageSimulator", "ViewKernel"]

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


class ViewKernel:
    """The object kernel whose guards read local views, not shared memory.

    It owns the ground truth, the per-sender publication versions, every
    local view and the per-link applied version (the transport's
    delivery acknowledgement).  Guards are re-evaluated only at the
    nodes whose view changed since their last evaluation.  Writes that
    strike memory directly (:meth:`load`, :meth:`apply_updates`) reach
    the published images at once; writes by a step reach neighbors only
    through :meth:`receive`.
    """

    def __init__(
        self, protocol: Protocol, network: Network, configuration: Configuration
    ) -> None:
        self.protocol = protocol
        self.network = network
        #: Ground truth: the real register state of every process.
        self.truth: list[NodeState] = list(configuration.states)
        #: Per-sender publication version (bumped on every truth change).
        self.version: dict[int, int] = {p: 0 for p in network.nodes}
        #: ``views[p]``: p's own state + last applied copy per neighbor.
        #: Fresh links start *consistent*: the link-establishment
        #: handshake exchanges current states.
        self.views: dict[int, dict[int, NodeState]] = {
            p: {p: configuration[p]} for p in network.nodes
        }
        #: ``applied[(u, v)]``: highest version of ``u`` applied at ``v``.
        self.applied: dict[tuple[int, int], int] = {}
        for u in network.nodes:
            for v in network.neighbors(u):
                self.applied[(u, v)] = 0
                self.views[v][u] = configuration[u]
        #: Nodes whose view changed since their guards were evaluated.
        self._stale: set[int] = set(network.nodes)
        #: Per-node macro memo tables, dropped when the view changes.
        self._caches: dict[int, dict] = {}
        #: ``{node: enabled actions}`` of the enabled nodes, unordered.
        self._entries: dict[int, list[Action]] = {}
        #: Entries changed since the last report.
        self._changes: dict[int, list[Action] | None] = {}
        self._config: Configuration | None = configuration

    def _touch(self, p: int) -> None:
        self._stale.add(p)
        self._caches.pop(p, None)

    def _write(self, p: int, state: NodeState) -> None:
        """A new register value at ``p``: a new version, seen by ``p``."""
        self.truth[p] = state
        self.version[p] += 1
        self.views[p][p] = state
        self._touch(p)
        self._config = None

    def load(self, configuration: Configuration) -> None:
        self.apply_updates(
            {
                p: configuration[p]
                for p in self.network.nodes
                if configuration[p] != self.truth[p]
            }
        )

    def apply_updates(self, updates: Mapping[int, NodeState]) -> set[int]:
        """Instantly write ``updates`` into truth and every neighbor view.

        Transient faults strike *memory* — in the message model that
        includes the published register images, so corruption is visible
        to neighbors exactly as in shared memory (this keeps the
        conformance theorem valid across corruption events).  Stale
        in-flight copies stay buffered; the version bump makes the
        receiver discard them on arrival.
        """
        for p, state in updates.items():
            self._write(p, state)
            for q in self.network.neighbors(p):
                self.views[q][p] = state
                self.applied[(p, q)] = self.version[p]
                self._touch(q)
        return set(updates)

    def rebuild(self, network: Network, configuration: Configuration) -> None:
        """Churn the views with the links, then write re-domained states.

        A removed link loses its view copy and bookkeeping; a new link
        handshakes to a consistent copy.  Only nodes whose links changed
        can have been re-domained, but every node's guards are evaluated
        again: its program is the new network's.
        """
        old = self.network
        for u in old.nodes:
            for v in old.neighbors(u):
                if not network.has_edge(u, v):
                    del self.applied[(u, v)]
                    self.views[v].pop(u, None)
        for u in network.nodes:
            for v in network.neighbors(u):
                if (u, v) not in self.applied:
                    self.applied[(u, v)] = self.version[u]
                    self.views[v][u] = self.truth[u]
        self.network = network
        for p in network.nodes:
            self._touch(p)
        self.apply_updates(
            {
                p: configuration[p]
                for p in old.changed_nodes(network)
                if configuration[p] != self.truth[p]
            }
        )

    def materialize(self) -> Configuration:
        """The ground-truth configuration (not any local view)."""
        if self._config is None:
            self._config = Configuration(tuple(self.truth))
        return self._config

    def enabled_map(self) -> dict[int, list[Action]]:
        if self._stale:
            self._refresh()
        entries = self._entries
        return {p: entries[p] for p in sorted(entries)}

    def take_changes(self) -> dict[int, list[Action] | None]:
        """Re-evaluate the stale views; report the entries that changed."""
        if self._stale:
            self._refresh()
        changes = self._changes
        self._changes = {}
        return changes

    def execute_selection(self, selection: Mapping[int, Action]) -> set[int]:
        """Execute against local views; only the own view sees the write."""
        updates: dict[int, NodeState] = {}
        for p, action in selection.items():
            ctx = Context(
                p, self.network, LocalView(p, self.views[p]), self._caches.get(p)
            )
            state = action.execute(ctx)
            if state != self.truth[p]:
                updates[p] = state
        for p, state in updates.items():
            self._write(p, state)
        return set(updates)

    def receive(self, u: int, v: int, version: int, payload: NodeState) -> bool:
        """Apply a copy of ``u`` at ``v``; False when it is not newer."""
        if version <= self.applied[(u, v)]:
            return False
        self.applied[(u, v)] = version
        if self.views[v].get(u) != payload:
            self.views[v][u] = payload
            self._touch(v)
        return True

    def evaluate(self, p: int, cache: dict | None = None) -> list[Action]:
        """The actions enabled at ``p`` on its local view."""
        ctx = Context(p, self.network, LocalView(p, self.views[p]), cache)
        return [
            a for a in self.protocol.node_actions(p, self.network) if a.enabled(ctx)
        ]

    def _refresh(self) -> None:
        """Re-evaluate guards of the nodes whose view changed."""
        entries = self._entries
        changes = self._changes
        for p in self._stale:
            cache: dict = {}
            actions = self.evaluate(p, cache) or None
            self._caches[p] = cache
            if actions != entries.get(p):
                changes[p] = actions
                if actions is None:
                    del entries[p]
                else:
                    entries[p] = actions
        self._stale.clear()


class MessageSimulator(Simulator):
    """Drive a protocol over lossy bounded-capacity links.

    Takes every :class:`~repro.runtime.simulator.Simulator` parameter
    plus the transport knobs:

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

    The kernel is always the :class:`ViewKernel`: ``engine`` is
    resolved and recorded like the shared-memory simulator's, and
    ``"columnar"`` reads as ``"incremental"``, the view kernel's
    repair discipline.  ``validate_engine`` cross-checks every view
    refresh against a from-scratch recompute of every view.
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
        self.seed = seed
        self.capacity = settings.resolve("channel_capacity", capacity)
        self.model = settings.resolve("message_model", model)
        self.heartbeat = settings.resolve("heartbeat", heartbeat)
        self.loss_rate = check_loss_rate(loss_rate)
        super().__init__(
            protocol,
            network,
            daemon,
            configuration=configuration,
            seed=seed,
            trace_level=trace_level,
            monitors=monitors,
            engine=engine,
            validate_engine=validate_engine,
        )
        if self.engine == "columnar":
            self.engine = "incremental"
        self.channels: dict[tuple[int, int], Channel] = {}
        self._sync_channels()
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

    def _make_kernel(self, configuration: Configuration) -> ViewKernel:
        return ViewKernel(self.protocol, self.network, configuration)

    def _full_enabled_map(self) -> dict[int, list[Action]]:
        """Every guard re-evaluated on every local view."""
        full: dict[int, list[Action]] = {}
        for node in self.network.nodes:
            actions = self._kernel.evaluate(node)
            if actions:
                full[node] = actions
        return full

    # ------------------------------------------------------------------
    # Link plumbing
    # ------------------------------------------------------------------
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

    def view(self, p: int) -> dict[int, NodeState]:
        """A copy of process ``p``'s local view (tests and tooling)."""
        return dict(self._kernel.views[p])

    def _stale_links(self) -> list[tuple[int, int]]:
        """Links whose receiver has not applied the sender's latest version.

        Only live (non-crashed) senders count: a crashed process cannot
        retransmit, so its stale links cannot resolve by themselves.
        """
        version = self._kernel.version
        return [
            (u, v)
            for (u, v), applied in self._kernel.applied.items()
            if applied < version[u] and u not in self._crashed
        ]

    def _network_quiet(self) -> bool:
        return all(
            len(ch) == 0 for ch in self.channels.values()
        ) and not self._stale_links()

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

    def apply_topology(self, network: Network) -> frozenset[int]:
        """Swap the network: channels churn with the links."""
        dirty = super().apply_topology(network)
        self._sync_channels()
        return dirty

    def _sync_channels(self) -> None:
        """One channel per link of the kernel; surviving links keep theirs."""
        old = self.channels
        self.channels = {
            link: old[link] if link in old else Channel(*link, self.capacity)
            for link in sorted(self._kernel.applied)
        }
        self._link_order = list(self.channels)

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
        receive = self._kernel.receive
        delivered = 0
        for link in self._link_order:
            ch = self.channels[link]
            if not ch.buffer:
                continue
            u, v = link
            for msg in ch.take_due(
                now, model=self.model, rng=rng, hold_rate=_ASYNC_HOLD_RATE
            ):
                delivered += 1
                if not receive(u, v, msg.version, msg.payload):
                    self.counters["stale_discarded"] += 1
        self.counters["delivered"] += delivered
        return delivered

    def _publish(self, changed: set[int]) -> None:
        """Publish phase: changed nodes always, heartbeat retries on top."""
        now = self._steps
        rng = self._phase_rng(1)
        kernel = self._kernel
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
            version = kernel.version[p]
            payload = kernel.truth[p]
            for q in self.network.neighbors(p):
                link = (p, q)
                if kernel.applied[link] >= version:
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
        in-flight, no retransmittable stale link).  A step with
        deliveries but no selectable process is an *idle step*: it is
        recorded with an empty selection and counts against budgets
        like any other step.
        """
        before = self.configuration
        delivered = self._deliver()
        self._reload_enabled(set())

        selectable = self._selectable()
        if not selectable and self._network_quiet():
            return None

        if selectable:
            selection = self._select(selectable)
            changed = self._kernel.execute_selection(selection)
        else:
            selection = {}
            changed = set()
            self.counters["idle_steps"] += 1
            if _telemetry.enabled:
                _telemetry.registry.inc("messaging.idle_steps")

        self._publish(changed)
        self._reload_enabled(changed)

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
        return self._finish_step(selection, changed, before, self.configuration)
