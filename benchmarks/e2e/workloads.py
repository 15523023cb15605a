"""The six end-to-end workloads.

Each workload makes its inputs from the seed (topology, arbitrary
configurations, request script) in :meth:`Workload.make_inputs`, builds
the program state from them in :meth:`Workload.setup` (the part timed as
``setup_s``), runs a timed region in :meth:`Workload.run`, and checks the
program's outputs in :meth:`Workload.check` after the timed region.

A timed region is a sequence of *operations*, the unit a user waits on
and the unit of the latency metric: a simulator step, a fault-recovery
episode, a served request, a PIF cycle over the message transport, or a
model check.  Throughput counts *items*:
steps, requests, delivered messages, or explored states.  :class:`Budget`
decides when the region stops: after ``--seconds`` of timed work, or (for
the traced rerun) after exactly as many operations as the untraced
region ran.
"""

from __future__ import annotations

import asyncio
import statistics
from dataclasses import dataclass, field
from random import Random
from time import perf_counter

from repro import (
    CentralDaemon,
    PifCycleMonitor,
    Simulator,
    SnapPif,
    SynchronousDaemon,
    line,
    random_tree,
    ring,
    star,
)
from repro.core.definitions import abnormal_nodes
from repro.errors import ServiceError
from repro.messaging.runtime import MessageSimulator
from repro.service.service import WaveService
from repro.service.workload import make_workload
from repro.verification import model_check

__all__ = ["Budget", "Sample", "WORKLOADS"]


class Budget:
    """Stop after ``seconds`` of timed work, or after ``ops`` operations."""

    def __init__(self, *, seconds: float | None = None, ops: int | None = None):
        self.seconds = seconds
        self.ops = ops

    def more(self, ops: int, elapsed: float) -> bool:
        if self.ops is not None:
            return ops < self.ops
        return elapsed < self.seconds


@dataclass
class Sample:
    """What one timed region produced."""

    ops: int = 0
    items: int = 0
    timed_s: float = 0.0
    #: Duration of every operation.
    latencies: list[float] = field(default_factory=list)
    #: Items per second over consecutive windows of about a second each;
    #: the reported throughput is their median, so a burst of load from
    #: elsewhere on the host moves one window, not the result.
    window_rates: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Output-check failures found during the run itself.
    failures: list[str] = field(default_factory=list)
    #: Workload-specific per-layer values (see layers.LAYER_UNITS).
    extra: dict[str, float] = field(default_factory=dict)
    #: Per-request and per-wave spans, written as JSONL by traced runs.
    spans: list[dict] = field(default_factory=list)


def _time_steps(step, more) -> list[float]:
    """Call ``step()`` while ``more(done, elapsed)``; return each call's time."""
    durations: list[float] = []
    start = now = perf_counter()
    while more(len(durations), now - start):
        if step() is None:
            raise RuntimeError("the computation stopped; a PIF never terminates")
        after = perf_counter()
        durations.append(after - now)
        now = after
    return durations


def _window_rates(durations, items, per: int) -> list[float]:
    """Items per second over consecutive windows of ``per`` operations.

    ``durations`` are back-to-back operation times and ``items`` the
    items each operation produced; a trailing partial window is dropped.
    """
    return [
        sum(items[lo : lo + per]) / sum(durations[lo : lo + per])
        for lo in range(0, len(durations) - per + 1, per)
    ]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def _step_sample(durations, items, per: int) -> Sample:
    return Sample(
        ops=len(durations),
        items=sum(items),
        timed_s=sum(durations),
        latencies=durations,
        window_rates=_window_rates(durations, items, per),
        attempted=len(durations),
    )


def _engines_agree(net, config, daemon, seed: int, steps: int) -> list[str]:
    """Columnar and incremental engines: same schedule, same final state."""
    outcomes = []
    for engine in ("columnar", "incremental"):
        sim = Simulator(
            SnapPif.for_network(net),
            net,
            daemon(),
            seed=seed,
            engine=engine,
            configuration=config,
            trace_level="selections",
        )
        for _ in range(steps):
            sim.step()
        outcomes.append((sim.trace.schedule(), sim.configuration))
    (schedule_c, final_c), (schedule_i, final_i) = outcomes
    failures = []
    if schedule_c != schedule_i:
        failures.append(f"{net.name}: columnar and incremental schedules differ")
    if final_c != final_i:
        failures.append(f"{net.name}: columnar and incremental final configurations differ")
    return failures


class Workload:
    """One named workload; subclasses fill in the hooks."""

    name: str
    FULL: dict
    SMOKE: dict

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.p = self.SMOKE if smoke else self.FULL
        self.make_inputs()

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def run(self, state, budget: Budget, tracer) -> Sample:
        raise NotImplementedError

    def check(self, state, sample: Sample) -> list[str]:
        return list(sample.failures)

    def settings(self, state) -> dict:
        return dict(self.p)

    def close(self, state) -> None:
        pass


class PifRing(Workload):
    name = "pif-ring-65536"
    FULL = dict(n=65536, warmup=2000, window=5000, check_n=4096, check_steps=2000)
    SMOKE = dict(n=1024, warmup=200, window=500, check_n=1024, check_steps=300)

    def make_inputs(self) -> None:
        self.net = ring(self.p["n"])
        self.config = self._start(self.net)

    def _start(self, net):
        """The initial configuration (``None``: the clean start)."""
        return None

    def setup(self):
        sim = Simulator(
            SnapPif.for_network(self.net),
            self.net,
            CentralDaemon(choice="random"),
            seed=self.seed,
            engine="columnar",
            configuration=self.config,
        )
        for _ in range(self.p["warmup"]):
            sim.step()
        return sim

    def run(self, sim, budget, tracer) -> Sample:
        durations = _time_steps(sim.step, budget.more)
        return _step_sample(durations, [1] * len(durations), self.p["window"])

    def check(self, sim, sample) -> list[str]:
        failures = super().check(sim, sample)
        if self.config is None:
            # A clean start never produces an abnormal processor.
            bad = abnormal_nodes(sim.configuration, self.net, sim.protocol.constants)
            if bad:
                failures.append(f"{len(bad)} abnormal processors after a clean start")
        net = ring(self.p["check_n"])
        failures += _engines_agree(
            net,
            self._start(net),
            lambda: CentralDaemon(choice="random"),
            self.seed,
            self.p["check_steps"],
        )
        return failures

    def settings(self, sim) -> dict:
        return {**self.p, "engine": sim.engine, "daemon": "central/random"}


class StabilizeRing(PifRing):
    name = "stabilize-ring-32768"
    FULL = dict(n=32768, warmup=0, window=40, check_n=4096, check_steps=250)
    SMOKE = dict(n=1024, warmup=0, window=100, check_n=1024, check_steps=100)

    def _start(self, net):
        return SnapPif.for_network(net).random_configuration(net, Random(self.seed))


class StabilizeTreeSync(Workload):
    name = "stabilize-tree-4096-sync"
    # The tree is fixed (``random_tree(n, seed=0)``); the seed draws the
    # arbitrary configurations.  Tree shape changes the cost per round by
    # up to 40%, which would swamp any change under test.
    FULL = dict(n=4096, episode_steps=60, check_n=4096)
    SMOKE = dict(n=1024, episode_steps=60, check_n=1024)

    def make_inputs(self) -> None:
        self.net = random_tree(self.p["n"], seed=0)
        self.config = self._arbitrary(self.net, 0)

    def _arbitrary(self, net, episode: int):
        rng = Random(self.seed * 1_000_003 + episode)
        return SnapPif.for_network(net).random_configuration(net, rng)

    def _simulator(self, config):
        return Simulator(
            SnapPif.for_network(self.net),
            self.net,
            SynchronousDaemon(),
            seed=self.seed,
            engine="columnar",
            configuration=config,
        )

    def setup(self):
        return self._simulator(self.config)

    def run(self, sim, budget, tracer) -> Sample:
        # An operation is one episode: a transient fault leaves an
        # arbitrary configuration, and a fresh simulator (set up outside
        # the timed windows) runs ``episode_steps`` synchronous rounds.
        sample = Sample()
        steps = self.p["episode_steps"]
        while True:
            durations = _time_steps(sim.step, lambda done, _elapsed: done < steps)
            tracer.phase = "idle"
            sample.failures += self._episode_failures(sim, sample.ops)
            episode_s = sum(durations)
            sample.latencies.append(episode_s)
            sample.window_rates.append(steps / episode_s)
            sample.timed_s += episode_s
            sample.items += steps
            sample.ops += 1
            if not budget.more(sample.ops, sample.timed_s):
                break
            config = self._arbitrary(self.net, sample.ops)
            tracer.phase = "setup"
            sim = self._simulator(config)
            tracer.setups += 1
            tracer.phase = "run"
        sample.attempted = sample.ops
        return sample

    def _episode_failures(self, sim, episode: int) -> list[str]:
        steps = self.p["episode_steps"]
        failures = []
        if not sim.steps == sim.rounds == steps:
            failures.append(
                f"episode {episode}: {sim.steps} steps, {sim.rounds} rounds "
                f"(a synchronous step is a round)"
            )
        bad = abnormal_nodes(sim.configuration, self.net, sim.protocol.constants)
        if bad:
            failures.append(
                f"episode {episode}: {len(bad)} abnormal processors after {steps} rounds"
            )
        return failures

    def check(self, sim, sample) -> list[str]:
        failures = super().check(sim, sample)
        net = random_tree(self.p["check_n"], seed=0)
        failures += _engines_agree(
            net,
            self._arbitrary(net, 0),
            SynchronousDaemon,
            self.seed,
            self.p["episode_steps"],
        )
        return failures

    def settings(self, sim) -> dict:
        return {**self.p, "engine": sim.engine, "daemon": "synchronous"}


@dataclass
class _Served:
    loop: asyncio.AbstractEventLoop
    service: WaveService
    #: ``(request id, phase) -> perf_counter`` of initiated/completed events.
    events: dict
    warmup: object


class ServeStar(Workload):
    name = "serve-star-1024"
    FULL = dict(n=1024, clients=8, window=16, script=20_000)
    SMOKE = dict(n=128, clients=8, window=8, script=2_000)
    TOPOLOGY = "star"

    def make_inputs(self) -> None:
        self.net = star(self.p["n"])
        self.script = make_workload(self.p["script"], seed=self.seed)

    def setup(self) -> _Served:
        loop = asyncio.new_event_loop()
        service = WaveService(seed=self.seed, engine="columnar", jobs=1)
        events: dict = {}

        def observe(event) -> bool:
            if event.phase in ("initiated", "completed"):
                events[event.request_id, event.phase] = perf_counter()
            return False  # timestamps only; nothing is buffered

        async def boot():
            service.start()
            service.subscribe(observe)
            service.add_topology(self.TOPOLOGY, self.net)
            handle = service.submit("pif", self.TOPOLOGY, {"payload": "warm-up"})
            return await handle.result()

        warmup = loop.run_until_complete(boot())
        return _Served(loop, service, events, warmup)

    def close(self, served: _Served) -> None:
        served.loop.run_until_complete(served.service.shutdown())
        served.loop.close()

    def run(self, served: _Served, budget, tracer) -> Sample:
        service, events = served.service, served.events
        sample = Sample()
        submitted: dict[int, float] = {}
        results = []
        before = service.stats()["topologies"][self.TOPOLOGY]
        start = perf_counter()
        clients = self.p["clients"]

        async def client(index: int) -> None:
            # Closed loop: the next request waits for the previous reply.
            for kind, args in self.script[index::clients]:
                if not budget.more(len(submitted), perf_counter() - start):
                    return
                sample.attempted += 1
                at = perf_counter()
                try:
                    handle = service.submit(kind, self.TOPOLOGY, args)
                    submitted[handle.request_id] = at
                    results.append(await handle.result())
                except ServiceError as error:
                    sample.failed += 1
                    sample.failures.append(f"{kind} request failed: {error}")

        async def all_clients() -> None:
            await asyncio.gather(*(client(i) for i in range(clients)))

        served.loop.run_until_complete(all_clients())
        after = service.stats()["topologies"][self.TOPOLOGY]
        done = [r.request_id for r in results]
        sample.latencies = [events[rid, "completed"] - submitted[rid] for rid in done]
        sample.ops = sample.items = len(done)
        # Requests overlap, so windows are cut at completion times.
        marks = [min(submitted.values())]
        marks += sorted(events[rid, "completed"] for rid in done)
        sample.timed_s = marks[-1] - marks[0]
        per = self.p["window"]
        sample.window_rates = [
            per / (marks[hi] - marks[hi - per]) for hi in range(per, len(marks), per)
        ]
        sample.extra = {
            "service.latency_p90_s": _p90(sample.latencies),
            "service.queue_wait_p50_s": statistics.median(
                events[rid, "initiated"] - submitted[rid] for rid in done
            ),
            "service.exec_p50_s": statistics.median(
                events[rid, "completed"] - events[rid, "initiated"] for rid in done
            ),
            "service.coalesce_ratio": (
                (after["requests_served"] - before["requests_served"])
                / (after["waves_run"] - before["waves_run"])
            ),
        }
        self._results = results
        if hasattr(tracer, "spans"):
            sample.spans = self._spans(results, submitted, events, tracer, start)
        return sample

    @staticmethod
    def _spans(results, submitted, events, tracer, start) -> list[dict]:
        """One span per request and one per wave, times relative to ``start``."""
        waves = [(s, e) for s, e in tracer.spans("applications.wave") if s >= start]
        served: list[list[int]] = [[] for _ in waves]
        spans = []
        for result in results:
            rid = result.request_id
            initiated = events[rid, "initiated"]
            # Waves on one topology run one at a time, and a batch is
            # initiated just before its wave starts.
            wave = next((i for i, (s, _e) in enumerate(waves) if s >= initiated), None)
            if wave is not None:
                served[wave].append(rid)
            spans.append(
                {
                    "span": "request",
                    "request_id": rid,
                    "kind": result.kind,
                    "wave": wave,
                    "submit_s": submitted[rid] - start,
                    "initiated_s": initiated - start,
                    "completed_s": events[rid, "completed"] - start,
                }
            )
        for index, ((s, e), rids) in enumerate(zip(waves, served)):
            spans.append(
                {
                    "span": "wave",
                    "wave": index,
                    "start_s": s - start,
                    "end_s": e - start,
                    "request_ids": rids,
                }
            )
        return spans

    def check(self, served: _Served, sample) -> list[str]:
        failures = super().check(served, sample)
        n = self.p["n"]
        if served.service.rejected:
            failures.append(f"{served.service.rejected} requests rejected")
        if sample.ops != sample.attempted:
            failures.append(f"{sample.ops} of {sample.attempted} requests completed")
        for result in [served.warmup, *self._results]:
            problem = self._result_problem(result, n)
            if problem:
                failures.append(f"request {result.request_id} ({result.kind}): {problem}")
        return failures

    @staticmethod
    def _result_problem(result, n: int) -> str | None:
        value = result.value
        if not result.ok:
            return "PIF specification violated"
        if result.kind == "pif":
            if value["acks"] != n or not value["delivered_everywhere"]:
                return f"{value['acks']} acks of {n}"
        elif result.kind == "snapshot":
            if len(value) != n:
                return f"{len(value)} reports of {n}"
        elif result.kind == "census":
            if not value["matches"] or value["nodes"] != n:
                return f"census {value}"
        elif result.kind == "reset":
            if not value["complete"]:
                return f"reset confirmed by {value['confirmed']} of {n}"
        elif result.kind == "infimum":
            offset = value["offset"]
            expected = {
                "min": offset,
                "max": n - 1 + offset,
                "sum": n * (n - 1) // 2 + n * offset,
            }[value["op"]]
            if value["value"] != expected:
                return f"{value['op']} = {value['value']}, expected {expected}"
        return None

    def settings(self, served: _Served) -> dict:
        return {**self.p, "engine": "columnar", **served.service.stats()["knobs"]}


class MessageStar(Workload):
    name = "msg-star-4096"
    # The transport is deterministic under reliable eager delivery and a
    # synchronous daemon: the seed does not change the inputs.  A PIF
    # cycle on a star takes 8 steps of very different cost (12 ms to
    # 230 ms at N=4096), so the operation is a cycle's 8 steps.
    FULL = dict(n=4096, cycle_steps=8, min_cycles=8, max_extra_steps=400)
    SMOKE = dict(n=256, cycle_steps=8, min_cycles=8, max_extra_steps=400)

    def make_inputs(self) -> None:
        self.net = star(self.p["n"])

    def setup(self) -> tuple[MessageSimulator, PifCycleMonitor]:
        pif = SnapPif.for_network(self.net)
        monitor = PifCycleMonitor(pif, self.net)
        sim = MessageSimulator(
            pif,
            self.net,
            SynchronousDaemon(),
            seed=self.seed,
            monitors=[monitor],
            loss_rate=0.0,
        )
        return sim, monitor

    def run(self, state, budget, tracer) -> Sample:
        sim, _monitor = state
        steps = self.p["cycle_steps"]
        durations: list[float] = []
        delivered: list[int] = []
        while budget.more(len(durations), sum(durations)):
            before = sim.counters["delivered"]
            durations.append(sum(_time_steps(sim.step, lambda done, _e: done < steps)))
            delivered.append(sim.counters["delivered"] - before)
        sample = _step_sample(durations, delivered, 1)
        sample.extra["messaging.delivered"] = sample.items / (sample.ops * steps)
        return sample

    def check(self, state, sample) -> list[str]:
        failures = super().check(state, sample)
        sim, monitor = state
        # The timed region may end before min_cycles: finish them untimed.
        for _ in range(self.p["max_extra_steps"]):
            if len(monitor.completed_cycles) >= self.p["min_cycles"]:
                break
            sim.step()
        cycles = len(monitor.completed_cycles)
        if cycles < self.p["min_cycles"]:
            failures.append(f"only {cycles} PIF cycles completed")
        if not monitor.all_cycles_ok():
            failures.append("a completed PIF cycle violated PIF1/PIF2")
        if sim.counters["dropped_loss"] or sim.counters["dropped_capacity"]:
            failures.append(f"messages dropped under reliable delivery: {sim.counters}")
        return failures

    def settings(self, state) -> dict:
        sim, _monitor = state
        return {
            **self.p,
            "engine": sim.engine,
            "capacity": sim.capacity,
            "model": sim.model,
            "heartbeat": sim.heartbeat,
            "loss_rate": sim.loss_rate,
        }


class ModelCheckLine(Workload):
    name = "mc-line-5"
    # The checker is exhaustive and deterministic: there is nothing
    # random to draw, so the seed does not change the inputs.
    FULL = dict(n=5, configurations=500, warmup=20, check_n=4, check_cap=300)
    SMOKE = dict(n=4, configurations=40, warmup=5, check_n=3, check_cap=40)

    def make_inputs(self) -> None:
        self.net = line(self.p["n"])

    @staticmethod
    def _check(net, pif, cap: int, memo: bool = True):
        return model_check.check_snap_safety(
            net, protocol=pif, max_configurations=cap, memo=memo, validate_memo=False
        )

    def setup(self):
        pif = SnapPif.for_network(self.net)
        self._check(self.net, pif, self.p["warmup"])
        return pif

    def run(self, pif, budget, tracer) -> Sample:
        results = []
        durations: list[float] = []
        start = perf_counter()
        while budget.more(len(results), perf_counter() - start):
            at = perf_counter()
            results.append(self._check(self.net, pif, self.p["configurations"]))
            durations.append(perf_counter() - at)
        sample = _step_sample(durations, [r.states_explored for r in results], 1)
        stats = results[-1].stats
        sample.extra = {
            "verification.memo_hit_rate": stats.memo_hit_rate,
            "verification.view_hit_rate": stats.view_hit_rate,
            "verification.interning_ratio": stats.interning_ratio,
            "verification.states": sample.items / sample.ops,
        }
        self._results = results
        return sample

    def check(self, pif, sample) -> list[str]:
        failures = super().check(pif, sample)
        if not all(r.ok for r in self._results):
            failures.append("a snap-safety check found a counterexample")
        if len({(r.states_explored, r.transitions_explored) for r in self._results}) != 1:
            failures.append("repeated identical checks explored different state counts")
        net = line(self.p["check_n"])
        small = SnapPif.for_network(net)
        counters = {
            (
                r.ok,
                r.complete,
                r.configurations_checked,
                r.states_explored,
                r.transitions_explored,
            )
            for r in (
                self._check(net, small, self.p["check_cap"], memo=memo)
                for memo in (True, False)
            )
        }
        if len(counters) != 1:
            failures.append(f"memo on and off disagree on {net.name}: {counters}")
        return failures

    def settings(self, pif) -> dict:
        return {**self.p, "engine": "model-check", "memo": True}


#: Workload name -> class, in the order ``--workload all`` runs them.
WORKLOADS = {
    cls.name: cls
    for cls in (
        PifRing,
        StabilizeRing,
        StabilizeTreeSync,
        ServeStar,
        MessageStar,
        ModelCheckLine,
    )
}
