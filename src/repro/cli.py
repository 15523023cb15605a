"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run PIF cycles on a chosen topology and print the round-by-round
    phase waterfall plus the per-cycle measurements.
``stabilize``
    Start from an adversarial configuration and report the measured
    convergence rounds against Property 3 / Theorem 1 / Theorem 3.
``verify``
    Run the exhaustive model checks (snap safety, liveness, convergence,
    closure) on a small network.
``bounds``
    Print the paper's bound sheet for a topology plus one measured cycle.
``chaos``
    Run a seeded chaos campaign (mid-run corruption, crash/recover,
    link churn, daemon swaps) against the snap-stabilizing PIF and
    report violations of the PIF specification.
``bench``
    Run the paper-experiment benchmark modules from ``benchmarks/``
    (requires a source checkout) and print their paper-vs-measured
    tables.  Speed is measured by ``benchmarks/e2e/run.py`` instead.
``serve``
    Run the asyncio wave service on a named topology and serve a
    deterministic client workload of typed wave requests, printing the
    streamed lifecycle events and the service stats tables.
``stats``
    Render the metrics and span tables from a telemetry JSONL trace
    (written by ``--telemetry PATH``).
``topologies``
    List the available topology families.
``config``
    Print every ``REPRO_*`` knob with its effective value and source
    (see :mod:`repro.settings`); exits non-zero if one holds a bad value.

``verify`` and ``chaos`` accept ``--jobs N`` to fan their sweeps across
a process pool; results are identical to the serial run (see
``repro.parallel``).  The ``REPRO_JOBS`` environment variable is the
fallback when the flag is omitted.

``verify``, ``chaos`` and ``bench`` accept ``--telemetry PATH``: the
command runs with telemetry enabled, appends spans plus a final metrics
snapshot to ``PATH`` as JSONL, and ``repro stats PATH`` renders it.
``bench`` forwards the path to its pytest subprocess via the
``REPRO_TELEMETRY`` environment variable.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Sequence

from repro import settings
from repro.analysis import bound_sheet, measure_cycles, measure_stabilization
from repro.analysis.faults import FAULT_MODES
from repro.core.monitor import PifCycleMonitor
from repro.core.pif import SnapPif
from repro.errors import ReproError
from repro.graphs import TOPOLOGY_FAMILIES, by_name, compute_metrics
from repro.reporting import render_table
from repro.reporting.render import PhaseTimeline, render_configuration
from repro.runtime.daemons import DistributedRandomDaemon
from repro.runtime.simulator import Simulator

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Snap-stabilizing PIF in arbitrary networks (ICDCS 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_knob(p: argparse.ArgumentParser, flag: str, name: str) -> None:
        """A flag overriding one settings row; ``None`` defers to the row."""
        row = settings.row(name)
        p.add_argument(
            flag,
            type=int if row.type == "int" else None,
            default=None,
            choices=list(row.choices) or None,
            help=row.help,
        )

    def add_telemetry_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--telemetry",
            metavar="PATH",
            default=None,
            help="enable telemetry and append spans plus a final metrics "
            "snapshot to PATH as JSONL (render with 'repro stats PATH')",
        )

    def add_topology_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--topology",
            default="random-sparse",
            choices=sorted(TOPOLOGY_FAMILIES),
            help="topology family (default: random-sparse)",
        )
        p.add_argument("--size", type=int, default=8, help="approximate N")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")

    demo = sub.add_parser("demo", help="run PIF cycles and show the phases")
    add_topology_args(demo)
    add_knob(demo, "--engine", "engine")
    demo.add_argument("--cycles", type=int, default=1)
    demo.add_argument(
        "--async-daemon",
        action="store_true",
        help="use a distributed random daemon instead of the synchronous one",
    )

    stab = sub.add_parser(
        "stabilize", help="recover from an adversarial configuration"
    )
    add_topology_args(stab)
    add_knob(stab, "--engine", "engine")
    stab.add_argument("--mode", default="uniform", choices=FAULT_MODES)

    verify = sub.add_parser("verify", help="exhaustive model checks (small N)")
    verify.add_argument(
        "--network",
        default="line-3",
        choices=["line-3", "complete-3", "line-4"],
    )
    verify.add_argument(
        "--cap",
        type=int,
        default=None,
        help="cap on checked configurations (line-4 defaults to 2000)",
    )
    add_knob(verify, "--jobs", "jobs")
    add_telemetry_arg(verify)

    bounds_cmd = sub.add_parser("bounds", help="bound sheet + measured cycle")
    add_topology_args(bounds_cmd)

    chaos = sub.add_parser(
        "chaos", help="seeded chaos campaign against the PIF specification"
    )
    add_topology_args(chaos)
    add_knob(chaos, "--engine", "engine")
    chaos.add_argument(
        "--budget",
        type=int,
        default=1500,
        help="step budget per run (default: 1500)",
    )
    chaos.add_argument(
        "--daemons",
        nargs="+",
        default=["synchronous", "central", "distributed-random"],
        help="daemon names to sweep (default: synchronous central "
        "distributed-random)",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable campaign summary instead of tables",
    )
    chaos.add_argument(
        "--transport",
        default="shared-memory",
        choices=["shared-memory", "message"],
        help="execution model: locally shared registers (default) or the "
        "message-passing runtime with per-link channels; 'message' sweeps "
        "the link-fault scenario shapes (loss/duplication/reordering/delay)",
    )
    add_knob(chaos, "--capacity", "channel_capacity")
    add_knob(chaos, "--message-model", "message_model")
    add_knob(chaos, "--heartbeat", "heartbeat")
    chaos.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        help="ambient per-publication loss probability in [0, 1) "
        "(message transport; default: 0.0)",
    )
    add_knob(chaos, "--jobs", "jobs")
    add_telemetry_arg(chaos)

    bench = sub.add_parser(
        "bench", help="run the paper-experiment benchmark modules"
    )
    bench.add_argument(
        "modules",
        nargs="*",
        help="benchmark module names (e.g. 'theorem2' for "
        "benchmarks/bench_theorem2.py); default: all",
    )
    bench.add_argument(
        "--list",
        action="store_true",
        dest="list_modules",
        help="list the available benchmark modules and exit",
    )
    add_knob(bench, "--engine", "engine")
    add_knob(bench, "--jobs", "jobs")
    add_telemetry_arg(bench)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio wave service and serve a client workload",
    )
    add_topology_args(serve)
    add_knob(serve, "--engine", "engine")
    add_knob(serve, "--jobs", "jobs")
    add_telemetry_arg(serve)
    serve.add_argument(
        "--requests",
        type=int,
        default=200,
        help="total wave requests to serve (default: 200)",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent asyncio clients sharing the workload (default: 4)",
    )
    add_knob(serve, "--batch-window", "batch_window")
    add_knob(serve, "--max-in-flight", "max_in_flight")
    add_knob(serve, "--queue-bound", "queue_bound")
    serve.add_argument(
        "--show-events",
        type=int,
        default=8,
        metavar="K",
        help="print the first K streamed lifecycle events (default: 8)",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit the stats payload and per-kind counts as JSON",
    )

    stats = sub.add_parser(
        "stats", help="render metrics/span tables from a telemetry trace"
    )
    stats.add_argument("trace", help="path to a telemetry JSONL trace")
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the merged metrics snapshot as JSON instead of tables",
    )

    sub.add_parser("topologies", help="list topology families")
    sub.add_parser(
        "config", help="print every REPRO_* knob's effective value"
    )
    return parser


def _telemetry_session(path: str | None):
    """Context manager enabling telemetry for one CLI command.

    On exit, appends the final metrics snapshot to the trace and
    disables telemetry (closing the sink).  A no-op when ``path`` is
    None.
    """
    import contextlib

    from repro import telemetry

    @contextlib.contextmanager
    def session():
        if path is None:
            yield
            return
        telemetry.enable(path)
        try:
            yield
            telemetry.write_snapshot(label="final")
        finally:
            telemetry.disable()

    return session()


def _cmd_demo(args: argparse.Namespace) -> int:
    net = by_name(args.topology, args.size)
    protocol = SnapPif.for_network(net)
    monitor = PifCycleMonitor(protocol, net)
    timeline = PhaseTimeline()
    daemon = DistributedRandomDaemon(0.6) if args.async_daemon else None
    sim = Simulator(
        protocol, net, daemon, seed=args.seed, monitors=[monitor, timeline]
    )
    sim.run(
        until=lambda _c: len(monitor.completed_cycles) >= args.cycles,
        max_steps=2_000_000,
    )
    print(f"{net.name}: N={net.n}, diameter={net.diameter()}")
    print()
    print(timeline.render())
    print()
    rows = [
        {
            "cycle": i + 1,
            "rounds": c.rounds,
            "h": c.height,
            "bound 5h+5": 5 * c.height + 5,
            "PIF1": c.pif1_holds(net.n),
            "PIF2": c.pif2_holds(net.n),
        }
        for i, c in enumerate(monitor.completed_cycles)
    ]
    print(render_table(rows, title="cycles"))
    return 0


def _cmd_stabilize(args: argparse.Namespace) -> int:
    net = by_name(args.topology, args.size)
    measurement = measure_stabilization(
        net, fault_mode=args.mode, seed=args.seed
    )
    rows = [
        {
            "property": "GoodCount everywhere (Property 3)",
            "rounds": measurement.rounds_to_good_count,
            "bound": measurement.good_count_bound,
        },
        {
            "property": "every processor Normal (Theorem 1)",
            "rounds": measurement.rounds_to_normal,
            "bound": measurement.normalization_bound,
        },
        {
            "property": "Good Configuration / GLT (Theorem 3)",
            "rounds": measurement.rounds_to_good_configuration,
            "bound": measurement.glt_bound,
        },
    ]
    print(
        render_table(
            rows,
            title=f"{net.name}, fault mode {args.mode!r}, "
            f"L_max={measurement.l_max}",
        )
    )
    print(f"\nwithin all bounds: {measurement.within_bounds}")
    return 0 if measurement.within_bounds else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.graphs import complete, line
    from repro.messaging import check_message_conformance
    from repro.reporting import render_model_check
    from repro.verification import (
        check_convergence_synchronous,
        check_cycle_liveness_synchronous,
        check_normal_closure,
        check_snap_safety,
    )

    if args.network == "line-3":
        net, cap = line(3), args.cap
    elif args.network == "complete-3":
        net, cap = complete(3), args.cap
    else:
        net, cap = line(4), args.cap if args.cap is not None else 2000

    jobs = args.jobs
    checks = [
        # Safety stays serial: one memo is shared across every
        # initiation, which sharding would lose (DESIGN.md §9).
        ("snap safety (all daemon choices)", check_snap_safety),
        (
            "wave liveness (synchronous)",
            lambda n, **kw: check_cycle_liveness_synchronous(
                n, jobs=jobs, **kw
            ),
        ),
        (
            "convergence to SBN (synchronous)",
            lambda n, **kw: check_convergence_synchronous(
                n, stride=3, jobs=jobs, **kw
            ),
        ),
        # Closure stays serial: its sweep filters to normal
        # configurations, which is cheap relative to the others.
        ("closure of normal configurations", check_normal_closure),
        # Transform soundness (DESIGN.md §13): the eager reliable
        # message-passing run is step-for-step identical to shared
        # memory.  Lockstep over the synchronous daemon; the cap does
        # not apply (the check walks one trace, not a state space).
        (
            "messaging conformance (eager, reliable)",
            lambda n, **_kw: check_message_conformance(
                SnapPif.for_network(n), n, seed=1, max_steps=200
            ),
        ),
        # The async model is not step-identical to shared memory; its
        # contract (authentic views, monotone links, drain-to-truth) is
        # checked directly (DESIGN.md §13).
        (
            "messaging conformance (async, reliable)",
            lambda n, **_kw: check_message_conformance(
                SnapPif.for_network(n), n, seed=1, max_steps=200,
                model="async",
            ),
        ),
    ]
    rows = []
    failed = False
    with _telemetry_session(args.telemetry):
        for label, check in checks:
            result = check(net, max_configurations=cap)
            rows.append(
                {
                    "check": label,
                    "configurations": result.configurations_checked,
                    "complete": result.complete,
                    "violations": len(result.counterexamples),
                }
            )
            if result.stats is not None:
                print(render_model_check(result))
                print()
            if not result.ok:
                failed = True
                print(result.counterexamples[0].pretty(), file=sys.stderr)
    print(render_table(rows, title=f"exhaustive checks on {net.name}"))
    return 1 if failed else 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    net = by_name(args.topology, args.size)
    metrics = compute_metrics(net)
    sheet = bound_sheet(metrics.l_max, metrics.longest_chordless_from_root)
    measurement = measure_cycles(net, cycles=1, seed=args.seed)

    print(f"{net.name}: N={metrics.n}, diameter={metrics.diameter}, "
          f"ecc(r)={metrics.root_eccentricity}, "
          f"longest chordless from r={metrics.longest_chordless_from_root}, "
          f"L_max={metrics.l_max}")
    rows = [
        {"bound": "GoodCount (Property 3)", "formula": "L+1", "rounds": sheet.good_count},
        {"bound": "all Normal (Theorem 1)", "formula": "3L+3", "rounds": sheet.normalization},
        {"bound": "GLT (Theorem 3)", "formula": "8L+7", "rounds": sheet.glt},
        {"bound": "cycle, worst h (Theorem 4)", "formula": "5h+5", "rounds": sheet.cycle},
        {
            "bound": "cycle, measured",
            "formula": f"h={measurement.heights[0]}",
            "rounds": measurement.cycle_rounds[0],
        },
    ]
    print(render_table(rows))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import (
        run_campaign,
        standard_message_scenarios,
        standard_scenarios,
    )
    from repro.reporting.campaign import campaign_to_dict, render_campaign

    net = by_name(args.topology, args.size)
    if args.transport == "message":
        scenarios = standard_message_scenarios(args.seed)
    else:
        scenarios = standard_scenarios(args.seed)
    with _telemetry_session(args.telemetry):
        result = run_campaign(
            None,  # the genuine SnapPif
            [net],
            scenarios,
            daemons=tuple(args.daemons),
            seeds=(args.seed,),
            budget=args.budget,
            jobs=args.jobs,
            transport=args.transport,
            capacity=args.capacity,
            model=args.message_model,
            heartbeat=args.heartbeat,
            loss_rate=args.loss_rate,
        )
    if args.json:
        print(json.dumps(campaign_to_dict(result), indent=2, sort_keys=True))
    else:
        print(
            render_campaign(
                result, title=f"{net.name} ({args.transport}), "
                f"seed {args.seed}, budget {args.budget}"
            )
        )
    return 0 if result.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the paper-experiment benchmark modules through pytest.

    The benchmark suite lives in ``benchmarks/`` next to ``src/`` (not
    inside the package), so this command needs a source checkout; the
    experiment tables print exactly as they do when invoking pytest
    directly.  End-to-end speed is measured by ``benchmarks/e2e/run.py``
    and compared between commits with ``run.py compare``.  ``--jobs``
    is forwarded to the wired parallel layers via the ``REPRO_JOBS``
    environment variable, so every campaign and sweep a benchmark runs
    picks it up.
    """
    import os
    import subprocess
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    bench_dir = repo_root / "benchmarks"
    if not bench_dir.is_dir():
        print(
            f"no benchmarks/ directory at {repo_root} — 'repro bench' "
            "requires a source checkout",
            file=sys.stderr,
        )
        return 2
    available = sorted(
        path.stem[len("bench_") :] for path in bench_dir.glob("bench_*.py")
    )
    if args.list_modules:
        for name in available:
            print(name)
        return 0
    selected = list(args.modules) or available
    unknown = sorted(set(selected) - set(available))
    if unknown:
        print(
            f"unknown benchmark module(s) {unknown}; available: {available}",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    if args.jobs is not None:
        env["REPRO_JOBS"] = str(args.jobs)
    if args.telemetry is not None:
        # benchmarks/conftest.py enables telemetry from this variable in
        # the pytest subprocess (the sink is owned by that process).
        env["REPRO_TELEMETRY"] = str(Path(args.telemetry).resolve())
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (
            str(repo_root / "src"),
            str(repo_root),
            env.get("PYTHONPATH", ""),
        )
        if p
    )
    command = [
        sys.executable,
        "-m",
        "pytest",
        "--benchmark-only",
        "-q",
        *(str(bench_dir / f"bench_{name}.py") for name in selected),
    ]
    return subprocess.call(command, cwd=repo_root, env=env)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the wave service on one named topology and serve a workload.

    The workload is the deterministic submission script of
    :func:`repro.service.make_workload`, split round-robin across
    ``--clients`` concurrent asyncio clients: submission happens in one
    synchronous burst (so the order — and with it every per-request
    result — is reproducible under the fixed ``--seed``), then each
    client awaits its own handles and consumes its own completion
    streams concurrently.
    """
    import asyncio
    import json
    from collections import Counter

    from repro.reporting.service import render_service
    from repro.service import WaveService, make_workload
    from repro.service.events import for_phases

    net = by_name(args.topology, args.size)
    name = f"{args.topology}-{net.n}"
    script = make_workload(args.requests, seed=args.seed)
    clients = max(1, args.clients)

    async def client(handles) -> list:
        results = []
        for handle in handles:
            async for event in handle.events():
                if event.phase in ("completed", "failed"):
                    results.append(event)
        return results

    async def session():
        async with WaveService(
            seed=args.seed,
            engine=getattr(args, "engine", None),
            batch_window=args.batch_window,
            max_in_flight=args.max_in_flight,
            queue_bound=args.queue_bound,
            jobs=args.jobs,
        ) as service:
            service.add_topology(name, net)
            tap = service.subscribe(for_phases("accepted", "completed"))
            slices = [script[c::clients] for c in range(clients)]
            per_client = [
                [service.submit(kind, name, a) for kind, a in chunk]
                for chunk in slices
            ]
            finals = await asyncio.gather(
                *(client(handles) for handles in per_client)
            )
            return service.stats(), finals, tap.drain()

    with _telemetry_session(args.telemetry):
        stats, finals, tapped = asyncio.run(session())
    flat = [event for results in finals for event in results]
    kinds = Counter(event.kind for event in flat)
    failed = sum(1 for event in flat if event.phase == "failed")
    if args.json:
        print(
            json.dumps(
                {
                    "topology": name,
                    "requests": len(flat),
                    "failed": failed,
                    "kinds": dict(sorted(kinds.items())),
                    "stats": stats,
                },
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
        return 1 if failed else 0
    print(f"served {len(flat)} wave requests on {name} "
          f"({clients} clients, seed {args.seed})")
    for event in tapped[: args.show_events]:
        print(f"  event: {event.as_dict()}")
    if len(tapped) > args.show_events:
        print(f"  ... {len(tapped) - args.show_events} more events")
    print()
    print(render_table(
        [{"kind": k, "requests": c} for k, c in sorted(kinds.items())],
        title="served by kind",
    ))
    print()
    print(render_service(stats))
    if failed:
        print(f"{failed} requests FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.reporting.telemetry import merge_trace, render_trace
    from repro.telemetry import read_trace

    try:
        records = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(
            json.dumps(
                merge_trace(records).to_dict(), indent=2, sort_keys=True
            )
        )
    else:
        print(render_trace(records))
    return 0


def _cmd_topologies(_args: argparse.Namespace) -> int:
    rows = [
        {"family": name, "example (size 9)": TOPOLOGY_FAMILIES[name](9).name}
        for name in sorted(TOPOLOGY_FAMILIES)
    ]
    print(render_table(rows))
    return 0


def _cmd_config(_args: argparse.Namespace) -> int:
    rows, errors = [], []
    for row in settings.SETTINGS:
        try:
            value, source = row.lookup()
        except ReproError as exc:
            value, source = "<invalid>", "env"
            errors.append(str(exc))
        rows.append(
            {
                "variable": row.env,
                "value": value,
                "source": source,
                "default": row.shown_default,
                "doc": row.doc,
            }
        )
    print(render_table(rows, title="effective REPRO_* settings"))
    for error in errors:
        print(f"bad setting: {error}", file=sys.stderr)
    return 1 if errors else 0


_COMMANDS = {
    "demo": _cmd_demo,
    "stabilize": _cmd_stabilize,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "chaos": _cmd_chaos,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "stats": _cmd_stats,
    "topologies": _cmd_topologies,
    "config": _cmd_config,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    engine = getattr(args, "engine", None)
    # Every Simulator the command builds — directly, through the
    # analysis/chaos layers, in pool workers or in the bench subprocess —
    # resolves its default engine from REPRO_ENGINE, so the flag sets it
    # for the command's duration only.
    scope = settings.override("engine", engine) if engine else nullcontext()
    with scope:
        return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
