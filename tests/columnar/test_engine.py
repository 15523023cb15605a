"""The columnar engine behind the Simulator seam.

Covers the ISSUE's lockstep-validation matrix: ordinary stepping,
``reset_configuration``, ``perturb_configuration``, crash/recover
exclusion and topology churn, all with ``validate_engine=True`` so any
columnar/object divergence raises
:class:`~repro.errors.VerificationError` mid-test — plus run-result
identity across all three engines and the object-bridge fallback for
protocols without a compiled kernel.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.columnar import ColumnarRuntime, numpy_available
from repro.core.pif import SnapPif
from repro.graphs import by_name, ring
from repro.protocols import SpanningTree
from repro.runtime.daemons import (
    CentralDaemon,
    DistributedRandomDaemon,
    SynchronousDaemon,
)
from repro.runtime.simulator import Simulator

ACTIVE_BACKENDS = ["pure"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(autouse=True)
def _default_backend(monkeypatch):
    monkeypatch.delenv("REPRO_COLUMNAR_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_ENGINE_VALIDATE", raising=False)


def _sim(net, protocol, *, daemon=None, seed=3, validate=True, **kw):
    return Simulator(
        protocol,
        net,
        daemon or CentralDaemon(choice="random"),
        seed=seed,
        engine="columnar",
        validate_engine=validate,
        **kw,
    )


@pytest.mark.parametrize("backend", ACTIVE_BACKENDS)
class TestLockstepValidatedRuns:
    def test_validated_run_from_random_fault(
        self, backend: str, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        net = ring(6)
        protocol = SnapPif.for_network(net)
        sim = _sim(
            net,
            protocol,
            configuration=protocol.random_configuration(net, Random(11)),
        )
        for _ in range(80):
            if sim.step() is None:
                break
        assert protocol.enabled_map(sim.configuration, net) == sim._enabled

    def test_validation_covers_reset_configuration(
        self, backend: str, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        net = by_name("random-sparse", 8)
        protocol = SnapPif.for_network(net)
        sim = _sim(net, protocol, seed=5)
        rng = Random(99)
        for step in range(60):
            if step % 20 == 10:
                sim.reset_configuration(
                    protocol.random_configuration(net, rng)
                )
            if sim.step() is None:
                break
        assert protocol.enabled_map(sim.configuration, net) == sim._enabled

    def test_validation_covers_perturbation(
        self, backend: str, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        net = ring(7)
        protocol = SnapPif.for_network(net)
        sim = _sim(net, protocol, seed=8)
        rng = Random(4)
        for step in range(50):
            if step % 12 == 6:
                corrupt = protocol.random_configuration(net, rng)
                node = rng.randrange(net.n)
                changed = sim.perturb_configuration({node: corrupt[node]})
                assert changed <= {node}
            if sim.step() is None:
                break
        assert protocol.enabled_map(sim.configuration, net) == sim._enabled

    def test_validation_covers_crash_and_recover(
        self, backend: str, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        net = ring(6)
        protocol = SnapPif.for_network(net)
        sim = _sim(
            net,
            protocol,
            configuration=protocol.random_configuration(net, Random(2)),
            seed=9,
        )
        sim.crash([1, 4])
        for _ in range(15):
            record = sim.step()
            if record is None:
                break
            # Crashed processors never execute.
            assert not {1, 4} & set(record.selection)
        sim.recover()
        for _ in range(30):
            if sim.step() is None:
                break
        assert protocol.enabled_map(sim.configuration, net) == sim._enabled

    def test_validation_covers_topology_churn(
        self, backend: str, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        protocol_net = by_name("random-sparse", 8)
        protocol = SnapPif.for_network(protocol_net)
        sim = _sim(
            protocol_net,
            protocol,
            configuration=protocol.random_configuration(
                protocol_net, Random(6)
            ),
            seed=21,
        )
        for _ in range(10):
            if sim.step() is None:
                break
        churned = by_name("random-dense", 8)
        sim.apply_topology(churned)
        assert sim.network is churned
        for _ in range(30):
            if sim.step() is None:
                break
        assert protocol.enabled_map(sim.configuration, churned) == sim._enabled


class TestRunResultIdentity:
    @pytest.mark.parametrize("kind", ["snap-pif", "spanning-tree"])
    def test_fixed_seed_runs_identical_across_engines(self, kind: str) -> None:
        net = ring(8)
        results = {}
        for engine in ("full", "incremental", "columnar"):
            if kind == "snap-pif":
                protocol = SnapPif.for_network(net)
            else:
                protocol = SpanningTree(0, net.n)
            config = protocol.random_configuration(net, Random(7))
            sim = Simulator(
                protocol,
                net,
                DistributedRandomDaemon(0.4),
                configuration=config,
                seed=13,
                trace_level="selections",
                engine=engine,
            )
            results[engine] = sim.run(max_steps=120)
        full, col = results["full"], results["columnar"]
        assert full.steps == col.steps
        assert full.rounds == col.rounds
        assert full.moves == col.moves
        assert full.action_counts == col.action_counts
        assert full.final == col.final
        assert full.trace.schedule() == col.trace.schedule()
        assert results["incremental"].final == col.final
        # The wave never terminates; the silent spanning tree still moves.
        assert col.steps == 120 if kind == "snap-pif" else col.steps > 0

    def test_synchronous_daemon_identity(self) -> None:
        net = by_name("random-tree", 12)
        finals = []
        for engine in ("incremental", "columnar"):
            protocol = SnapPif.for_network(net)
            sim = Simulator(
                protocol,
                net,
                SynchronousDaemon(),
                configuration=protocol.random_configuration(net, Random(31)),
                seed=1,
                engine=engine,
            )
            finals.append(sim.run(max_steps=60).final)
        assert finals[0] == finals[1]


class TestBridgeFallback:
    def test_uncompiled_protocol_runs_on_object_bridge(self) -> None:
        from repro.protocols import TreeStackPif

        net = ring(6)
        protocol = TreeStackPif(0, net.n)
        runtime = ColumnarRuntime(
            protocol, net, protocol.initial_configuration(net)
        )
        assert runtime.compiled is False
        assert runtime.enabled_map() == protocol.enabled_map(
            runtime.materialize(), net
        )

    @pytest.mark.parametrize("kind", ["snap-pif", "spanning-tree"])
    def test_spec_protocols_compile_in_runtime(self, kind: str) -> None:
        net = ring(6)
        if kind == "snap-pif":
            protocol = SnapPif.for_network(net)
        else:
            protocol = SpanningTree(0, net.n)
        runtime = ColumnarRuntime(
            protocol, net, protocol.initial_configuration(net)
        )
        assert runtime.compiled is True

    def test_payload_protocol_compiles_with_object_statements(self) -> None:
        from repro.core.payload import PayloadSnapPif

        net = ring(5)
        protocol = PayloadSnapPif.for_network(net)
        runtime = ColumnarRuntime(
            protocol, net, protocol.initial_configuration(net)
        )
        assert runtime.compiled is True
        # Impure statements must run exactly once: the lockstep
        # validator may check enabled maps but not re-execute.
        assert runtime.validates_successor is False


class TestEngineSelection:
    def test_env_selects_columnar(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        net = ring(5)
        sim = Simulator(SnapPif.for_network(net), net)
        assert sim.engine == "columnar"
        assert sim.run(max_steps=40).final is not None

    def test_explicit_engine_argument(self) -> None:
        net = ring(5)
        sim = Simulator(SnapPif.for_network(net), net, engine="columnar")
        assert sim.engine == "columnar"

    def test_telemetry_records_compile(self, tmp_path) -> None:
        from repro import telemetry

        telemetry.disable()
        telemetry.enable(str(tmp_path / "t.jsonl"))
        try:
            net = ring(6)
            Simulator(SnapPif.for_network(net), net, engine="columnar")
            metrics = telemetry.registry.snapshot().metrics
            assert metrics["columnar.compiles"]["value"] == 1
            assert metrics["columnar.compiled"]["value"] == 1
            assert "span.columnar.compile.seconds" in metrics
        finally:
            telemetry.disable()
