"""Transform soundness: eager reliable message runs equal shared memory.

The executable form of DESIGN.md §13: under the eager model with no
loss, the message-passing run is step-for-step identical to the
shared-memory run — same daemon selections, same ground-truth
configurations — including across transient-fault events, because
corruption strikes the published register images too.
"""

from __future__ import annotations

import pytest

from repro.chaos import CorruptNodes, CrashNodes, DropMessage, RecoverNodes
from repro.core.pif import SnapPif
from repro.errors import MessagingError
from repro.graphs import line, random_connected, ring
from repro.messaging import check_message_conformance
from repro.runtime.daemons import (
    CentralDaemon,
    DistributedRandomDaemon,
    SynchronousDaemon,
)

NETWORKS = [line(5), ring(6), random_connected(8, 0.35, seed=3)]
DAEMONS = [
    SynchronousDaemon,
    lambda: CentralDaemon(choice="random"),
    lambda: DistributedRandomDaemon(0.6),
]


@pytest.mark.parametrize("network", NETWORKS, ids=lambda n: n.name)
@pytest.mark.parametrize(
    "daemon_factory", DAEMONS, ids=["synchronous", "central", "dist-random"]
)
def test_lockstep_equality(network, daemon_factory) -> None:
    protocol = SnapPif.for_network(network)
    result = check_message_conformance(
        protocol, network, daemon_factory=daemon_factory, seed=1, max_steps=150
    )
    assert result.ok, result.counterexamples[0].pretty()
    assert result.steps_checked == 150
    assert result.configurations_checked == result.steps_checked


def test_conformance_across_corruption_and_crashes() -> None:
    network = ring(6)
    protocol = SnapPif.for_network(network)
    events = [
        CorruptNodes(at_step=5, fraction=0.35, seed=11),
        CrashNodes(at_step=20, count=1, seed=12),
        RecoverNodes(at_step=35),
        CorruptNodes(at_step=50, nodes=(1, 3, 4), seed=13),
    ]
    result = check_message_conformance(
        protocol,
        network,
        daemon_factory=lambda: CentralDaemon(choice="random"),
        seed=4,
        max_steps=120,
        events=events,
    )
    assert result.ok, result.counterexamples[0].pretty()
    assert result.steps_checked > 0


def test_link_faults_are_rejected() -> None:
    network = line(4)
    protocol = SnapPif.for_network(network)
    with pytest.raises(MessagingError, match="link fault"):
        check_message_conformance(
            protocol, network, events=[DropMessage(at_step=3, seed=1)]
        )


def test_mismatch_reporting_shape() -> None:
    """A deliberately broken comparison yields a pretty counterexample."""
    from repro.messaging.conformance import ConformanceMismatch

    mismatch = ConformanceMismatch(7, "selection", {0: "B-action"}, {})
    text = mismatch.pretty()
    assert "step 7" in text and "selection" in text


class TestAsyncConformance:
    """The async model's weaker contract (satellite of the region PR).

    Async delivery holds messages back for random extra steps, so
    lockstep against shared memory is the wrong oracle; what is checked
    instead: view authenticity, per-link version monotonicity, and
    drain-to-consistency.  See the module docstring of
    :mod:`repro.messaging.conformance`.
    """

    @pytest.mark.parametrize("network", NETWORKS, ids=lambda n: n.name)
    @pytest.mark.parametrize(
        "daemon_factory",
        DAEMONS,
        ids=["synchronous", "central", "dist-random"],
    )
    def test_async_contract_holds(self, network, daemon_factory) -> None:
        protocol = SnapPif.for_network(network)
        result = check_message_conformance(
            protocol,
            network,
            daemon_factory=daemon_factory,
            seed=1,
            max_steps=120,
            model="async",
        )
        assert result.ok, result.counterexamples[0].pretty()
        assert result.complete
        assert result.steps_checked > 0

    def test_async_across_corruption_and_crashes(self) -> None:
        network = ring(6)
        protocol = SnapPif.for_network(network)
        events = [
            CorruptNodes(at_step=5, fraction=0.35, seed=11),
            CrashNodes(at_step=20, count=1, seed=12),
            RecoverNodes(at_step=35),
            CorruptNodes(at_step=50, nodes=(1, 3, 4), seed=13),
        ]
        result = check_message_conformance(
            protocol,
            network,
            daemon_factory=lambda: CentralDaemon(choice="random"),
            seed=4,
            max_steps=120,
            events=events,
            model="async",
        )
        assert result.ok, result.counterexamples[0].pretty()

    def test_async_rejects_link_faults(self) -> None:
        network = line(4)
        protocol = SnapPif.for_network(network)
        with pytest.raises(MessagingError, match="link fault"):
            check_message_conformance(
                protocol,
                network,
                events=[DropMessage(at_step=3, seed=1)],
                model="async",
            )

    def test_unknown_model_is_rejected(self) -> None:
        network = line(4)
        protocol = SnapPif.for_network(network)
        with pytest.raises(MessagingError, match="unknown conformance model"):
            check_message_conformance(protocol, network, model="psychic")

    def test_forged_view_is_caught(self) -> None:
        """Sabotage a local view; the authenticity invariant must trip."""
        from repro.messaging.conformance import _check_async_conformance
        from repro.messaging.runtime import MessageSimulator
        from repro.runtime.state import Configuration

        network = line(4)
        protocol = SnapPif.for_network(network)
        original_step = MessageSimulator.step

        def sabotaged(self):
            record = original_step(self)
            if self._steps == 8:
                # Plant a state node 0 never published into 1's view.
                forged = self._kernel.truth[0]
                for candidate in protocol.random_configuration(
                    network, __import__("random").Random(99)
                ).states:
                    if candidate not in (self._kernel.truth[0],):
                        forged = candidate
                        break
                self._kernel.views[1][0] = forged
            return record

        try:
            MessageSimulator.step = sabotaged
            result = _check_async_conformance(
                protocol,
                network,
                daemon_factory=SynchronousDaemon,
                seed=3,
                max_steps=40,
                events=(),
                capacity=None,
                heartbeat=None,
            )
        finally:
            MessageSimulator.step = original_step
        assert not result.ok
        assert "view authenticity" in result.counterexamples[0].what
