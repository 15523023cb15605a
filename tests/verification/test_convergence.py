"""Tests for the exhaustive convergence and closure checkers.

These encode the two deadlocks the checkers originally found in the
literal pseudocode (see DESIGN.md §1.1, items 3 and 4) as regression
tests: the resolved algorithm must pass exhaustively, and the two
historical counterexample configurations must now converge.
"""

from __future__ import annotations

import pytest

from repro.core.pif import SnapPif
from repro.core.state import Phase, PifState
from repro.errors import VerificationError
from repro.graphs import complete, line
from repro.runtime.simulator import Simulator
from repro.runtime.state import Configuration
from repro.verification import (
    check_convergence_synchronous,
    check_normal_closure,
    enumerate_all_configurations,
)


class TestEnumeration:
    def test_full_space_size_line3(self) -> None:
        net = line(3)
        k = SnapPif.for_network(net).constants
        total = sum(1 for _ in enumerate_all_configurations(net, k))
        # root 18 x middle 72 x end 36
        assert total == 18 * 72 * 36


class TestClosureExhaustive:
    @pytest.mark.parametrize("net", [line(3), complete(3)], ids=lambda n: n.name)
    def test_normal_configurations_are_closed(self, net) -> None:
        result = check_normal_closure(net)
        assert result.ok and result.complete
        assert result.configurations_checked > 0

    def test_budget_reported(self) -> None:
        result = check_normal_closure(line(3), max_configurations=50)
        assert result.configurations_checked == 50
        assert not result.complete


class TestConvergenceExhaustive:
    def test_line3_strided_sample_converges(self) -> None:
        # The full exhaustive run lives in the benchmark suite; a strided
        # sample keeps the unit test fast while still covering thousands
        # of configurations.
        result = check_convergence_synchronous(line(3), stride=13)
        assert result.ok
        assert result.configurations_checked > 3000

    def test_budget_reported(self) -> None:
        result = check_convergence_synchronous(
            line(3), max_configurations=40
        )
        assert result.configurations_checked == 40
        assert not result.complete

    @pytest.mark.parametrize("jobs", [None, 1])
    @pytest.mark.parametrize("stride", [0, -2])
    def test_stride_below_one_rejected(self, monkeypatch, stride, jobs):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with pytest.raises(VerificationError, match="stride must be >= 1"):
            check_convergence_synchronous(
                line(3), max_configurations=4, stride=stride, jobs=jobs
            )


class TestHistoricalDeadlocks:
    """The two configurations that deadlocked under the literal pseudocode."""

    def _runs_to_sbn(self, net, states) -> int:
        protocol = SnapPif.for_network(net)
        sim = Simulator(
            protocol, net, configuration=Configuration(tuple(states))
        )
        result = sim.run(
            until=lambda c: protocol.all_clean(c), max_steps=2_000
        )
        assert result.satisfied, "configuration must reach SBN"
        return result.rounds

    def test_stale_clean_child_does_not_block_feedback(self) -> None:
        """BLeaf deadlock (DESIGN.md §1.1 item 4): root broadcasting with
        Fok up, node 1 broadcasting, node 2 clean but still pointing at
        node 1."""
        net = line(3)
        rounds = self._runs_to_sbn(
            net,
            [
                PifState(pif=Phase.B, par=None, level=0, count=3, fok=True),
                PifState(pif=Phase.B, par=0, level=1, count=1, fok=False),
                PifState(pif=Phase.C, par=1, level=2, count=1, fok=False),
            ],
        )
        assert rounds > 0

    def test_complete_count_with_low_fok_raises_flag(self) -> None:
        """Root Count/Fok deadlock (DESIGN.md §1.1 item 3): counts fully
        aggregated (Count_r = Sum_r = N) but Fok still false."""
        net = line(3)
        rounds = self._runs_to_sbn(
            net,
            [
                PifState(pif=Phase.B, par=None, level=0, count=3, fok=False),
                PifState(pif=Phase.B, par=0, level=1, count=2, fok=False),
                PifState(pif=Phase.B, par=1, level=2, count=1, fok=False),
            ],
        )
        assert rounds > 0

    def test_no_terminal_configuration_short_of_clean(self) -> None:
        """From any of a sample of configurations, the only way the
        system stops making moves is... it never does: the root always
        eventually restarts a wave (the PIF scheme is an infinite
        sequence of cycles)."""
        net = complete(3)
        protocol = SnapPif.for_network(net)
        k = protocol.constants
        import itertools

        for config in itertools.islice(
            enumerate_all_configurations(net, k), 0, 2000, 37
        ):
            sim = Simulator(protocol, net, configuration=config)
            assert sim.run(max_steps=400).stopped_by_limit, (
                "the PIF scheme must never terminate"
            )
