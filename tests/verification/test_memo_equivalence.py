"""Memoized-vs-direct equivalence sweep for the exhaustive checkers.

The :class:`~repro.verification.model_check.ModelCheckMemo` engine is a
pure performance layer: for every checker and every workload — full
sweeps, capped runs, the ablated (unsafe) protocol — the memoized and
direct paths must produce bit-identical verdicts, coverage counters and
counterexamples.  Stats are explicitly *not* compared: instrumentation
is the one thing the memo is allowed to change.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.pif import SnapPif
from repro.errors import VerificationError
from repro.graphs import complete, line, ring, star
from repro.verification import (
    ModelCheckMemo,
    ModelCheckResult,
    WaveTag,
    check_convergence_synchronous,
    check_cycle_liveness_synchronous,
    check_normal_closure,
    check_snap_safety,
    enumerate_initiation_configurations,
)
from repro.verification.model_check import _selections


def _comparable(result: ModelCheckResult) -> dict:
    """Everything that must be identical across engines (not stats)."""
    return {
        "property_name": result.property_name,
        "ok": result.ok,
        "complete": result.complete,
        "truncation": result.truncation,
        "configurations_checked": result.configurations_checked,
        "states_explored": result.states_explored,
        "transitions_explored": result.transitions_explored,
        "counterexamples": [
            (c.initial, c.schedule, c.message)
            for c in result.counterexamples
        ],
    }


def _assert_equivalent(run) -> None:
    on = run(memo=True)
    off = run(memo=False)
    assert _comparable(on) == _comparable(off)
    assert on.stats is not None and on.stats.memo_enabled
    assert off.stats is not None and not off.stats.memo_enabled


class TestSnapSafetyEquivalence:
    def test_line3_full(self) -> None:
        _assert_equivalent(lambda memo: check_snap_safety(line(3), memo=memo))

    def test_complete3_full(self) -> None:
        _assert_equivalent(
            lambda memo: check_snap_safety(complete(3), memo=memo)
        )

    def test_line4_capped(self) -> None:
        _assert_equivalent(
            lambda memo: check_snap_safety(
                line(4), max_configurations=400, memo=memo
            )
        )

    def test_line5_capped_in_bounded_memory(self) -> None:
        """The memoized sweep (memo tables included) stays far below
        256 MB of traced allocation, and its schedule-reconstruction
        table never outgrows the states it explored."""

        def run(memo: bool) -> ModelCheckResult:
            return check_snap_safety(line(5), max_configurations=300, memo=memo)

        tracemalloc.start()
        try:
            on = run(True)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _comparable(on) == _comparable(run(False))
        assert on.ok
        assert on.stats.peak_parent_entries <= on.states_explored + 1
        assert peak_bytes < 256 * 1024 * 1024

    def test_max_states_capped(self) -> None:
        _assert_equivalent(
            lambda memo: check_snap_safety(line(4), max_states=200, memo=memo)
        )

    def test_ablated_protocol_all_counterexamples(self) -> None:
        """The unsafe protocol must yield the *same* counterexamples —
        same initial configurations, schedules and messages, in the same
        order — from both engines."""
        net = line(3)

        def run(memo: bool) -> ModelCheckResult:
            protocol = SnapPif.for_network(net, leaf_guard=False)
            return check_snap_safety(
                net,
                protocol=protocol,
                stop_at_first=False,
                max_configurations=200,
                memo=memo,
            )

        on, off = run(True), run(False)
        assert _comparable(on) == _comparable(off)
        assert not on.ok and on.counterexamples

    def test_ablated_protocol_stop_at_first(self) -> None:
        net = line(3)

        def run(memo: bool) -> ModelCheckResult:
            protocol = SnapPif.for_network(net, leaf_guard=False)
            return check_snap_safety(
                net, protocol=protocol, stop_at_first=True, memo=memo
            )

        on, off = run(True), run(False)
        assert _comparable(on) == _comparable(off)
        assert len(on.counterexamples) == 1


class TestClosureEquivalence:
    def test_line3_capped(self) -> None:
        _assert_equivalent(
            lambda memo: check_normal_closure(
                line(3), max_configurations=800, memo=memo
            )
        )

    def test_complete3_capped(self) -> None:
        _assert_equivalent(
            lambda memo: check_normal_closure(
                complete(3), max_configurations=800, memo=memo
            )
        )


class TestSynchronousCheckerEquivalence:
    """The synchronous checkers (liveness, convergence) drive their
    deterministic executions through ``run_synchronous`` on either
    evaluator; verdicts, coverage counters and counterexamples must
    match exactly (the direct loop is checked against the Simulator in
    test_model_check.py)."""

    def test_liveness_line3_full(self) -> None:
        _assert_equivalent(
            lambda memo: check_cycle_liveness_synchronous(line(3), memo=memo)
        )

    def test_liveness_ring4_capped(self) -> None:
        _assert_equivalent(
            lambda memo: check_cycle_liveness_synchronous(
                ring(4), max_configurations=300, memo=memo
            )
        )

    def test_liveness_no_leaf_guard_same_verdict(self) -> None:
        """The ablated protocol must fail (or pass) identically."""
        net = line(3)

        def run(memo: bool) -> ModelCheckResult:
            protocol = SnapPif.for_network(net, leaf_guard=False)
            return check_cycle_liveness_synchronous(
                net, protocol=protocol, max_configurations=600, memo=memo
            )

        on, off = run(True), run(False)
        assert _comparable(on) == _comparable(off)

    def test_convergence_line3_strided(self) -> None:
        _assert_equivalent(
            lambda memo: check_convergence_synchronous(
                line(3), stride=13, memo=memo
            )
        )

    def test_convergence_star4_capped(self) -> None:
        _assert_equivalent(
            lambda memo: check_convergence_synchronous(
                star(4), max_configurations=200, stride=17, memo=memo
            )
        )


class TestValidateMode:
    """``validate_memo=True`` cross-checks every memoized answer against
    the direct evaluation in-line; a clean run is itself the assertion."""

    def test_snap_safety_validated(self) -> None:
        result = check_snap_safety(
            line(3), max_configurations=60, memo=True, validate_memo=True
        )
        assert result.ok

    def test_closure_validated(self) -> None:
        result = check_normal_closure(
            line(3), max_configurations=200, memo=True, validate_memo=True
        )
        assert result.ok

    def test_liveness_validated(self) -> None:
        result = check_cycle_liveness_synchronous(
            line(3), max_configurations=120, memo=True, validate_memo=True
        )
        assert result.ok

    def test_convergence_validated(self) -> None:
        result = check_convergence_synchronous(
            line(3),
            max_configurations=120,
            stride=19,
            memo=True,
            validate_memo=True,
        )
        assert result.ok

    def test_planted_wrong_advance_is_caught(self) -> None:
        """A cached wave-tag advance that disagrees with direct
        evaluation is served silently without validation and raises
        with it."""
        net = line(3)
        protocol = SnapPif.for_network(net)
        config = next(
            enumerate_initiation_configurations(net, protocol.constants)
        )
        tag = WaveTag(frozenset({0}), frozenset(), False)
        wrong = (WaveTag(frozenset({0, 1, 2}), frozenset(), False), None)
        for validate in (False, True):
            memo = ModelCheckMemo(
                protocol, net, capacity=None, validate=validate
            )
            config = memo.intern(config)
            selection, step = next(_selections(memo.enabled_map(config)))
            _after, _dirty, joins, joins_key = memo.transition(
                config, selection, step
            )
            memo._advance_cache[(tag, step, joins_key)] = wrong
            if not validate:
                assert memo.advance(
                    tag, config, selection, step, joins, joins_key
                ) == wrong
                continue
            with pytest.raises(VerificationError, match="advance diverged"):
                memo.advance(tag, config, selection, step, joins, joins_key)

    def test_validate_env_default(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_MODELCHECK_VALIDATE", "1")
        result = check_snap_safety(line(3), max_configurations=30)
        assert result.ok
