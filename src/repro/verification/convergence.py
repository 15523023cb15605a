"""Exhaustive convergence and closure checks on small networks.

Complements the snap-safety checker (:mod:`repro.verification.model_check`)
with the two classic stabilization obligations:

* **Convergence** (:func:`check_convergence_synchronous`): from *every*
  configuration of the full product state space, the synchronous
  execution reaches an all-normal configuration within Theorem 1's
  ``3·L_max + 3`` rounds and the clean SBN configuration within the
  Theorem 3 + Theorem 4 budget.
* **Closure** (:func:`check_normal_closure`): the set of normal
  configurations is closed under *every* daemon choice — no computation
  step executed from an all-normal configuration produces an abnormal
  processor.  (This is the executable converse of Lemma 5: abnormality
  only ever flows out of existing abnormality.)

Both enumerate the complete per-node state domains, so they are
exponential in ``n``; budgets cap the work and the result reports
coverage honestly.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro import settings
from repro.analysis import bounds
from repro.core import definitions as defs
from repro.core.pif import SnapPif
from repro.core.state import PifConstants
from repro.errors import ScheduleError, VerificationError
from repro.runtime.daemons import ReplayDaemon
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.runtime.state import Configuration
from repro.verification.model_check import (
    DEFAULT_MEMO_CAPACITY,
    Counterexample,
    ModelCheckResult,
    _check_sharded_sweep,
    _selections,
    _stride_hits,
    _Sweep,
    node_state_domain,
    run_synchronous,
)

__all__ = [
    "enumerate_all_configurations",
    "count_all_configurations",
    "check_convergence_synchronous",
    "check_normal_closure",
]


def enumerate_all_configurations(
    network: Network, k: PifConstants
) -> Iterator[Configuration]:
    """Every configuration of the full product state space."""
    domains = [node_state_domain(network, k, p) for p in network.nodes]
    for states in itertools.product(*domains):
        yield Configuration(states)


_CONVERGENCE_PROPERTY = (
    "convergence (synchronous): normal within 3L+3, SBN within 8L+7 + 5L+5"
)


def count_all_configurations(network: Network, k: PifConstants) -> int:
    """``len(list(enumerate_all_configurations(...)))`` without the list."""
    total = 1
    for p in network.nodes:
        total *= len(node_state_domain(network, k, p))
    return total


def check_convergence_synchronous(
    network: Network,
    root: int = 0,
    *,
    protocol: SnapPif | None = None,
    protocol_factory=None,
    max_configurations: int | None = None,
    stride: int = 1,
    memo: bool | None = None,
    validate_memo: bool | None = None,
    jobs: int | None = None,
    shards: int | None = None,
    config_slice: tuple[int, int] | None = None,
    task_timeout: float | None = None,
) -> ModelCheckResult:
    """Theorem 1 + return-to-SBN, from every configuration, synchronously.

    ``stride`` subsamples the enumeration (every ``stride``-th
    configuration) to trade coverage for time on larger state spaces;
    ``stride=1`` is exhaustive.

    The synchronous trajectories step through
    :func:`~repro.verification.model_check.run_synchronous` on the
    sweep's evaluator (same ``memo`` / ``validate_memo`` semantics as
    :func:`~repro.verification.model_check.check_snap_safety`).  With
    the memo on, distinct starting configurations funnel into the same
    convergence suffixes, so each transition is computed once.  The
    per-configuration abnormality / SBN classifications are memoized
    per configuration either way.  One synchronous step is one round,
    so the step count *is* the round count.

    ``jobs`` / ``shards`` / ``task_timeout`` work exactly as in
    :func:`~repro.verification.model_check.check_cycle_liveness_synchronous`:
    the sweep is sharded across a process pool at ``jobs`` of 2 or more
    and runs serially otherwise.
    ``config_slice`` is a half-open window in *raw* enumeration index
    space (before the stride filter), so a sharded strided sweep checks
    exactly the serial stride-hit set.
    """
    if stride < 1:
        raise VerificationError(f"stride must be >= 1, got {stride}")
    n_jobs = settings.resolve("jobs", jobs) or 1
    if config_slice is None and n_jobs > 1:
        return _check_sharded_sweep(
            check_convergence_synchronous,
            count_all_configurations,
            network,
            root,
            property_name=_CONVERGENCE_PROPERTY,
            protocol=protocol,
            protocol_factory=protocol_factory,
            max_configurations=max_configurations,
            jobs=n_jobs,
            shards=shards,
            task_timeout=task_timeout,
            options={
                "stride": stride,
                "memo": memo,
                "validate_memo": validate_memo,
            },
        )
    sweep = _Sweep(
        _CONVERGENCE_PROPERTY,
        network,
        root,
        protocol=protocol,
        protocol_factory=protocol_factory,
        memo=memo,
        validate_memo=validate_memo,
        capacity=DEFAULT_MEMO_CAPACITY,
        max_configurations=max_configurations,
    )
    k = sweep.k
    normal_budget = bounds.normalization_bound(k.l_max)
    sbn_budget = bounds.glt_bound(k.l_max) + bounds.cycle_bound(k.l_max) + 4

    #: Configuration -> (is all-normal, is SBN).  Both are pure
    #: functions of the configuration, so entries never go stale; with
    #: interning the lookups hash once and hit across trajectories.
    classified: dict[Configuration, tuple[bool, bool]] = {}

    def classify(config: Configuration) -> tuple[bool, bool]:
        flags = classified.get(config)
        if flags is None:
            flags = (
                not defs.abnormal_nodes(config, network, k),
                defs.is_sbn_configuration(config, network, k),
            )
            classified[config] = flags
        return flags

    def explore() -> None:
        configs = _stride_hits(
            enumerate_all_configurations(network, k), config_slice, stride
        )
        for config in sweep.configurations(configs):
            rounds = itertools.count()
            normal_round: int | None = None
            sbn_round: int | None = None

            def reached_sbn(current: Configuration) -> bool:
                # Called once before each step: the call count is the
                # round, and rounds past the SBN budget are not judged.
                nonlocal normal_round, sbn_round
                round_ = next(rounds)
                if round_ > sbn_budget:
                    return True
                is_normal, is_sbn = classify(current)
                if normal_round is None and is_normal:
                    normal_round = round_
                if is_sbn:
                    sbn_round = round_
                return is_sbn

            _final, steps = run_synchronous(
                sweep.evaluator, config, max_steps=sbn_budget + 1,
                stop=reached_sbn,
            )
            sweep.result.states_explored += steps
            found = []
            if normal_round is None or normal_round > normal_budget:
                found.append(
                    Counterexample(
                        config,
                        (),
                        f"not all-normal within {normal_budget} rounds "
                        f"(first normal: {normal_round})",
                    )
                )
            if sbn_round is None:
                found.append(
                    Counterexample(
                        config, (), f"SBN not reached within {sbn_budget} rounds"
                    )
                )
            if found and sweep.found(*found):
                return

    return sweep.run(explore)


def check_normal_closure(
    network: Network,
    root: int = 0,
    *,
    protocol: SnapPif | None = None,
    max_configurations: int | None = None,
    memo: bool | None = None,
    validate_memo: bool | None = None,
    replay_counterexamples: bool = True,
) -> ModelCheckResult:
    """No daemon choice leads from an all-normal configuration to an abnormal one.

    Enumerates every configuration, keeps the normal ones, and applies
    every possible selection one step, through the sweep's evaluator
    (the local-view memo of
    :class:`~repro.verification.model_check.ModelCheckMemo` by default;
    ``REPRO_MODELCHECK_MEMO=0`` selects direct evaluation).  The
    ``(configuration, selection)`` pairs of this sweep never recur, so
    it runs without a transition memo.
    Counterexamples are confirmed by replaying the single offending step
    through the real simulator (``replay_counterexamples``).
    """
    sweep = _Sweep(
        "closure of normal configurations",
        network,
        root,
        protocol=protocol,
        memo=memo,
        validate_memo=validate_memo,
        capacity=None,
        max_configurations=max_configurations,
    )
    protocol = sweep.protocol
    k = sweep.k
    evaluator = sweep.evaluator

    def explore() -> None:
        normal = (
            config
            for config in enumerate_all_configurations(network, k)
            if defs.is_normal_configuration(config, network, k)
        )
        for config in sweep.configurations(normal):
            for selection, step in _selections(evaluator.enabled_map(config)):
                sweep.result.transitions_explored += 1
                after = evaluator.transition(config, selection, step)[0]
                bad = defs.abnormal_nodes(after, network, k)
                if not bad:
                    continue
                counterexample = Counterexample(
                    config,
                    (step,),
                    f"processors {sorted(bad)} abnormal after a step "
                    f"from a normal configuration",
                )
                if replay_counterexamples:
                    _replay_closure_counterexample(
                        protocol, network, k, counterexample
                    )
                if sweep.found(counterexample):
                    return

    return sweep.run(explore)


def _replay_closure_counterexample(
    protocol: SnapPif,
    network: Network,
    k: PifConstants,
    counterexample: Counterexample,
) -> None:
    """Confirm a closure counterexample by executing its one step for real.

    Runs the recorded selection through the simulator with a scripted
    daemon (which verifies every selected action is genuinely enabled)
    and re-derives the abnormal set on the resulting configuration.
    """
    (step,) = counterexample.schedule
    sim = Simulator(
        protocol,
        network,
        ReplayDaemon([dict(step)]),
        configuration=counterexample.initial,
    )
    try:
        if sim.step() is None:
            raise VerificationError(
                "closure counterexample replays to a terminal configuration"
            )
    except ScheduleError as exc:
        raise VerificationError(
            f"closure counterexample schedule is not executable: {exc}"
        ) from exc
    bad = defs.abnormal_nodes(sim.configuration, network, k)
    if not bad:
        raise VerificationError(
            "closure counterexample did not reproduce: no abnormal "
            "processor after replaying the recorded step"
        )
