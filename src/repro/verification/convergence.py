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
import time
from typing import Iterator

from repro import settings
from repro.analysis import bounds
from repro.core import definitions as defs
from repro.core.pif import SnapPif
from repro.core.state import PifConstants, PifState
from repro.errors import ScheduleError, VerificationError
from repro.runtime.daemons import ReplayDaemon
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.runtime.state import Configuration
from repro.verification.model_check import (
    Counterexample,
    ModelCheckMemo,
    ModelCheckResult,
    ModelCheckStats,
    _selections,
    apply_selection,
    merge_model_check_results,
    node_state_domain,
    synchronous_selection,
    _publish_check,
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

    With the memo engine on (the default; same ``memo`` /
    ``validate_memo`` semantics as
    :func:`~repro.verification.model_check.check_snap_safety`) the
    synchronous trajectories step through the shared
    :class:`~repro.verification.model_check.ModelCheckMemo` — distinct
    starting configurations funnel into the same convergence suffixes,
    so each transition is computed once — and the per-configuration
    abnormality / SBN classifications are memoized per interned
    configuration.  Verdicts, counterexamples and counters are
    bit-identical to the direct simulator path (one synchronous step is
    one round, so the step count *is* the round count).

    ``jobs`` / ``shards`` / ``task_timeout`` shard the sweep across a
    process pool exactly like
    :func:`~repro.verification.model_check.check_snap_safety`.
    ``config_slice`` is a half-open window in *raw* enumeration index
    space (before the stride filter), so a sharded strided sweep checks
    exactly the serial stride-hit set.
    """
    if config_slice is None:
        n_jobs = settings.resolve("jobs", jobs)
        if n_jobs is not None:
            return _check_convergence_parallel(
                network,
                root,
                protocol=protocol,
                protocol_factory=protocol_factory,
                max_configurations=max_configurations,
                stride=stride,
                memo=memo,
                validate_memo=validate_memo,
                jobs=n_jobs,
                shards=shards,
                task_timeout=task_timeout,
            )
    if protocol is None:
        factory = protocol_factory or SnapPif.for_network
        protocol = factory(network, root)
    k = protocol.constants
    memo = settings.resolve("memo", memo)
    validate_memo = settings.resolve("validate_memo", validate_memo)
    engine = (
        ModelCheckMemo(protocol, network, validate=validate_memo)
        if memo
        else None
    )
    result = ModelCheckResult(property_name=_CONVERGENCE_PROPERTY)
    stats = ModelCheckStats(memo_enabled=engine is not None)
    result.stats = stats
    normal_budget = bounds.normalization_bound(k.l_max)
    sbn_budget = bounds.glt_bound(k.l_max) + bounds.cycle_bound(k.l_max) + 4

    #: Interned configuration -> (is all-normal, is SBN).  Both are pure
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

    #: ``enumerate`` before ``islice`` keeps the *global* raw index on
    #: every item, so ``index % stride`` picks the same configurations
    #: inside a shard window as it does in the full serial sweep.
    indexed = enumerate(enumerate_all_configurations(network, k))
    if config_slice is not None:
        indexed = itertools.islice(indexed, *config_slice)

    start = time.perf_counter()
    try:
        for index, config in indexed:
            if stride > 1 and index % stride:
                continue
            if (
                max_configurations is not None
                and result.configurations_checked >= max_configurations
            ):
                result.complete = False
                result.truncation = (
                    f"max_configurations={max_configurations} reached"
                )
                break
            result.configurations_checked += 1

            normal_round: int | None = None
            sbn_round: int | None = None
            if engine is not None:
                # Synchronous rounds == steps, so the step counter below
                # is exactly ``sim.rounds`` of the direct path.
                current = engine.interner.intern(config)
                enabled = engine.enabled_map(current)
                steps = 0
                while steps <= sbn_budget:
                    is_normal, is_sbn = classify(current)
                    if normal_round is None and is_normal:
                        normal_round = steps
                    if is_sbn:
                        sbn_round = steps
                        break
                    if not enabled:  # terminal without SBN: impossible
                        break
                    selection, signature = synchronous_selection(enabled)
                    current, dirty, _joins, _joins_key = engine.transition(
                        current, selection, signature
                    )
                    enabled = engine.successor_enabled_map(
                        enabled, current, dirty
                    )
                    steps += 1
                result.states_explored += steps
            else:
                sim = Simulator(protocol, network, configuration=config)
                while sim.rounds <= sbn_budget:
                    if normal_round is None and not defs.abnormal_nodes(
                        sim.configuration, network, k
                    ):
                        normal_round = sim.rounds
                    if defs.is_sbn_configuration(sim.configuration, network, k):
                        sbn_round = sim.rounds
                        break
                    if sim.step() is None:  # terminal without SBN: impossible
                        break
                result.states_explored += sim.steps

            if normal_round is None or normal_round > normal_budget:
                result.counterexamples.append(
                    Counterexample(
                        config,
                        (),
                        f"not all-normal within {normal_budget} rounds "
                        f"(first normal: {normal_round})",
                    )
                )
            if sbn_round is None:
                result.counterexamples.append(
                    Counterexample(
                        config, (), f"SBN not reached within {sbn_budget} rounds"
                    )
                )
            if len(result.counterexamples) >= 5:
                result.complete = False
                result.truncation = "stopped after 5 counterexamples"
                break
    finally:
        stats.elapsed_seconds = time.perf_counter() - start
        stats.states_per_second = (
            result.states_explored / stats.elapsed_seconds
            if stats.elapsed_seconds > 0
            else 0.0
        )
        if engine is not None:
            engine.fill_stats(stats)
        _publish_check(result)
    return result


def _check_convergence_parallel(
    network: Network,
    root: int,
    *,
    protocol: SnapPif | None,
    protocol_factory,
    max_configurations: int | None,
    stride: int,
    memo: bool | None,
    validate_memo: bool | None,
    jobs: int,
    shards: int | None,
    task_timeout: float | None,
) -> ModelCheckResult:
    """Shard the convergence sweep over raw enumeration windows and merge.

    Sharding happens in *raw* index space: the serial sweep checks the
    stride hits ``0, s, 2s, …`` and (under ``max_configurations=M``)
    stops after ``M`` of them, i.e. it never looks past raw index
    ``(M-1)·s``.  The parallel window is therefore
    ``min(total_raw, (M-1)·s + 1)``; partitioned into contiguous raw
    ranges, the union of per-shard stride hits is exactly the serial
    stride-hit set.  The merged counterexample list is cut where the
    serial sweep's five-counterexample stop would have cut it (whole
    configurations, so the normal/SBN pair a single configuration emits
    is never split).
    """
    from repro.parallel.executor import (
        ParallelError,
        ParallelExecutor,
        chunk_ranges,
        raise_failures,
    )
    from repro.parallel.workers import convergence_shard
    from repro.verification.model_check import DEFAULT_SHARDS

    if protocol is not None and protocol_factory is None:
        raise ParallelError(
            "sharded check_convergence_synchronous cannot ship a protocol "
            "instance across the pickle boundary; pass protocol_factory= "
            "(a module-level (network, root) -> protocol callable) instead"
        )
    if stride < 1:
        raise VerificationError(f"stride must be >= 1, got {stride}")
    factory = protocol_factory or SnapPif.for_network
    k = factory(network, root).constants
    total_raw = count_all_configurations(network, k)
    if max_configurations is None:
        window = total_raw
        capped = False
    else:
        window = min(total_raw, max(0, max_configurations - 1) * stride + 1)
        capped = total_raw > max_configurations * stride
    cap_note = f"max_configurations={max_configurations} reached"

    tasks = []
    for start, stop in chunk_ranges(window, shards or DEFAULT_SHARDS):
        payload = {
            "factory": protocol_factory,
            "network": network,
            "root": root,
            "config_slice": (start, stop),
            "stride": stride,
            "memo": memo,
            "validate_memo": validate_memo,
        }
        tasks.append(((network.name, "convergence", start, stop), payload))

    if not tasks:
        result = ModelCheckResult(property_name=_CONVERGENCE_PROPERTY)
        result.stats = ModelCheckStats()
        if capped:
            result.complete = False
            result.truncation = cap_note
        return result
    executor = ParallelExecutor(
        convergence_shard, jobs=jobs, timeout=task_timeout
    )
    outcomes = executor.map(tasks)
    raise_failures(outcomes)
    merged = merge_model_check_results(
        outcomes, property_name=_CONVERGENCE_PROPERTY
    )
    if _cut_at_five_counterexamples(merged):
        return merged
    if capped:
        merged.complete = False
        merged.truncation = (
            f"{merged.truncation}; {cap_note}" if merged.truncation else cap_note
        )
    return merged


def _cut_at_five_counterexamples(merged: ModelCheckResult) -> bool:
    """Re-apply the serial five-counterexample stop to a merged sweep.

    Counterexamples arrive in enumeration order (shards merge in range
    order); the serial sweep stops after the first *configuration* whose
    counterexamples bring the running total to five or more, so the cut
    lands on a configuration boundary.  Returns True when the cut was
    applied (the merged result then matches the serial early stop,
    truncation message included).
    """
    items = merged.counterexamples
    count = 0
    i = 0
    while i < len(items):
        j = i + 1
        while j < len(items) and items[j].initial == items[i].initial:
            j += 1
        count += j - i
        if count >= 5:
            merged.counterexamples = items[:j]
            merged.complete = False
            merged.truncation = "stopped after 5 counterexamples"
            return True
        i = j
    return False


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
    every possible selection one step.  With the memo engine on (the
    default; ``REPRO_MODELCHECK_MEMO=0`` disables) guard and statement
    evaluation goes through the local-view memo of
    :class:`~repro.verification.model_check.ModelCheckMemo`; the
    ``(configuration, selection)`` pairs of this sweep never recur, so
    it runs without a transition memo.
    Counterexamples are confirmed by replaying the single offending step
    through the real simulator (``replay_counterexamples``).
    """
    if protocol is None:
        protocol = SnapPif.for_network(network, root)
    k = protocol.constants
    memo = settings.resolve("memo", memo)
    validate_memo = settings.resolve("validate_memo", validate_memo)
    engine = (
        ModelCheckMemo(protocol, network, capacity=None, validate=validate_memo)
        if memo
        else None
    )
    result = ModelCheckResult(property_name="closure of normal configurations")
    stats = ModelCheckStats(memo_enabled=engine is not None)
    result.stats = stats

    def emit(config: Configuration, step: tuple, bad: set[int]) -> None:
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
        result.counterexamples.append(counterexample)

    start = time.perf_counter()
    try:
        for config in enumerate_all_configurations(network, k):
            if not defs.is_normal_configuration(config, network, k):
                continue
            if (
                max_configurations is not None
                and result.configurations_checked >= max_configurations
            ):
                result.complete = False
                result.truncation = (
                    f"max_configurations={max_configurations} reached"
                )
                break
            result.configurations_checked += 1
            if engine is not None:
                config = engine.interner.intern(config)
                enabled = engine.enabled_map(config)
                for selection, step in _selections(enabled):
                    result.transitions_explored += 1
                    after, _dirty, _joins, _joins_key = engine.transition(
                        config, selection, step
                    )
                    bad = defs.abnormal_nodes(after, network, k)
                    if bad:
                        emit(config, step, bad)
                        if len(result.counterexamples) >= 5:
                            return result
            else:
                # One evaluation cache per configuration: the guard pass
                # and all of the exhaustive daemon's selections execute
                # against it.
                cache: dict = {}
                enabled = protocol.enabled_map(config, network, cache=cache)
                for selection, step in _selections(enabled):
                    result.transitions_explored += 1
                    after = apply_selection(
                        protocol, network, config, selection, cache=cache
                    )
                    bad = defs.abnormal_nodes(after, network, k)
                    if bad:
                        emit(config, step, bad)
                        if len(result.counterexamples) >= 5:
                            return result
    finally:
        stats.elapsed_seconds = time.perf_counter() - start
        stats.states_per_second = (
            result.transitions_explored / stats.elapsed_seconds
            if stats.elapsed_seconds > 0
            else 0.0
        )
        if engine is not None:
            engine.fill_stats(stats)
        _publish_check(result)
    return result


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
