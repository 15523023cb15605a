"""The deterministic process-pool executor.

Design constraints (why this looks the way it does):

* **One serial path.**  At ``jobs <= 1`` :meth:`ParallelExecutor.map`
  is a plain in-process loop: it calls the worker directly, a worker
  exception propagates as it would from any loop, and the worker's
  metrics land in the active telemetry registry.  There is no pool,
  no pickling, no retry and no per-task capture — the pool is a pure
  throughput knob layered over that loop.
* **Determinism.**  Task results are returned in *submission order*
  regardless of worker scheduling, so any aggregation over them is
  automatically order-stable.  Work partitioning (:func:`chunk_ranges`)
  depends only on the workload size and the shard count — never on the
  worker count — so the same sweep sharded for 2 or 4 workers
  produces bit-identical shard results and therefore bit-identical
  merged results.
* **Early stop.**  ``map(tasks, stop=...)`` ends where the serial loop
  ends: after the first result on which ``stop`` holds for the
  submission-order prefix.  The pool keeps at most ``jobs`` tasks in
  flight, advances the contiguous completed prefix, and submits nothing
  once ``stop`` holds; results and telemetry of tasks past the cut are
  dropped.
* **Pickle boundary.**  Worker functions must be module-level callables
  (pickled by reference); payloads must be plain picklable values.
  Workers build their own warm state (protocol instances, memo engines)
  locally — nothing mutable crosses the boundary in either direction.
* **Failure containment.**  In the pool, worker exceptions and per-task
  timeouts are caught *inside* the worker and shipped back as data, so
  one bad grid cell can neither poison the pool nor lose its identity.
  A failed task is retried once; a second failure is recorded as a
  :class:`TaskFailure` carrying the task key (the grid-cell identity)
  and the worker-side traceback.

The worker count resolves through the settings table
(:mod:`repro.settings`): an explicit ``jobs=`` argument wins, else the
``REPRO_JOBS`` environment variable, else ``None`` — the serial loop.
"""

from __future__ import annotations

import math
import signal
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import settings
from repro import telemetry as _telemetry
from repro.errors import ParallelError

__all__ = [
    "ParallelError",
    "TaskFailure",
    "ParallelExecutor",
    "chunk_ranges",
]


def chunk_ranges(total: int, chunks: int) -> list[tuple[int, int]]:
    """Partition ``range(total)`` into ``chunks`` contiguous half-open ranges.

    The partition depends only on ``(total, chunks)`` — never on the
    worker count — and the union of the returned ranges is exactly
    ``range(total)``, each index in exactly one range.  Sizes differ by
    at most one (the first ``total % chunks`` ranges are one longer).
    Empty ranges are dropped, so fewer than ``chunks`` ranges come back
    when ``total < chunks``.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    base, extra = divmod(total, chunks)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            break
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class TaskFailure:
    """A task that failed permanently, with its identity attached.

    ``key`` is the caller-supplied task identity (e.g. the campaign
    grid cell ``(topology, scenario, daemon, seed)``); ``kind`` is
    ``"error"`` or ``"timeout"``; ``traceback`` carries the worker-side
    traceback text for ``"error"`` failures.
    """

    key: object
    kind: str
    message: str
    attempts: int
    traceback: str = ""

    def raise_(self) -> None:
        detail = f"\n{self.traceback}" if self.traceback else ""
        raise ParallelError(
            f"task {self.key!r} failed permanently after "
            f"{self.attempts} attempt(s) ({self.kind}): "
            f"{self.message}{detail}"
        )


class _TaskTimeout(Exception):
    """Internal: raised by the worker-side SIGALRM handler."""


def _call_guarded(
    fn: Callable, key: object, payload: object, timeout: float | None
) -> tuple[str, object, str, float, object]:
    """Run one pool task, converting every failure into data.

    Returns ``(status, value, traceback_text, seconds, snapshot)`` with
    status ``"ok"``, ``"timeout"`` or ``"error"``.  The per-task timeout
    is enforced with ``SIGALRM`` (worker processes execute tasks on
    their main thread), so a wedged task interrupts itself instead of
    blocking the pool.

    With telemetry enabled the task runs under
    :func:`repro.telemetry.capture` — a fresh registry scoped to this
    task — and the resulting :class:`~repro.telemetry.MetricsSnapshot`
    travels back in the last slot (it is plain picklable data).  Worker
    processes inherit the parent's enabled flag at fork, so workers
    record even though only the parent owns the JSONL sink.  Failed
    attempts ship ``snapshot=None`` — a retried task contributes its
    metrics exactly once, from the attempt whose result is kept.
    """
    previous = None
    if timeout is not None:

        def _on_alarm(signum, frame):  # pragma: no cover - signal path
            raise _TaskTimeout()

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(max(1, math.ceil(timeout)))
    try:
        if _telemetry.enabled:
            start = time.perf_counter()
            with _telemetry.capture() as task_registry:
                value = fn(payload)
                snapshot = task_registry.snapshot()
            return "ok", value, "", time.perf_counter() - start, snapshot
        return "ok", fn(payload), "", 0.0, None
    except _TaskTimeout:
        return (
            "timeout",
            f"exceeded the per-task timeout of {timeout}s",
            "",
            0.0,
            None,
        )
    except Exception as exc:
        return (
            "error",
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
            0.0,
            None,
        )
    finally:
        if timeout is not None:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class ParallelExecutor:
    """Run independent tasks across a process pool, deterministically.

    Parameters
    ----------
    worker:
        A module-level callable ``payload -> result``.  With ``jobs>1``
        it is pickled by reference into the pool workers, so it must be
        importable from the worker process (see
        :mod:`repro.parallel.workers` for the wired ones).
    jobs:
        Worker-count knob (the ``jobs`` row of :mod:`repro.settings`);
        ``None`` here resolves the ``REPRO_JOBS`` environment variable and
        defaults to ``1`` (the in-process serial loop).
    timeout:
        Optional per-task wall-clock timeout in seconds, enforced
        worker-side via ``SIGALRM`` (pool only — the serial loop never
        alarms, since that would clobber the caller's signal handling).
    retries:
        How many times a failed (errored or timed-out) pool task is
        retried before being recorded as a :class:`TaskFailure`.  The
        default is the retry-once-then-record contract.
    """

    def __init__(
        self,
        worker: Callable,
        *,
        jobs: int | None = None,
        timeout: float | None = None,
        retries: int = 1,
    ) -> None:
        self.worker = worker
        self.jobs = settings.resolve("jobs", jobs) or 1
        self.timeout = timeout
        if retries < 0:
            raise ParallelError(f"retries must be >= 0, got {retries}")
        self.retries = retries

    # ------------------------------------------------------------------
    def map(
        self,
        tasks: Sequence[tuple[object, object]],
        stop: Callable[[list], bool] | None = None,
    ) -> list[object]:
        """Execute ``(key, payload)`` tasks; results in submission order.

        ``stop``, when given, is called with the list of results so far
        each time it grows by one; once it returns True no further task
        is run and the returned list ends with that result.

        At ``jobs <= 1`` the tasks run in a plain in-process loop and a
        worker exception propagates.  In the pool, each slot holds the
        worker's return value for the task at the same index, or a
        :class:`TaskFailure` when the task failed permanently; use
        :func:`raise_failures` to turn any failure into a
        :class:`ParallelError`.
        """
        if self.jobs > 1:
            return self._run_pool(list(tasks), stop)
        from repro.parallel.workers import _PROTOCOL_CACHE

        results: list[object] = []
        try:
            for _key, payload in tasks:
                results.append(self.worker(payload))
                if stop is not None and stop(results):
                    break
        finally:
            # Workers cache protocols per process; in the parent the
            # cache must not outlive the call that filled it.
            _PROTOCOL_CACHE.clear()
        self._absorb(results, retries=0)
        return results

    # ------------------------------------------------------------------
    def _absorb(
        self,
        results: list[object],
        *,
        retries: int,
        snapshots: Sequence[object] = (),
        durations: Sequence[float] = (),
    ) -> None:
        """Merge task snapshots and record executor metrics (parent side).

        Snapshots merge in submission order — the same order for any
        worker count, so the aggregated registry is a deterministic
        function of the workload alone.  The serial loop has no
        snapshots (its tasks record straight into the active registry)
        but counts its tasks the same way.  Wall-clock task durations
        land in the ``parallel.task.seconds`` histogram, which the
        deterministic snapshot view excludes.
        """
        if not _telemetry.enabled:
            return
        reg = _telemetry.registry
        for snapshot in snapshots:
            if snapshot is not None:
                reg.merge_snapshot(snapshot)
        reg.inc("parallel.tasks", len(results))
        reg.inc("parallel.retries", retries)
        for value in results:
            if isinstance(value, TaskFailure):
                reg.inc("parallel.failures")
                if value.kind == "timeout":
                    reg.inc("parallel.timeouts")
        for seconds in durations:
            if seconds > 0.0:
                reg.observe(
                    "parallel.task.seconds", seconds, _telemetry.TIME_BOUNDS
                )

    def _run_pool(
        self,
        tasks: list[tuple[object, object]],
        stop: Callable[[list], bool] | None,
    ) -> list[object]:
        total = len(tasks)
        if not total:
            return []
        attempts = [0] * total
        #: index -> (status, value, traceback, seconds, snapshot) for
        #: finished tasks not yet part of the contiguous prefix.
        finished: dict[int, tuple] = {}
        results: list[object] = []
        snapshots: list[object] = []
        durations: list[float] = []
        try:
            context = __import__("multiprocessing").get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = None
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, total), mp_context=context
        ) as pool:
            pending: dict = {}

            def submit(index: int) -> None:
                key, payload = tasks[index]
                attempts[index] += 1
                future = pool.submit(
                    _call_guarded, self.worker, key, payload, self.timeout
                )
                pending[future] = index

            submitted = 0
            stopped = False
            while not stopped:
                while submitted < total and len(pending) < self.jobs:
                    submit(submitted)
                    submitted += 1
                if not pending:
                    break
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        # The worker process died (OOM-kill, hard crash).
                        # The pool is unusable from here on; every task
                        # without a result is recorded as failed.
                        broken = (
                            "error",
                            "worker process died (broken pool)",
                            "",
                            0.0,
                            None,
                        )
                        for other in range(len(results), total):
                            finished.setdefault(other, broken)
                        pending.clear()
                        submitted = total
                        break
                    if outcome[0] != "ok" and attempts[index] <= self.retries:
                        submit(index)
                    else:
                        finished[index] = outcome
                # Advance the contiguous prefix, stopping at the cut.
                while not stopped and len(results) in finished:
                    index = len(results)
                    status, value, tb, seconds, snapshot = finished.pop(index)
                    if status != "ok":
                        value = TaskFailure(
                            key=tasks[index][0],
                            kind=status,
                            message=str(value),
                            attempts=attempts[index],
                            traceback=tb,
                        )
                    results.append(value)
                    snapshots.append(snapshot)
                    durations.append(seconds)
                    stopped = stop is not None and stop(results)
            # Tasks past the cut that have not started never run; the
            # ones already running finish inside the pool's shutdown.
            for future in pending:
                future.cancel()
        self._absorb(
            results,
            retries=sum(max(0, n - 1) for n in attempts[: len(results)]),
            snapshots=snapshots,
            durations=durations,
        )
        return results


def raise_failures(results: Sequence[object]) -> None:
    """Raise :class:`ParallelError` on the first :class:`TaskFailure`."""
    for item in results:
        if isinstance(item, TaskFailure):
            item.raise_()
