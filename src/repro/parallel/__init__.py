"""Deterministic process-pool parallelism for the heavy sweeps.

Every heavy workload in the repository — chaos campaigns, the
synchronous convergence/liveness sweeps, the benchmark grids — is
embarrassingly parallel per grid cell or per enumeration shard.  This
package provides the one executor they all share.  (The snap-safety
sweep stays serial: its memo is shared across all initiations, and
sharding it lost more than the pool gained.)

* :class:`~repro.parallel.executor.ParallelExecutor` — deterministic
  work partitioning over :class:`concurrent.futures.ProcessPoolExecutor`
  with stable, order-independent result merging (results come back in
  task-submission order no matter which worker finished first), per-task
  timeouts with retry-once-then-record semantics, and an early stop
  that ends where the serial loop ends; ``jobs <= 1`` *is* the serial
  loop (in-process, no pool);
* :mod:`~repro.parallel.workers` — the top-level (hence picklable)
  worker functions for the wired layers, each owning its *worker-local*
  warm state (protocol instances, memo engines); nothing mutable ever
  crosses the pickle boundary.

The worker count is the ``jobs`` row of :mod:`repro.settings`: explicit
``jobs=`` argument, else the ``REPRO_JOBS`` environment variable, else
``None`` (the serial code path, as is ``jobs=1``).

The non-negotiable contract (tested by ``tests/parallel/``): for every
wired entry point, parallel and serial execution produce the same
verdicts, counterexamples, tapes and coverage counters for the same
seeds, early stops included — parallelism never changes *what* is
explored or reported, only *how fast*.
"""

from repro.parallel.executor import (
    ParallelExecutor,
    TaskFailure,
    chunk_ranges,
)

__all__ = [
    "ParallelExecutor",
    "TaskFailure",
    "chunk_ranges",
]
