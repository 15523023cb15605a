"""Round accounting per the paper's definition (Dolev, Israeli, Moran).

Given a computation ``e``, the *first round* of ``e`` is the minimal
prefix containing the execution of one action — a protocol action or the
*disable action* — of every processor continuously enabled from the first
configuration.  The second round is the first round of the remaining
suffix, and so on.  Rounds capture the execution rate of the slowest
processor and are the time unit of every bound proved in the paper.

:class:`RoundCounter` implements this incrementally: it tracks the set
of processors that were enabled when the current round began and have
been *continuously enabled and inactive* since.  A processor leaves the
set by executing any action, or by becoming disabled without executing
(the disable action).  The round completes when the set empties.

Both ways out happen only at processors that executed or whose enabled
status changed, so a step is accounted in O(|executed ∪ changed|) when
the caller names the changed processors; the set is refilled from the
enabled set only when a round ends.  Ages are kept as each streak's
start step, so a processor that simply stays enabled costs nothing
(DESIGN.md §6.1).
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Mapping

__all__ = ["RoundCounter"]


class _Ages(Mapping[int, int]):
    """Read-only ``{processor: consecutive steps enabled}`` over streak starts."""

    __slots__ = ("_counter",)

    def __init__(self, counter: "RoundCounter") -> None:
        self._counter = counter

    def __getitem__(self, p: int) -> int:
        counter = self._counter
        return counter._step - counter._start[p] + 1

    def get(self, p: int, default=None):
        counter = self._counter
        start = counter._start.get(p)
        return default if start is None else counter._step - start + 1

    def __contains__(self, p: object) -> bool:
        return p in self._counter._start

    def __len__(self) -> int:
        return len(self._counter._start)

    def __iter__(self) -> Iterator[int]:
        return iter(self._counter._start)


class RoundCounter:
    """Incremental round counter for a single computation.

    Usage: construct with the initially enabled set, then call
    :meth:`observe_step` once per computation step with the processors
    that executed an action, the set enabled in the *next*
    configuration and, for O(|changed|) accounting, the processors whose
    enabled status may have changed during the step.
    """

    __slots__ = ("_pending", "_completed", "_start", "_step", "_excluded", "_ages")

    def __init__(
        self,
        initially_enabled: Iterable[int],
        *,
        excluded: Iterable[int] = (),
    ) -> None:
        self._excluded: frozenset[int] = frozenset(excluded)
        self._pending: set[int] = set(initially_enabled) - self._excluded
        self._completed = 0
        #: Steps observed so far.
        self._step = 0
        # The step each enabled processor's current streak began at;
        # its age is the streak length, shared with daemons for
        # fairness decisions.  Mutated in place: ``_ages`` reads it.
        self._start: dict[int, int] = dict.fromkeys(self._pending, 0)
        self._ages = _Ages(self)

    @property
    def completed_rounds(self) -> int:
        """Number of fully completed rounds so far."""
        return self._completed

    @property
    def pending(self) -> frozenset[int]:
        """Processors still owed an action in the current round."""
        return frozenset(self._pending)

    @property
    def ages(self) -> Mapping[int, int]:
        """Consecutive-steps-enabled per currently enabled processor.

        A live read-only view: it follows the counter without copies.
        """
        return self._ages

    @property
    def excluded(self) -> frozenset[int]:
        """Processors excluded from round accounting (crashed)."""
        return self._excluded

    def restart(self, enabled: Iterable[int]) -> None:
        """Restart the round in progress from a new enabled set.

        Used when a transient fault replaces the configuration mid-run:
        the completed-round count is preserved, the interrupted round's
        bookkeeping is discarded.  The excluded (crashed) set survives
        the restart — a memory fault does not revive a dead processor.
        """
        excluded = self._excluded
        self._pending = {p for p in enabled if p not in excluded}
        self._start.clear()
        self._start.update(dict.fromkeys(self._pending, self._step))

    def set_excluded(
        self, excluded: Iterable[int], enabled_now: Iterable[int]
    ) -> int:
        """Replace the excluded set mid-run (crash / recovery).

        A crashed processor is no longer *continuously enabled* — its
        pending obligation is dropped exactly as if it had executed the
        disable action, and its enabled-age streak resets.  A recovered
        processor that is enabled re-enters the age table at 1 but joins
        round bookkeeping only from the *next* round (it was not
        continuously enabled from the current round's start).

        Returns the number of rounds completed by this change (1 when
        dropping crashed processors emptied the current round's pending
        set, else 0).
        """
        excluded = frozenset(excluded)
        newly = excluded - self._excluded
        self._excluded = excluded

        start = self._start
        emptied = bool(self._pending) and not (self._pending - newly)
        self._pending -= newly
        for p in newly:
            start.pop(p, None)
        for p in enabled_now:
            if p not in excluded and p not in start:
                start[p] = self._step

        completed = 0
        if not self._pending:
            if emptied:
                completed = 1
                self._completed += 1
            self._pending = {
                p for p in enabled_now if p not in excluded
            }
        return completed

    def observe_step(
        self,
        executed: Iterable[int],
        enabled_after: AbstractSet[int],
        changed: Iterable[int] | None = None,
    ) -> int:
        """Account for one computation step.

        Parameters
        ----------
        executed:
            Processors that executed a protocol action in this step.
        enabled_after:
            Processors enabled in the configuration *after* the step.
        changed:
            Processors whose enabled status may have changed during the
            step (a superset is fine).  ``None`` means any processor may
            have, and every tracked or enabled processor is examined.

        Returns the number of rounds completed by this step (0 or 1).
        """
        self._step += 1
        step = self._step
        start = self._start
        excluded = self._excluded
        executed = set(executed)
        if changed is None:
            touched = executed.union(start, enabled_after)
        else:
            touched = executed.union(changed)
        # Ages: executing restarts a streak, becoming disabled ends it.
        # Excluded (crashed) processors carry no age at all — daemons
        # must not count them against fairness.
        live = touched & enabled_after
        if excluded:
            live -= excluded
        dead = touched - live
        for p in dead:
            start.pop(p, None)
        fresh = live.difference(start)
        fresh |= live & executed
        start.update(dict.fromkeys(fresh, step))
        # Round bookkeeping: drop processors that acted, or that were
        # neutralized (disable action = enabled before, not after, no
        # action executed).
        pending = self._pending
        pending.difference_update(executed, dead)
        if pending:
            return 0
        self._completed += 1
        if excluded:
            pending.update(p for p in enabled_after if p not in excluded)
        else:
            pending.update(enabled_after)
        return 1
