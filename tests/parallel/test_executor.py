"""Unit tests for the deterministic executor (repro.parallel.executor)."""

from __future__ import annotations

import os

import pytest

from repro.parallel.executor import (
    ParallelError,
    ParallelExecutor,
    TaskFailure,
    chunk_ranges,
    raise_failures,
)

# Module-level workers: the pool pickles them by reference.
def _double(payload):
    return payload * 2


def _boom(payload):
    raise ValueError(f"boom on {payload}")


def _fail_until_marker(payload):
    """Fail on the first attempt, succeed once the marker file exists."""
    marker = payload["marker"]
    if os.path.exists(marker):
        return "recovered"
    with open(marker, "w", encoding="utf-8") as fh:
        fh.write("attempted\n")
    raise RuntimeError("first attempt fails")


class TestChunkRanges:
    def test_partitions_exactly(self) -> None:
        for total in (0, 1, 7, 8, 9, 100):
            for chunks in (1, 2, 3, 8, 16):
                ranges = chunk_ranges(total, chunks)
                covered = [i for start, stop in ranges for i in range(start, stop)]
                assert covered == list(range(total)), (total, chunks)

    def test_sizes_differ_by_at_most_one(self) -> None:
        sizes = [stop - start for start, stop in chunk_ranges(100, 8)]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_ranges_dropped(self) -> None:
        assert len(chunk_ranges(3, 8)) == 3
        assert chunk_ranges(0, 8) == []

    def test_independent_of_worker_count(self) -> None:
        # The partition is a function of (total, chunks) alone — this is
        # the determinism foundation: jobs never changes the shards.
        assert chunk_ranges(1000, 8) == chunk_ranges(1000, 8)

    def test_rejects_bad_args(self) -> None:
        with pytest.raises(ValueError):
            chunk_ranges(-1, 2)
        with pytest.raises(ValueError):
            chunk_ranges(10, 0)


class TestExecutor:
    def test_inline_results_in_submission_order(self) -> None:
        executor = ParallelExecutor(_double, jobs=1)
        assert executor.map([(i, i) for i in range(10)]) == [
            2 * i for i in range(10)
        ]

    def test_pool_results_in_submission_order(self) -> None:
        executor = ParallelExecutor(_double, jobs=2)
        assert executor.map([(i, i) for i in range(10)]) == [
            2 * i for i in range(10)
        ]

    def test_empty_task_list(self) -> None:
        assert ParallelExecutor(_double, jobs=2).map([]) == []

    def test_failure_carries_task_key(self) -> None:
        executor = ParallelExecutor(_boom, jobs=2)
        results = executor.map([(("cell", "identity", 3), "payload")])
        (failure,) = results
        assert isinstance(failure, TaskFailure)
        assert failure.key == ("cell", "identity", 3)
        assert failure.kind == "error"
        assert failure.attempts == 2  # retried once, then recorded
        assert "boom" in failure.message
        with pytest.raises(ParallelError) as err:
            raise_failures(results)
        assert "('cell', 'identity', 3)" in str(err.value)

    def test_retry_once_then_succeed(self, tmp_path) -> None:
        marker = tmp_path / "attempted"
        executor = ParallelExecutor(_fail_until_marker, jobs=2)
        results = executor.map([("k", {"marker": str(marker)})])
        assert results == ["recovered"]
        assert marker.exists()

    def test_serial_worker_errors_propagate(self) -> None:
        # jobs=1 is the plain serial loop: no retry, no failure-as-data.
        with pytest.raises(ValueError, match="boom on 1"):
            ParallelExecutor(_boom, jobs=1).map([("k", 1)])

    def test_rejects_negative_retries(self) -> None:
        with pytest.raises(ParallelError):
            ParallelExecutor(_double, retries=-1)


class TestStop:
    """``map(tasks, stop=...)`` ends where the serial loop ends."""

    @staticmethod
    def _past_two(results) -> bool:
        return results[-1] >= 4

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_results_end_at_the_cut(self, jobs) -> None:
        executor = ParallelExecutor(_double, jobs=jobs)
        tasks = [(i, i) for i in range(20)]
        assert executor.map(tasks, stop=self._past_two) == [0, 2, 4]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_cut_runs_everything(self, jobs) -> None:
        executor = ParallelExecutor(_double, jobs=jobs)
        tasks = [(i, i) for i in range(6)]
        assert executor.map(tasks, stop=lambda r: False) == [
            2 * i for i in range(6)
        ]

    def test_pool_does_not_run_the_whole_list(self, tmp_path) -> None:
        # At most ``jobs`` tasks are in flight, and none is submitted
        # once the completed prefix holds the stop.
        tasks = [(i, {"dir": str(tmp_path), "index": i}) for i in range(40)]
        results = ParallelExecutor(_touch, jobs=2).map(
            tasks, stop=lambda r: r[-1] == 2
        )
        assert results == [0, 1, 2]
        assert 3 <= len(list(tmp_path.iterdir())) < 40

    def test_serial_stop_runs_nothing_past_the_cut(self, tmp_path) -> None:
        tasks = [(i, {"dir": str(tmp_path), "index": i}) for i in range(10)]
        ParallelExecutor(_touch, jobs=1).map(tasks, stop=lambda r: r[-1] == 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1", "2"]


def _touch(payload):
    """Leave a file named after the task index; return the index."""
    index = payload["index"]
    with open(os.path.join(payload["dir"], str(index)), "w") as fh:
        fh.write("ran\n")
    return index
