"""Unit tests for the deterministic executor (repro.parallel.executor)."""

from __future__ import annotations

import os

from functools import partial

import pytest

from repro import settings
from repro.parallel.executor import (
    ParallelError,
    ParallelExecutor,
    TaskFailure,
    chunk_ranges,
    raise_failures,
)

#: The ``jobs`` row of the settings table.
resolve_jobs = partial(settings.resolve, "jobs")


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


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert resolve_jobs(None) == 2
        assert settings.row("jobs").lookup() == (2, "env")

    def test_unset_means_none(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) is None
        # Whitespace-only means unset, like an empty value.
        monkeypatch.setenv("REPRO_JOBS", " ")
        assert resolve_jobs(None) is None

    def test_invalid_values_raise(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ParallelError):
            resolve_jobs(None)
        with pytest.raises(ParallelError):
            resolve_jobs(0)

    def test_zero_rejected_with_value_in_message(self) -> None:
        with pytest.raises(
            ParallelError,
            match=r"^jobs must be a positive integer, got 0 \(argument\)$",
        ):
            resolve_jobs(0)

    def test_negative_rejected_with_value_in_message(self) -> None:
        with pytest.raises(ParallelError, match="got -3"):
            resolve_jobs(-3)

    def test_non_integer_rejected(self) -> None:
        with pytest.raises(ParallelError, match="2.5"):
            resolve_jobs(2.5)  # type: ignore[arg-type]
        with pytest.raises(ParallelError, match="2.0"):
            resolve_jobs(2.0)  # type: ignore[arg-type]
        # bool is an int subclass but never a worker count; the error
        # names the knob, the value and its source.
        for flag in (True, False):
            with pytest.raises(ParallelError) as err:
                resolve_jobs(flag)  # type: ignore[arg-type]
            assert str(err.value) == (
                f"jobs must be a positive integer, got {flag!r} (argument)"
            )
        with pytest.raises(ParallelError, match="'4'"):
            resolve_jobs("4")  # type: ignore[arg-type]

    def test_garbage_env_names_variable_and_value(self, monkeypatch) -> None:
        for raw in ("lots", "two", "1.5", "1e3"):
            monkeypatch.setenv("REPRO_JOBS", raw)
            with pytest.raises(ParallelError) as err:
                resolve_jobs(None)
            assert str(err.value) == (
                f"jobs must be a positive integer, got {raw!r} "
                "(environment variable REPRO_JOBS)"
            )

    def test_nonpositive_env_names_variable_and_value(
        self, monkeypatch
    ) -> None:
        for raw in ("0", "-2"):
            monkeypatch.setenv("REPRO_JOBS", raw)
            with pytest.raises(ParallelError, match=f"{raw!r}.*REPRO_JOBS"):
                resolve_jobs(None)


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

    def test_inline_failures_match_pool_shape(self) -> None:
        (failure,) = ParallelExecutor(_boom, jobs=1).map([("k", 1)])
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "error" and failure.key == "k"

    def test_rejects_negative_retries(self) -> None:
        with pytest.raises(ParallelError):
            ParallelExecutor(_double, retries=-1)
