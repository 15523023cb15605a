"""Knob hardening shared by every worker-count and engine switch.

Worker-count knobs go through ``resolve_worker_count`` (the precedence
and named-value validation ``resolve_jobs`` and the wave service's
knobs use), so bad values must fail loudly with the offending value in
the error, and an explicit argument must beat the environment.  Boolean
switches follow the ``REPRO_ENGINE_VALIDATE`` convention: any value
other than empty or ``0`` turns them on.  These cases once guarded the
region-parallel daemon's knobs (DESIGN.md §14); they now pin the shared
resolvers that remain.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.cli import build_parser
from repro.parallel.executor import (
    ParallelError,
    resolve_jobs,
    resolve_worker_count,
)
from repro.runtime.simulator import resolve_engine

#: A sample knob: the resolver takes its variable and name as inputs.
THREADS_ENV = "REPRO_SAMPLE_THREADS"
resolve_threads = partial(
    resolve_worker_count, env_var=THREADS_ENV, name="sample threads"
)


class TestRegionThreads:
    def test_explicit_value_wins_over_environment(self, monkeypatch) -> None:
        monkeypatch.setenv(THREADS_ENV, "7")
        assert resolve_threads(3) == 3

    def test_environment_fallback(self, monkeypatch) -> None:
        monkeypatch.setenv(THREADS_ENV, "5")
        assert resolve_threads(None) == 5

    @pytest.mark.parametrize("bad", ["0", "-2", "two", "1.5", " "])
    def test_garbage_environment_names_the_value(
        self, monkeypatch, bad
    ) -> None:
        monkeypatch.setenv(THREADS_ENV, bad)
        if not bad.strip():
            # Whitespace-only means unset, like REPRO_JOBS.
            assert resolve_threads(None) is None
            return
        with pytest.raises(ParallelError) as err:
            resolve_threads(None)
        assert str(err.value) == (
            f"{THREADS_ENV} must be a positive integer, got {bad!r}"
        )

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0, "4"])
    def test_bad_explicit_value_is_rejected(self, bad) -> None:
        with pytest.raises(ParallelError) as err:
            resolve_threads(bad)
        assert str(err.value).startswith("sample threads must be ")
        assert str(bad) in str(err.value)

    def test_shares_resolve_jobs_precedence_helper(self, monkeypatch) -> None:
        # resolve_jobs is the same helper under its own name: no
        # duplicated precedence logic.
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert resolve_jobs() == resolve_worker_count(
            None, env_var="REPRO_JOBS", name="jobs"
        )
        monkeypatch.setenv(THREADS_ENV, "6")
        assert resolve_threads(None) == 6

    def test_jobs_error_wording_unchanged(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ParallelError, match="REPRO_JOBS must be a positive integer, got 'zero'"):
            resolve_jobs()
        with pytest.raises(ParallelError, match="jobs must be >= 1, got 0"):
            resolve_jobs(0)


class TestRegionParallel:
    """The boolean convention, on the engine-validation switch."""

    def test_default_off(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_ENGINE_VALIDATE", raising=False)
        assert resolve_engine()[1] is False

    @pytest.mark.parametrize("raw,expect", [("", False), ("0", False), ("1", True), ("yes", True)])
    def test_environment_truthiness(self, monkeypatch, raw, expect) -> None:
        monkeypatch.setenv("REPRO_ENGINE_VALIDATE", raw)
        assert resolve_engine()[1] is expect

    def test_explicit_wins(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_ENGINE_VALIDATE", "1")
        assert resolve_engine(validate_engine=False)[1] is False
        monkeypatch.setenv("REPRO_ENGINE_VALIDATE", "0")
        assert resolve_engine(validate_engine=True)[1] is True


class TestCliFlags:
    def test_flags_default_to_unset(self) -> None:
        # Unset flags leave the REPRO_ENGINE / REPRO_JOBS knobs in charge.
        assert build_parser().parse_args(["demo"]).engine is None
        assert build_parser().parse_args(["verify"]).jobs is None
