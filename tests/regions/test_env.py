"""Knob hardening shared by every worker-count and engine switch.

Every knob is a row of :mod:`repro.settings` and resolves through
:meth:`~repro.settings.Setting.resolve`, so bad values must fail loudly
with the offending value in the error, and an explicit argument must
beat the environment.  Boolean switches follow the one boolean grammar
(``1/true/yes/on``, ``0/false/no/off``).  These cases once guarded the
region-parallel daemon's knobs (DESIGN.md §14); they now pin the shared
resolution on a sample row and on the rows that remain.
"""

from __future__ import annotations

import pytest

from repro import settings
from repro.cli import build_parser
from repro.parallel.executor import ParallelError

#: A sample worker-count row, resolved like every row of the table.
THREADS_ENV = "REPRO_SAMPLE_THREADS"
SAMPLE = settings.Setting(
    "sample threads", THREADS_ENV, "int", None, ParallelError, "sample knob"
)
resolve_threads = SAMPLE.resolve


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
            f"sample threads must be a positive integer, got {bad!r} "
            f"(environment variable {THREADS_ENV})"
        )

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0, "4"])
    def test_bad_explicit_value_is_rejected(self, bad) -> None:
        with pytest.raises(ParallelError) as err:
            resolve_threads(bad)
        assert str(err.value).startswith("sample threads must be ")
        assert str(bad) in str(err.value)

    def test_shares_resolve_jobs_precedence_helper(self, monkeypatch) -> None:
        # The jobs row and the sample row resolve through the same
        # method: no duplicated precedence logic.
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert settings.resolve("jobs") == settings.row("jobs").resolve() == 6
        monkeypatch.setenv(THREADS_ENV, "6")
        assert resolve_threads(None) == 6

    def test_jobs_error_wording_unchanged(self, monkeypatch) -> None:
        # The one knob-error format (docs/API.md «Settings»).
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ParallelError) as err:
            settings.resolve("jobs")
        assert str(err.value) == (
            "jobs must be a positive integer, got 'zero' "
            "(environment variable REPRO_JOBS)"
        )
        with pytest.raises(ParallelError) as err:
            settings.resolve("jobs", 0)
        assert str(err.value) == (
            "jobs must be a positive integer, got 0 (argument)"
        )


class TestRegionParallel:
    """The boolean grammar, on the engine-validation switch."""

    def test_default_off(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_ENGINE_VALIDATE", raising=False)
        assert settings.resolve("validate_engine") is False

    @pytest.mark.parametrize("raw,expect", [("", False), ("0", False), ("1", True), ("yes", True)])
    def test_environment_truthiness(self, monkeypatch, raw, expect) -> None:
        monkeypatch.setenv("REPRO_ENGINE_VALIDATE", raw)
        assert settings.resolve("validate_engine") is expect

    def test_explicit_wins(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_ENGINE_VALIDATE", "1")
        assert settings.resolve("validate_engine", False) is False
        monkeypatch.setenv("REPRO_ENGINE_VALIDATE", "0")
        assert settings.resolve("validate_engine", True) is True


class TestCliFlags:
    def test_flags_default_to_unset(self) -> None:
        # Unset flags leave the REPRO_ENGINE / REPRO_JOBS knobs in charge.
        assert build_parser().parse_args(["demo"]).engine is None
        assert build_parser().parse_args(["verify"]).jobs is None
