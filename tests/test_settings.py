"""The settings table: one resolution rule and one grammar for every knob.

Every row resolves explicit argument > environment variable > default,
treats a blank environment value as unset, and rejects anything outside
its grammar with its own exception class through one formatter that
names the knob, the value and the source.  A check that pins one
subsystem's knobs (transport, service, worker count, engine validation)
is one parameter of a table-wide case here.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro import settings
from repro.cli import build_parser
from repro.errors import MessagingError, ParallelError, ReproError, ScheduleError

ROWS = settings.SETTINGS
IDS = [row.env for row in ROWS]

#: The exception class each row raised before the table existed, so
#: existing ``except`` clauses keep catching.
ERRORS = {
    "REPRO_ENGINE": ScheduleError,
    "REPRO_ENGINE_VALIDATE": ScheduleError,
    "REPRO_COLUMNAR_BACKEND": ReproError,
    "REPRO_JOBS": ParallelError,
    "REPRO_TELEMETRY": ReproError,
    "REPRO_MESSAGE_MODEL": MessagingError,
    "REPRO_CHANNEL_CAPACITY": MessagingError,
    "REPRO_MESSAGE_HEARTBEAT": MessagingError,
    "REPRO_SERVICE_BATCH_WINDOW": ParallelError,
    "REPRO_SERVICE_MAX_IN_FLIGHT": ParallelError,
    "REPRO_SERVICE_QUEUE_BOUND": ParallelError,
    "REPRO_MODELCHECK_MEMO": ReproError,
    "REPRO_MODELCHECK_VALIDATE": ReproError,
}


def good_values(row: settings.Setting) -> tuple[object, str, object]:
    """``(explicit, raw env, env value)``, both different from the default."""
    if row.type == "choice":
        other = [c for c in row.choices if c != row.default]
        return other[0], other[-1], other[-1]
    if row.type == "bool":
        return (not row.default), ("off" if row.default else "on"), (
            not row.default
        )
    if row.type == "int":
        return 3, "7", 7
    return "explicit.jsonl", "env.jsonl", "env.jsonl"


BAD_ARGUMENTS = {
    "choice": ["psychic", 1, b"full"],
    "bool": ["yes", 1, 0],
    "int": [0, -1, -100, True, False, 2.5, 2.0, "4"],
    "path": ["", "   ", 3],
}

BAD_ENV = {
    "choice": ["psychic", "0"],
    "bool": ["2", "maybe", "-1", "enabled"],
    "int": ["0", "-3", "garbage", "1.5", "1e3"],
    "path": [],  # any non-blank string names a trace file
}


def cases(table: dict) -> list:
    return [
        pytest.param(row, bad, id=f"{row.env}-{bad!r}")
        for row in ROWS
        for bad in table[row.type]
    ]


def test_the_table_has_the_thirteen_knobs() -> None:
    assert set(IDS) == set(ERRORS)
    assert len(IDS) == 13
    assert len({row.name for row in ROWS}) == 13


@pytest.mark.parametrize("row", ROWS, ids=IDS)
class TestResolution:
    def test_default_when_unset(self, row, monkeypatch) -> None:
        monkeypatch.delenv(row.env, raising=False)
        assert row.lookup() == (row.default, "default")
        assert settings.resolve(row.name) == row.default

    @pytest.mark.parametrize("blank", ["", "  ", "\t"])
    def test_blank_env_means_unset(self, row, blank, monkeypatch) -> None:
        monkeypatch.setenv(row.env, blank)
        assert row.lookup() == (row.default, "default")

    def test_env_value_used(self, row, monkeypatch) -> None:
        _, raw, parsed = good_values(row)
        monkeypatch.setenv(row.env, f" {raw} ")
        assert row.lookup() == (parsed, "env")

    def test_explicit_beats_env(self, row, monkeypatch) -> None:
        explicit, raw, _ = good_values(row)
        monkeypatch.setenv(row.env, raw)
        assert settings.resolve(row.name, explicit) == explicit
        # A bad environment value is never consulted when an explicit
        # argument is given.
        monkeypatch.setenv(row.env, "not-a-valid-value")
        assert row.lookup(explicit) == (explicit, "argument")

    def test_error_class_is_kept(self, row) -> None:
        assert row.error is ERRORS[row.env]
        assert issubclass(row.error, ReproError)


@pytest.mark.parametrize("row, bad", cases(BAD_ARGUMENTS))
def test_bad_argument_names_knob_value_and_source(row, bad) -> None:
    with pytest.raises(row.error) as err:
        settings.resolve(row.name, bad)
    message = str(err.value)
    assert message.startswith(f"{row.name} must be ")
    assert f"got {bad!r} (argument)" in message


@pytest.mark.parametrize("row, bad", cases(BAD_ENV))
def test_bad_env_names_knob_value_and_variable(row, bad, monkeypatch) -> None:
    monkeypatch.setenv(row.env, bad)
    with pytest.raises(row.error) as err:
        settings.resolve(row.name)
    assert str(err.value).startswith(f"{row.name} must be ")
    assert str(err.value).endswith(
        f"got {bad!r} (environment variable {row.env})"
    )


BOOL_ROWS = [row for row in ROWS if row.type == "bool"]


@pytest.mark.parametrize("row", BOOL_ROWS, ids=[r.env for r in BOOL_ROWS])
@pytest.mark.parametrize(
    "raw, expect",
    [(s, True) for s in ("1", "true", "yes", "on", "TRUE", "Yes", "oN")]
    + [(s, False) for s in ("0", "false", "no", "off", "FALSE", "No", "OFF")],
)
def test_boolean_grammar(row, raw, expect, monkeypatch) -> None:
    monkeypatch.setenv(row.env, raw)
    assert settings.resolve(row.name) is expect


CHOICE_ROWS = [row for row in ROWS if row.type == "choice"]


@pytest.mark.parametrize("row", CHOICE_ROWS, ids=[r.env for r in CHOICE_ROWS])
def test_every_choice_resolves(row, monkeypatch) -> None:
    for choice in row.choices:
        assert settings.resolve(row.name, choice) == choice
        monkeypatch.setenv(row.env, choice)
        assert settings.resolve(row.name) == choice


def test_choices_are_case_sensitive(monkeypatch) -> None:
    monkeypatch.setenv("REPRO_ENGINE", "FULL")
    with pytest.raises(ScheduleError):
        settings.resolve("engine")
    for row in CHOICE_ROWS:
        shouted = row.default.upper()
        with pytest.raises(row.error):
            settings.resolve(row.name, shouted)
        monkeypatch.setenv(row.env, shouted)
        with pytest.raises(row.error):
            settings.resolve(row.name)


def test_one_error_format(monkeypatch) -> None:
    with pytest.raises(ParallelError) as err:
        settings.resolve("jobs", 0)
    assert str(err.value) == "jobs must be a positive integer, got 0 (argument)"
    monkeypatch.setenv("REPRO_JOBS", "zero")
    with pytest.raises(ParallelError) as err:
        settings.resolve("jobs")
    assert str(err.value) == (
        "jobs must be a positive integer, got 'zero' "
        "(environment variable REPRO_JOBS)"
    )
    with pytest.raises(ScheduleError) as err:
        settings.resolve("engine", "psychic")
    assert str(err.value) == (
        "engine must be one of ['incremental', 'full', 'columnar'], "
        "got 'psychic' (argument)"
    )


class TestOverride:
    def test_sets_then_restores_unset(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with settings.override("engine", "full"):
            assert settings.resolve("engine") == "full"
        assert "REPRO_ENGINE" not in os.environ

    def test_restores_previous_value(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        with settings.override("engine", "full"):
            assert settings.resolve("engine") == "full"
        assert settings.resolve("engine") == "columnar"

    def test_rejects_bad_value_before_setting(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with pytest.raises(ScheduleError):
            with settings.override("engine", "psychic"):
                pass  # pragma: no cover
        assert settings.resolve("engine") == "incremental"


def test_cli_flags_leave_the_knobs_in_charge() -> None:
    # Unset --engine / --jobs flags defer to REPRO_ENGINE / REPRO_JOBS.
    assert build_parser().parse_args(["demo"]).engine is None
    assert build_parser().parse_args(["verify"]).jobs is None


def test_every_row_is_documented_in_the_settings_section() -> None:
    api = (Path(__file__).resolve().parents[1] / "docs" / "API.md").read_text(
        encoding="utf-8"
    )
    match = re.search(r"^## Settings\n(.*?)(?=^## )", api, re.M | re.S)
    assert match, "docs/API.md has no '## Settings' section"
    section = match.group(1)
    missing = [row.env for row in ROWS if f"`{row.env}`" not in section]
    assert not missing, missing
