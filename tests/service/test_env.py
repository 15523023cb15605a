"""REPRO_SERVICE_* knob resolution: precedence and named-value errors.

The three service knobs are rows of :mod:`repro.settings`
(``tests/test_settings.py`` covers every row the same way); these cases
pin them from the service's side.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro import settings
from repro.parallel.executor import ParallelError

KNOBS = [
    (partial(settings.resolve, name), settings.row(name).env, default)
    for name, default in (
        ("batch_window", 32),
        ("max_in_flight", 4),
        ("queue_bound", 1024),
    )
]
KNOB_IDS = ["batch-window", "max-in-flight", "queue-bound"]


@pytest.mark.parametrize("resolve,env,default", KNOBS, ids=KNOB_IDS)
class TestResolution:
    def test_default_when_unset(self, resolve, env, default, monkeypatch):
        monkeypatch.delenv(env, raising=False)
        assert resolve() == default

    def test_explicit_argument_wins(self, resolve, env, default, monkeypatch):
        monkeypatch.setenv(env, "7")
        assert resolve(3) == 3

    def test_env_var_used_when_no_argument(
        self, resolve, env, default, monkeypatch
    ):
        monkeypatch.setenv(env, "7")
        assert resolve() == 7

    def test_empty_env_falls_back_to_default(
        self, resolve, env, default, monkeypatch
    ):
        monkeypatch.setenv(env, "  ")
        assert resolve() == default


@pytest.mark.parametrize("resolve,env,default", KNOBS, ids=KNOB_IDS)
@pytest.mark.parametrize("bad", [0, -1, -100])
class TestRejectsBadArguments:
    def test_rejects(self, resolve, env, default, bad):
        with pytest.raises(ParallelError) as exc:
            resolve(bad)
        assert str(bad) in str(exc.value)


@pytest.mark.parametrize("resolve,env,default", KNOBS, ids=KNOB_IDS)
class TestRejectsGarbage:
    def test_bool_argument(self, resolve, env, default):
        with pytest.raises(ParallelError):
            resolve(True)

    def test_non_integer_argument(self, resolve, env, default):
        with pytest.raises(ParallelError):
            resolve(2.5)

    @pytest.mark.parametrize("raw", ["0", "-3", "garbage", "1.5"])
    def test_bad_env_value_names_the_variable(
        self, resolve, env, default, monkeypatch, raw
    ):
        monkeypatch.setenv(env, raw)
        with pytest.raises(ParallelError) as exc:
            resolve()
        # The same named-value discipline as every row: the error says
        # which variable held the offending value.
        assert env in str(exc.value)
        assert raw in str(exc.value)
