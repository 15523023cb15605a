"""Transport knobs: garbage in, named error out.

The three transport knobs are rows of :mod:`repro.settings`
(``tests/test_settings.py`` covers every row the same way).  These
cases pin them from the transport's side: every invalid value raises
:class:`~repro.errors.MessagingError` naming the value and its source.
Parameter ids keep the names of the per-knob resolvers the rows
replaced.
"""

from __future__ import annotations

import pytest

from repro import settings
from repro.errors import MessagingError, ReproError
from repro.messaging import check_loss_rate


class TestMessageModel:
    def test_default(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_MESSAGE_MODEL", raising=False)
        assert settings.resolve("message_model") == "eager"

    def test_explicit_wins_over_env(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_MESSAGE_MODEL", "async")
        assert settings.resolve("message_model", "eager") == "eager"

    def test_env(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_MESSAGE_MODEL", "async")
        assert settings.resolve("message_model") == "async"

    @pytest.mark.parametrize("bad", ["sync", "EAGER", "0", "tcp"])
    def test_unknown_name_is_named_in_error(self, bad, monkeypatch) -> None:
        with pytest.raises(MessagingError) as excinfo:
            settings.resolve("message_model", bad)
        assert repr(bad) in str(excinfo.value)
        assert "argument" in str(excinfo.value)
        monkeypatch.setenv("REPRO_MESSAGE_MODEL", bad)
        with pytest.raises(MessagingError) as excinfo:
            settings.resolve("message_model")
        assert "REPRO_MESSAGE_MODEL" in str(excinfo.value)

    def test_all_models_resolve(self) -> None:
        for model in ("eager", "async"):
            assert settings.resolve("message_model", model) == model


CAPACITY = pytest.param("channel_capacity", id="resolve_channel_capacity")
HEARTBEAT = pytest.param("heartbeat", id="resolve_heartbeat")
KNOB_ENV = [
    pytest.param(
        "channel_capacity", "REPRO_CHANNEL_CAPACITY",
        id="resolve_channel_capacity-REPRO_CHANNEL_CAPACITY",
    ),
    pytest.param(
        "heartbeat", "REPRO_MESSAGE_HEARTBEAT",
        id="resolve_heartbeat-REPRO_MESSAGE_HEARTBEAT",
    ),
]


class TestPositiveIntKnobs:
    @pytest.mark.parametrize("knob", [CAPACITY, HEARTBEAT])
    @pytest.mark.parametrize("bad", [0, -1, -100, True, False, 2.5, "8"])
    def test_bad_explicit_rejected(self, knob, bad) -> None:
        with pytest.raises(MessagingError) as excinfo:
            settings.resolve(knob, bad)
        assert "argument" in str(excinfo.value)

    @pytest.mark.parametrize(
        "knob, env_var, default",
        [
            pytest.param(
                "channel_capacity", "REPRO_CHANNEL_CAPACITY", 8,
                id="resolve_channel_capacity-REPRO_CHANNEL_CAPACITY-8",
            ),
            pytest.param(
                "heartbeat", "REPRO_MESSAGE_HEARTBEAT", 4,
                id="resolve_heartbeat-REPRO_MESSAGE_HEARTBEAT-4",
            ),
        ],
    )
    def test_resolution_chain(self, knob, env_var, default, monkeypatch):
        monkeypatch.delenv(env_var, raising=False)
        assert settings.resolve(knob) == default
        monkeypatch.setenv(env_var, "17")
        assert settings.resolve(knob) == 17
        assert settings.resolve(knob, 3) == 3  # explicit beats environment

    @pytest.mark.parametrize("knob, env_var", KNOB_ENV)
    @pytest.mark.parametrize("bad", ["0", "-3", "eight", "1.5", "1e3"])
    def test_bad_env_rejected_with_source(
        self, knob, env_var, bad, monkeypatch
    ) -> None:
        monkeypatch.setenv(env_var, bad)
        with pytest.raises(MessagingError) as excinfo:
            settings.resolve(knob)
        assert env_var in str(excinfo.value)

    @pytest.mark.parametrize("knob, env_var", KNOB_ENV)
    def test_blank_env_falls_through_to_default(
        self, knob, env_var, monkeypatch
    ) -> None:
        monkeypatch.setenv(env_var, "   ")
        assert settings.resolve(knob) == settings.row(knob).default


class TestLossRate:
    @pytest.mark.parametrize("ok", [0.0, 0.01, 0.5, 0.999, 0])
    def test_valid(self, ok) -> None:
        assert check_loss_rate(ok) == float(ok)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, True, False, "0.1", None])
    def test_invalid(self, bad) -> None:
        with pytest.raises(MessagingError):
            check_loss_rate(bad)


def test_messaging_error_is_a_repro_error() -> None:
    assert issubclass(MessagingError, ReproError)
