"""One table of every ``REPRO_*`` knob: resolution, validation, report.

Every knob resolves the same way: an explicit argument wins, else its
environment variable, else the row's default.  The environment is read
at call time, so tests may monkeypatch it and pool workers inherit it.
A blank or whitespace-only environment value means unset.  Values
follow one grammar per row type:

* ``choice`` — one of the row's allowed strings (case-sensitive);
* ``bool`` — ``1/true/yes/on`` or ``0/false/no/off``, case-insensitive
  (an explicit argument must be a ``bool``);
* ``int`` — a strictly positive integer (an explicit argument must be
  an ``int`` and not a ``bool``);
* ``path`` — any non-blank string.

Anything else raises the row's exception class through one formatter,
naming the knob, the offending value and its source.  ``repro config``
prints every row with its effective value (see docs/API.md «Settings»).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import MessagingError, ParallelError, ReproError, ScheduleError

__all__ = ["SETTINGS", "Setting", "override", "resolve", "row"]

_BOOLS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}

_EXPECTED = {
    "bool": "a boolean (1/true/yes/on or 0/false/no/off)",
    "int": "a positive integer",
    "path": "a non-blank path",
}


@dataclass(frozen=True)
class Setting:
    """One knob: its name, variable, type, default, domain, error and doc."""

    name: str
    env: str
    type: str
    default: object
    error: type[ReproError]
    doc: str
    choices: tuple[str, ...] = ()
    #: How the default reads in help text when ``default`` is None.
    default_doc: str = ""

    @property
    def shown_default(self) -> str:
        return self.default_doc or str(self.default)

    @property
    def help(self) -> str:
        """CLI help text: the doc plus the resolution chain."""
        return f"{self.doc}; default: {self.env} env, else {self.shown_default}"

    def lookup(self, explicit: object = None) -> tuple[object, str]:
        """``(value, source)``; source is argument, env or default."""
        if explicit is not None:
            return self._valid(explicit, explicit, "argument"), "argument"
        raw = os.environ.get(self.env, "").strip()
        if not raw:
            return self.default, "default"
        source = f"environment variable {self.env}"
        return self._valid(self._convert(raw), raw, source), "env"

    def resolve(self, explicit: object = None) -> object:
        """Explicit argument > environment variable > default."""
        return self.lookup(explicit)[0]

    def _convert(self, raw: str) -> object:
        """Parse an environment string; unparseable text stays a string."""
        if self.type == "bool":
            return _BOOLS.get(raw.lower(), raw)
        if self.type == "int":
            try:
                return int(raw)
            except ValueError:
                return raw
        return raw

    def _valid(self, value: object, shown: object, source: str) -> object:
        """Return ``value`` if the row accepts it; else the one knob error."""
        if self.type == "choice":
            ok = isinstance(value, str) and value in self.choices
        elif self.type == "bool":
            ok = isinstance(value, bool)
        elif self.type == "int":
            ok = (
                isinstance(value, int)
                and not isinstance(value, bool)
                and value >= 1
            )
        else:
            ok = isinstance(value, str) and bool(value.strip())
        if ok:
            return value
        expected = (
            f"one of {list(self.choices)}"
            if self.type == "choice"
            else _EXPECTED[self.type]
        )
        raise self.error(
            f"{self.name} must be {expected}, got {shown!r} ({source})"
        )


SETTINGS: tuple[Setting, ...] = (
    Setting(
        "engine", "REPRO_ENGINE", "choice", "incremental", ScheduleError,
        "guard-evaluation engine for every simulator; 'columnar' runs the "
        "compiled flat-array kernel",
        choices=("incremental", "full", "columnar"),
    ),
    Setting(
        "validate_engine", "REPRO_ENGINE_VALIDATE", "bool", False,
        ScheduleError,
        "cross-check every step against the reference engine (lockstep)",
    ),
    Setting(
        "backend", "REPRO_COLUMNAR_BACKEND", "choice", "auto", ReproError,
        "columnar storage: numpy when importable (auto), numpy, or the "
        "dependency-free array.array (pure)",
        choices=("auto", "numpy", "pure"),
    ),
    Setting(
        "jobs", "REPRO_JOBS", "int", None, ParallelError,
        "process-pool workers; results are identical to the serial run",
        default_doc="serial",
    ),
    Setting(
        "telemetry", "REPRO_TELEMETRY", "path", None, ReproError,
        "enable telemetry and append spans to this JSONL trace",
        default_doc="off",
    ),
    Setting(
        "message_model", "REPRO_MESSAGE_MODEL", "choice", "eager",
        MessagingError, "delivery model (message transport)",
        choices=("eager", "async"),
    ),
    Setting(
        "channel_capacity", "REPRO_CHANNEL_CAPACITY", "int", 8,
        MessagingError, "per-link channel capacity (message transport)",
    ),
    Setting(
        "heartbeat", "REPRO_MESSAGE_HEARTBEAT", "int", 4, MessagingError,
        "retransmit unchanged registers on stale links every H steps "
        "(message transport)",
    ),
    Setting(
        "batch_window", "REPRO_SERVICE_BATCH_WINDOW", "int", 32,
        ParallelError, "coalescing batch window of the wave service",
    ),
    Setting(
        "max_in_flight", "REPRO_SERVICE_MAX_IN_FLIGHT", "int", 4,
        ParallelError, "concurrent wave executions across topologies",
    ),
    Setting(
        "queue_bound", "REPRO_SERVICE_QUEUE_BOUND", "int", 1024,
        ParallelError, "pending requests per topology before backpressure",
    ),
    Setting(
        "memo", "REPRO_MODELCHECK_MEMO", "bool", True, ReproError,
        "memoized model checker; off forces the direct path",
    ),
    Setting(
        "validate_memo", "REPRO_MODELCHECK_VALIDATE", "bool", False,
        ReproError, "cross-check every memoized model-checker answer in-line",
    ),
)

_BY_NAME = {setting.name: setting for setting in SETTINGS}


def row(name: str) -> Setting:
    """The table row of knob ``name``."""
    return _BY_NAME[name]


def resolve(name: str, explicit: object = None):
    """Resolve knob ``name``: explicit argument > environment > default."""
    return _BY_NAME[name].resolve(explicit)


@contextmanager
def override(name: str, value: object):
    """Set knob ``name``'s variable for the ``with`` block, then restore it.

    The value is validated first.  Pool workers and subprocesses started
    inside the block inherit the variable.
    """
    setting = _BY_NAME[name]
    setting.resolve(value)
    previous = os.environ.get(setting.env)
    os.environ[setting.env] = str(value)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(setting.env, None)
        else:
            os.environ[setting.env] = previous
