"""Settings declared once, as dataclass fields made by ``setting``: the CLI
schema, its ``--help`` and the dataclass's own ``__post_init__`` all read the
one declaration, so the CLI and a library caller reject the same values."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError


@dataclass(frozen=True)
class Option:
    """One config key: its type, default, help line and, for numbers, the
    accepted range. ``low``/``high`` of None leave that end unbounded (a
    ``high`` comes with a ``low``); ``open_low``/``open_high`` exclude it."""

    type: type
    default: object
    help: str = ""
    low: float | None = None
    high: float | None = None
    open_low: bool = False
    open_high: bool = False

    def _range_phrase(self) -> str:
        if self.high is not None:
            return f"in {'(' if self.open_low else '['}{self.low}, {self.high}{')' if self.open_high else ']'}"
        if self.low is not None:
            return f"{'>' if self.open_low else '>='} {self.low}"
        return ""

    def range_text(self) -> str:
        """The range as one token: ``>=1``, ``>0``, ``(0,1)``, ``[0,1]``, or ``-`` for any."""
        return self._range_phrase().removeprefix("in ").replace(" ", "") or "-"

    def check(self, key: str, value) -> None:
        """Raise ConfigError unless ``value`` lies in the range and, if a
        float, is finite."""
        below = self.low is not None and (value < self.low or (self.open_low and value == self.low))
        above = self.high is not None and (value > self.high or (self.open_high and value == self.high))
        if below or above or (isinstance(value, float) and not math.isfinite(value)):
            raise ConfigError(f"{key} must be {self._range_phrase() or 'finite'}, got {value}")


def setting(default, help: str, **bounds):
    """A dataclass field declaring one setting; its type is the default's."""
    return field(default=default, metadata={"option": Option(type(default), default, help, **bounds)})


def options(cls) -> dict[str, Option]:
    """The settings ``cls`` declares with ``setting``, in field order."""
    return {f.name: f.metadata["option"] for f in fields(cls) if "option" in f.metadata}


def check_settings(obj) -> None:
    """Range-check every declared setting of a dataclass instance."""
    for key, option in options(type(obj)).items():
        option.check(key, getattr(obj, key))
