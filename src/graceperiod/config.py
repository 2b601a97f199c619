"""JSON config fields: casts that take JSON values only, and readers that name
the field on error (dotted when nested).  bench and simulator read through these."""

from __future__ import annotations

import math
import reprlib
from enum import EnumMeta

MAX_COUNT = 10**7  # campaign seeds, table points, bench trials: arrays far below 1 GiB


def quote(value) -> str:
    """``repr(value)`` cut short (a string to 30 characters, a list to six items
    and six levels), so an error that echoes a config value stays one short line."""
    return reprlib.repr(value)


def integral(value) -> int:
    # JSON numbers only: 3 and 3.0 pass, 1.7, true and "3" do not
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"must be an integer, got {quote(value)}")
    return int(value)


def real(value) -> float:
    # JSON numbers only: 2 and 2.5 pass, true, "2" and [2] do not
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {quote(value)}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range reads as 1e400 does
        return math.inf if value > 0 else -math.inf


def flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {quote(value)}")
    return value


def text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {quote(value)}")
    return value


def read(obj, key, cast, default=..., where=""):
    """``obj[key]`` through ``cast``; ``default`` if absent, or if null and ``default`` is None."""
    if key not in obj or (default is None and obj[key] is None):
        if default is ...:
            raise ValueError(f"config field '{where}{key}' is required")
        return default
    value = obj[key]
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        reason = exc
        if isinstance(cast, EnumMeta):  # its own message echoes the whole value
            reason = f"must be one of {[m.value for m in cast]}, got {quote(value)}"
        raise ValueError(f"config field '{where}{key}': {reason}") from exc


def known(obj, keys, where=""):
    """Reject a key no reader looks at, such as a misspelled one."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"config field '{where}{quote(key)[1:-1]}' is not a known field")


def section(data, key, keys=None):
    """The object ``data[key]``, holding only ``keys`` when they are given."""
    obj = read(data, key, lambda v: v)
    if not isinstance(obj, dict):
        raise ValueError(f"config field '{key}' must be an object")
    if keys is not None:
        known(obj, keys, f"{key}.")
    return obj
