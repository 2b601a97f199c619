"""JSON config fields: casts that take JSON values only, and readers that name
the field on error (dotted when nested).  bench and simulator read through these."""

from __future__ import annotations

import math


def integral(value) -> int:
    # JSON numbers only: 3 and 3.0 pass, 1.7, true and "3" do not
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def real(value) -> float:
    # JSON numbers only: 2 and 2.5 pass, true, "2" and [2] do not
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range reads as 1e400 does
        return math.inf if value > 0 else -math.inf


def flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def read(obj, key, cast, default=..., where=""):
    """``obj[key]`` through ``cast``; ``default`` if absent, or if null and ``default`` is None."""
    if key not in obj or (default is None and obj[key] is None):
        if default is ...:
            raise ValueError(f"config field '{where}{key}' is required")
        return default
    try:
        return cast(obj[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config field '{where}{key}': {exc}") from exc


def known(obj, keys, where=""):
    """Reject a key no reader looks at, such as a misspelled one."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"config field '{where}{key}' is not a known field")


def section(data, key, keys=None):
    """The object ``data[key]``, holding only ``keys`` when they are given."""
    obj = read(data, key, lambda v: v)
    if not isinstance(obj, dict):
        raise ValueError(f"config field '{key}' must be an object")
    if keys is not None:
        known(obj, keys, f"{key}.")
    return obj
