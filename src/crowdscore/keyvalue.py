"""Line-oriented key-value text files.

Grammar shared by the stats/weights files and the simulator parameter file:
one ``key = value`` per line, ``#`` starts a comment, blank lines ignored.
Callers validate the key set; this module only handles the syntax.
"""

from __future__ import annotations

import math

from .errors import DataError


def parse_keyvalue(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse key-value lines into an ordered dict of raw string values."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise DataError(f"{source}:{lineno}: empty key")
        if key in out:
            raise DataError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def format_keyvalue(items) -> str:
    """Render a dict or iterable of (key, value) pairs, one line each."""
    pairs = items.items() if hasattr(items, "items") else items
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def parse_float(key: str, value: str, source: str = "<string>") -> float:
    """Parse a float value; nan and inf are rejected like malformed text."""
    try:
        number = float(value)
    except ValueError:
        raise DataError(f"{source}: value for {key!r} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise DataError(f"{source}: value for {key!r} is not finite: {value!r}")
    return number
