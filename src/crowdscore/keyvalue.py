"""Line-oriented key-value text files, and the one way files are read and written.

Grammar shared by the stats/weights files and the simulator parameter file:
one ``key = value`` per line, ``#`` starts a comment, blank lines ignored.
Callers validate the key set; this module only handles the syntax.
``read_input`` and ``decode_input`` read every input file of the package, and
``open_output`` writes every output file; ``write_keyvalue`` writes every
key-value file through it.
"""

from __future__ import annotations

import codecs
import math
import os
import stat
from contextlib import contextmanager

from .errors import DataError


def read_input(path) -> bytes:
    """The bytes of input file ``path``, less a leading UTF-8 BOM (as in a
    spreadsheet's "CSV UTF-8" export)."""
    with open(path, "rb") as fh:
        return fh.read().removeprefix(codecs.BOM_UTF8)


def decode_input(data: bytes, path) -> str:
    """``data`` as UTF-8 text; a bad byte is a DataError naming ``path`` and its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(data[: exc.start + 1].splitlines())  # LF, CRLF or CR ends a line
        raise DataError(f"{path}:{line}: not valid UTF-8 (byte 0x{data[exc.start]:02x})") from None


@contextmanager
def open_output(path):
    """Open ``path`` as a UTF-8 text file for writing, rewriting it in place.

    The file is opened without ``O_TRUNC`` and cut to the written length on
    exit: ext4 flushes a file truncated to zero (or renamed over) when it is
    closed, which stalls each rewrite for tens of milliseconds.  Like
    ``open(path, "w")`` this keeps the inode, so a symlink is written through
    and the mode is kept.  ``newline=""`` writes line ends as given, so the
    CRLF ends of a CSV are never translated.
    If the block or the final flush raises, a regular file is truncated to
    zero before the error propagates, so no new bytes are left over an old
    tail.  Devices and pipes are never truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            with open(fd, "w", encoding="utf-8", newline="", closefd=False) as fh:
                yield fh
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            end = os.lseek(fd, 0, os.SEEK_CUR)
            if os.fstat(fd).st_size > end:
                os.ftruncate(fd, end)
    finally:
        os.close(fd)


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


def write_keyvalue(path, pairs) -> None:
    """Write an iterable of (key, value) pairs to ``path``, one ``key = value`` line each."""
    with open_output(path) as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in pairs))


def parse_float(key: str, value: str, source: str = "<string>") -> float:
    """Parse a float value; nan and inf are rejected like malformed text."""
    try:
        number = float(value)
    except ValueError:
        raise DataError(f"{source}: value for {key!r} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise DataError(f"{source}: value for {key!r} is not finite: {value!r}")
    return number
