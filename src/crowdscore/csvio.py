"""Trajectory CSV format.

Header ``agent_id,t,x,y[,goal_x,goal_y,comfort_speed,radius]``, rows sorted by
(agent_id, t), t in seconds, coordinates in meters.  ``radius`` is the body
radius; the personal radius is not stored and takes derive_kinematics'
default, body + 0.2 m.  Floats are written with ``repr`` so a load/save round
trip is bit-exact.

``write_csv`` writes every CSV the package writes: trajectories, the score
breakdown, the training and tuning histories and the feature dump.

The loader reads a file once as bytes (``keyvalue.read_input``) and parses a
body of plain numbers with one structured ``np.loadtxt``.  LF and CRLF files
are parsed as read; only a file with a lone CR line end is copied, with LF
ends.  Only a body that parse declines is decoded to text, for the row loop:
the reference parser, and the one that says what is wrong and on which line.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from itertools import islice

import numpy as np

from .errors import DataError
from .keyvalue import decode_input, open_output, read_input
from .trajectory import CANONICAL_DT, CrowdTrajectory, derive_kinematics, validate

REQUIRED_COLUMNS = ("agent_id", "t", "x", "y")
OPTIONAL_COLUMNS = ("goal_x", "goal_y", "comfort_speed", "radius")


# The bytes of a body that only holds numbers, commas, spaces, tabs and line
# ends.  Other whitespace is left to the row loop: loadtxt strips \x1c-\x1f
# around a number, and float() does not.
_NUMERIC_BYTES = b"0123456789eE+-., \t\r\n"


def _parse_numeric_body(data: bytes, dtype: np.dtype):
    """The rows of ``data``, a whole file with LF or CRLF line ends, as one
    array of ``dtype``, or None.

    Declines, leaving the file to the row loop, unless the body after the
    header line is made only of number characters, commas, spaces, tabs and
    line ends, has a row, and every row parses with one field per column.
    Blank lines are skipped, as the row loop skips them.
    """
    start = data.find(b"\n") + 1
    if not start:
        return None
    # Deleting the number bytes leaves only the header's other bytes when the
    # body has none; only those leftovers are copied, never the body.
    if data.translate(None, _NUMERIC_BYTES) != data[:start].translate(None, _NUMERIC_BYTES):
        return None
    try:
        with warnings.catch_warnings():
            # numpy releases with loadtxt's deprecated int-via-float fallback
            # read an id of 1.5, 1e3 or 2**63 as a float and cast it, with
            # only a warning.  As an error, numpy raises it as the ValueError
            # of any unparsable field, and the row loop rejects the id.
            warnings.simplefilter("error", DeprecationWarning)
            # "input contained no data": the row loop reports it.
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",", comments=None,
                              skiprows=1, ndmin=1)
    except ValueError:
        return None
    return rows if rows.size else None


def load_trajectory_csv(path) -> CrowdTrajectory:
    """Read a trajectory CSV into a CrowdTrajectory (kinematics derived).

    The header is the first line; columns may come in any order, and each
    appears once.  Per-agent columns are read from each agent's first row;
    the built crowd must pass ``validate``.
    """
    data = read_input(path)
    if re.search(rb"\r(?!\n)", data):
        # A lone CR ends a line, which loadtxt and the header read do not see.
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data:
        raise DataError(f"{path}: empty file")
    header = decode_input(io.BytesIO(data).readline(), path)
    header = [h.strip() for h in next(csv.reader([header]))]
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise DataError(f"{path}: missing required column {col!r}")
    unknown = [h for h in header if h not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS]
    if unknown:
        raise DataError(f"{path}: unknown columns {unknown}")
    repeated = [h for i, h in enumerate(header) if h in header[:i]]
    if repeated:
        raise DataError(f"{path}: column {repeated[0]!r} appears more than once")
    if ("goal_x" in header) != ("goal_y" in header):
        raise DataError(f"{path}: goal_x and goal_y must appear together")
    # Ids are parsed as integers: a float parse would round those above 2**53.
    converters = [int if h == "agent_id" else float for h in header]
    dtype = np.dtype([(h, np.int64 if c is int else float) for h, c in zip(header, converters)])

    rows = _parse_numeric_body(data, dtype)
    if rows is not None:
        del data  # held to the end, the file's bytes would set the load's peak memory
    else:
        # The row loop is the reference parser and the only one that
        # reports what is wrong, and where.
        lines = io.StringIO(decode_input(data, path), newline="")
        del data
        lines.readline()  # the header
        parsed = []
        for lineno, row in enumerate(csv.reader(lines), start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                parsed.append(tuple(convert(v) for convert, v in zip(converters, row)))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
        if not parsed:
            raise DataError(f"{path}: no data rows")
        try:
            rows = np.array(parsed, dtype=dtype)
        except OverflowError:
            raise DataError(f"{path}: agent_id outside the 64-bit integer range") from None

    for name in header:
        bad = np.flatnonzero(~np.isfinite(rows[name]))
        if bad.size:
            raise DataError(f"{path}: non-finite {name!r} for agent {rows['agent_id'][bad[0]]}")
    rows = rows[np.lexsort((rows["t"], rows["agent_id"]))]
    ids, t = rows["agent_id"], rows["t"]

    times = np.unique(t)
    if times.size < 2:
        raise DataError(f"{path}: need at least 2 timesteps")
    diffs = np.diff(times)
    dt = float(np.median(diffs))
    if dt <= 0 or np.any(np.abs(diffs - dt) > 1e-6 * max(dt, 1.0)):
        raise DataError(f"{path}: time axis is not a uniform grid")
    if abs(dt - CANONICAL_DT) <= 1e-9:
        # Snap rounding noise in written time columns so a save/load round
        # trip re-derives bit-identical kinematics.
        dt = CANONICAL_DT
    T = times.size

    # Every agent's rows must be the shared grid, step for step.
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    counts = np.diff(np.r_[starts, ids.size])
    rank = np.arange(ids.size) - np.repeat(starts, counts)
    off_grid = np.abs(t - times[np.minimum(rank, T - 1)]) > 1e-9
    uncovered = (counts != T) | np.logical_or.reduceat(off_grid, starts)
    if uncovered.any():
        k = int(np.argmax(uncovered))
        raise DataError(
            f"{path}: agent {ids[starts[k]]} does not cover the shared time grid "
            f"({counts[k]} rows, expected {T})"
        )

    grid = rows.reshape(starts.size, T)
    first = {name: grid[name][:, 0] for name in header}
    crowd = derive_kinematics(
        np.stack([grid["x"], grid["y"]], axis=-1),
        dt,
        t0=float(times[0]),
        agent_ids=ids[starts],
        goals=np.column_stack([first["goal_x"], first["goal_y"]]) if "goal_x" in first else None,
        comfort_speeds=first.get("comfort_speed"),
        body_radii=first.get("radius"),
    )
    problems = validate(crowd)
    if problems:
        raise DataError(f"{path}: {problems[0]}")
    return crowd


def write_csv(path, header, lines) -> None:
    """Write the ``header`` names, then ``lines``, rows already joined by
    commas, all CRLF-ended: the bytes of ``csv.writer`` for fields that need
    no quoting (none holds a comma, a quote or a line end)."""
    lines = iter(lines)
    with open_output(path) as fh:
        fh.write(",".join(header))
        # In batches: one write call costs about as much as formatting a line.
        while batch := list(islice(lines, 128)):
            fh.write("\r\n" + "\r\n".join(batch))
        fh.write("\r\n")


def save_trajectory_csv(crowd: CrowdTrajectory, path) -> None:
    """Write the full-column CSV (goals, comfort speeds and radii included).

    Each time and each agent's id, goal, comfort speed and radius is
    formatted once and reused on every row that holds it.
    """
    order = np.argsort(crowd.agent_ids, kind="stable")
    times = [f",{t!r}," for t in crowd.times().tolist()]
    per_agent = np.column_stack([crowd.goals, crowd.comfort_speeds, crowd.body_radii])[order]
    tails = ["".join(f",{v!r}" for v in values) for values in per_agent.tolist()]
    ids, xys = crowd.agent_ids[order].tolist(), crowd.positions[order].tolist()
    write_csv(path, REQUIRED_COLUMNS + OPTIONAL_COLUMNS,
              (f"{a}{t}{x!r},{y!r}{tail}" for a, xy, tail in zip(ids, xys, tails)
               for t, (x, y) in zip(times, xy)))
