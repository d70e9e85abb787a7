"""Trajectory CSV format.

Header ``agent_id,t,x,y[,goal_x,goal_y,comfort_speed,radius]``, rows sorted by
(agent_id, t), t in seconds, coordinates in meters.  Floats are written with
``repr`` so a load/save round trip is bit-exact.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from pathlib import Path

import numpy as np

from .errors import DataError
from .trajectory import CANONICAL_DT, CrowdTrajectory, derive_kinematics, validate

REQUIRED_COLUMNS = ("agent_id", "t", "x", "y")
OPTIONAL_COLUMNS = ("goal_x", "goal_y", "comfort_speed", "radius")

# The single radius column maps to the body disc; the personal disc keeps the
# default 0.2 m standoff on top of it.
_PERSONAL_STANDOFF = 0.2


# A body that only holds numbers, commas and single newlines.
_NUMERIC_BODY = re.compile(r"[0-9eE+\-.,\n]*")


def _parse_numeric_body(body: str, n_columns: int, id_col: int):
    """(int64 ids, float table of every column) parsed as arrays, or None.

    Declines, leaving the file to the row loop, unless the body is made only
    of number characters, commas and newlines, has no blank line, and every
    row parses with exactly ``n_columns`` fields.  The ids are parsed on
    their own, as integers: a float parse would round those above 2**53.
    """
    body = body.replace("\r\n", "\n")
    if (not body.strip("\n") or body.startswith("\n") or "\n\n" in body
            or not _NUMERIC_BODY.fullmatch(body)):
        return None
    read = dict(delimiter=",", comments=None)
    try:
        table = np.loadtxt(io.StringIO(body), ndmin=2, **read)
        if table.shape[1] != n_columns:
            return None
        with warnings.catch_warnings():
            # numpy releases with loadtxt's deprecated int-via-float fallback
            # read an id of 1.5, 1e3 or 2**63 as a float and cast it, with
            # only a warning.  As an error, numpy raises it as the ValueError
            # of any unparsable field, and the row loop rejects the id.
            warnings.simplefilter("error", DeprecationWarning)
            ids = np.loadtxt(io.StringIO(body), dtype=np.int64, usecols=id_col, ndmin=1, **read)
    except ValueError:
        return None
    return ids, table


def _not_utf8(path: Path) -> DataError:
    """The error for a file that does not decode, naming the line at fault.

    The text reader decodes in chunks, so its error's offset is not the
    file's: decode the bytes again to find the first bad one.
    """
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return DataError(f"{path}:{line}: not valid UTF-8 (byte 0x{raw[exc.start]:02x})")
    return DataError(f"{path}: not valid UTF-8")


def load_trajectory_csv(path) -> CrowdTrajectory:
    """Read a trajectory CSV into a CrowdTrajectory (kinematics derived).

    Columns may come in any order.  Per-agent columns are read from each
    agent's first row; the built crowd must pass ``validate``.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            body = fh.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in header]
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise DataError(f"{path}: missing required column {col!r}")
    unknown = [h for h in header if h not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS]
    if unknown:
        raise DataError(f"{path}: unknown columns {unknown}")
    if ("goal_x" in header) != ("goal_y" in header):
        raise DataError(f"{path}: goal_x and goal_y must appear together")
    id_col = header.index("agent_id")
    # Float table columns: t first, then the rest in file order.
    names = ["t"] + [h for h in header if h not in ("agent_id", "t")]
    value_cols = [header.index(h) for h in names]

    parsed = _parse_numeric_body(body, len(header), id_col)
    if parsed is not None:
        ids, table = parsed[0], parsed[1][:, value_cols]
    else:
        # The row loop is the reference parser and the only one that
        # reports what is wrong, and where.
        ids, rows = [], []
        for lineno, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                ids.append(int(row[id_col]))
                rows.append([float(row[i]) for i in value_cols])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
        if not rows:
            raise DataError(f"{path}: no data rows")
        table = np.array(rows)

    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        k, c = bad[0]
        raise DataError(f"{path}: non-finite {names[c]!r} for agent {ids[k]}")
    ids = np.asarray(ids)
    if ids.dtype != np.int64:  # numpy widens ids past int64 to float or object
        raise DataError(f"{path}: agent_id outside the 64-bit integer range")
    order = np.lexsort((table[:, 0], ids))
    ids, table = ids[order], table[order]
    t = table[:, 0]

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

    grid = table.reshape(starts.size, T, len(names))
    first = {name: grid[:, 0, c] for c, name in enumerate(names)}
    radius = first.get("radius")
    crowd = derive_kinematics(
        grid[:, :, [names.index("x"), names.index("y")]],
        dt,
        t0=float(times[0]),
        agent_ids=ids[starts],
        goals=np.column_stack([first["goal_x"], first["goal_y"]]) if "goal_x" in first else None,
        comfort_speeds=first.get("comfort_speed"),
        body_radii=radius,
        personal_radii=None if radius is None else radius + _PERSONAL_STANDOFF,
    )
    report = validate(crowd)
    if not report.ok:
        raise DataError(f"{path}: {report.violations[0]}")
    return crowd


def save_trajectory_csv(crowd: CrowdTrajectory, path) -> None:
    """Write the full-column CSV (goals, comfort speeds and radii included)."""
    N, T = crowd.n_agents, crowd.n_steps
    order = np.argsort(crowd.agent_ids, kind="stable")
    P = crowd.positions[order]
    per_agent = (crowd.goals[order, 0], crowd.goals[order, 1],
                 crowd.comfort_speeds[order], crowd.body_radii[order])
    columns = [np.tile(crowd.times(), N), P[..., 0].ravel(), P[..., 1].ravel()]
    columns += [np.repeat(v, T) for v in per_agent]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(REQUIRED_COLUMNS) + list(OPTIONAL_COLUMNS))
        writer.writerows(
            zip(np.repeat(crowd.agent_ids[order], T).tolist(),
                *(map(repr, c.tolist()) for c in columns))
        )
