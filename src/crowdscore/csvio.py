"""Trajectory CSV format.

Header ``agent_id,t,x,y[,goal_x,goal_y,comfort_speed,radius]``, rows sorted by
(agent_id, t), t in seconds, coordinates in meters.  Floats are written with
``repr`` so a load/save round trip is bit-exact.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import DataError
from .trajectory import (
    CANONICAL_DT,
    AgentIndividuals,
    AgentStatics,
    CrowdTrajectory,
    derive_kinematics,
)

REQUIRED_COLUMNS = ("agent_id", "t", "x", "y")
OPTIONAL_COLUMNS = ("goal_x", "goal_y", "comfort_speed", "radius")

# The single radius column maps to the body disc; the personal disc keeps the
# default 0.2 m standoff on top of it.
_PERSONAL_STANDOFF = 0.2


def load_trajectory_csv(path) -> CrowdTrajectory:
    """Read a trajectory CSV into a CrowdTrajectory (kinematics derived)."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for col in REQUIRED_COLUMNS:
            if col not in header:
                raise DataError(f"{path}: missing required column {col!r}")
        unknown = [h for h in header if h not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS]
        if unknown:
            raise DataError(f"{path}: unknown columns {unknown}")
        if ("goal_x" in header) != ("goal_y" in header):
            raise DataError(f"{path}: goal_x and goal_y must appear together")
        idx = {h: i for i, h in enumerate(header)}

        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append(
                    (
                        int(row[idx["agent_id"]]),
                        float(row[idx["t"]]),
                        [float(row[idx[c]]) for c in header[2:]],
                    )
                )
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None

    if not rows:
        raise DataError(f"{path}: no data rows")
    bad = np.argwhere(~np.isfinite([[t, *values] for _, t, values in rows]))
    if bad.size:
        k, c = bad[0]
        raise DataError(f"{path}: non-finite {('t', *header[2:])[c]!r} for agent {rows[k][0]}")
    rows.sort(key=lambda r: (r[0], r[1]))

    times = np.array(sorted({t for _, t, _ in rows}))
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
    t0 = float(times[0])

    per_agent: dict[int, list] = {}
    for aid, t, values in rows:
        per_agent.setdefault(aid, []).append((t, values))

    tail = header[2:]

    def col(values, name, default=None):
        if name in idx:
            return values[tail.index(name)]
        return default

    positions = []
    statics = []
    individuals = []
    for aid, agent_rows in per_agent.items():
        agent_times = np.array([t for t, _ in agent_rows])
        if agent_times.size != times.size or np.any(np.abs(agent_times - times) > 1e-9):
            raise DataError(
                f"{path}: agent {aid} does not cover the shared time grid "
                f"({agent_times.size} rows, expected {times.size})"
            )
        pos = np.array([[v[tail.index("x")], v[tail.index("y")]] for _, v in agent_rows])
        positions.append(pos)

        first = agent_rows[0][1]
        radius = col(first, "radius")
        if radius is not None:
            statics.append(
                AgentStatics(
                    agent_id=aid,
                    body_radius=radius,
                    personal_radius=radius + _PERSONAL_STANDOFF,
                )
            )
        else:
            statics.append(AgentStatics(agent_id=aid))

        gx, gy = col(first, "goal_x"), col(first, "goal_y")
        goal = np.array([gx, gy]) if gx is not None else pos[-1].copy()
        comfort = col(first, "comfort_speed")
        if comfort is None:
            step = np.linalg.norm(np.diff(pos, axis=0), axis=1) / dt
            comfort = max(float(np.median(step)), 1e-3)
        individuals.append(AgentIndividuals(goal_position=goal, comfort_speed=float(comfort)))

    return derive_kinematics(
        dict(zip(per_agent.keys(), positions)),
        dt,
        t0=t0,
        statics=statics,
        individuals=individuals,
    )


def save_trajectory_csv(crowd: CrowdTrajectory, path) -> None:
    """Write the full-column CSV (goals, comfort speeds and radii included)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(REQUIRED_COLUMNS) + list(OPTIONAL_COLUMNS))
        for c in sorted(crowd.characters, key=lambda ch: ch.statics.agent_id):
            goal = c.individuals.goal_position
            for k in range(c.n_steps):
                t = crowd.t0 + k * crowd.dt
                writer.writerow(
                    [
                        c.statics.agent_id,
                        repr(float(t)),
                        repr(float(c.positions[k, 0])),
                        repr(float(c.positions[k, 1])),
                        repr(float(goal[0])),
                        repr(float(goal[1])),
                        repr(float(c.individuals.comfort_speed)),
                        repr(float(c.statics.body_radius)),
                    ]
                )
