"""Crowd trajectory data model and kinematic derivation.

A crowd trajectory is N agents sharing one uniform time axis (T steps of
length dt starting at t0), held as whole-crowd arrays: per-agent properties
(id, goal, comfort speed, radii) and a per-step kinematic state.
Positions are the source of truth; velocities, speeds and headings are derived
by finite differences so that positions-only datasets are first-class input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError

# Canonical internal sampling period (s).  All scoring pipelines resample to
# this grid so that reference statistics and evaluated trajectories agree on
# step-based quantities (flicker windows, angular velocity, ...).
CANONICAL_DT = 0.1

# Below this speed (m/s) a velocity has no usable direction; headings are
# carried forward instead of being read off atan2.
EPS_SPEED = 1e-3

DEFAULT_BODY_RADIUS = 0.3  # m, adult shoulder half-width
# Default personal radius = body radius + this standoff (m).
PERSONAL_STANDOFF = 0.2

# Floor for comfort speeds inferred from data (invariant: comfort_speed > 0).
_MIN_COMFORT_SPEED = 1e-3


@dataclass(eq=False)
class CrowdTrajectory:
    """N agents over one shared time window, stored as whole-crowd arrays.

    Per-step arrays are indexed [agent, step]; per-agent arrays by agent.
    """

    positions: np.ndarray  # (N, T, 2), m
    velocities: np.ndarray  # (N, T, 2), m/s
    speeds: np.ndarray  # (N, T), m/s
    headings: np.ndarray  # (N, T), rad
    agent_ids: np.ndarray  # (N,)
    goals: np.ndarray  # (N, 2), m
    comfort_speeds: np.ndarray  # (N,), m/s
    body_radii: np.ndarray  # (N,), m
    personal_radii: np.ndarray  # (N,), m
    dt: float  # s
    t0: float = 0.0  # s

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]

    @property
    def n_steps(self) -> int:
        return self.positions.shape[1]

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps) * self.dt

    def window(self, start: int, stop: int) -> "CrowdTrajectory":
        """Restrict to timestep range [start, stop); kinematics kept as-is."""
        if not (0 <= start < stop <= self.n_steps) or stop - start < 2:
            raise ValueError(f"invalid window [{start}, {stop}) for T={self.n_steps}")
        return replace(
            self,
            positions=self.positions[:, start:stop].copy(),
            velocities=self.velocities[:, start:stop].copy(),
            speeds=self.speeds[:, start:stop].copy(),
            headings=self.headings[:, start:stop].copy(),
            t0=self.t0 + start * self.dt,
        )

    def with_positions(self, positions, dt: float) -> "CrowdTrajectory":
        """This crowd moved onto new (N, T, 2) positions sampled every ``dt``:
        kinematics re-derived, t0 and every per-agent array kept."""
        return derive_kinematics(
            positions,
            dt,
            t0=self.t0,
            agent_ids=self.agent_ids,
            goals=self.goals,
            comfort_speeds=self.comfort_speeds,
            body_radii=self.body_radii,
            personal_radii=self.personal_radii,
        )


def _per_agent(values, default, shape) -> np.ndarray:
    """Float copy of ``values`` (``default`` when None), broadcast to ``shape``."""
    return np.broadcast_to(default if values is None else values, shape).astype(float)


def derive_kinematics(
    positions,
    dt: float,
    *,
    t0: float = 0.0,
    agent_ids=None,
    goals=None,
    comfort_speeds=None,
    body_radii=None,
    personal_radii=None,
) -> CrowdTrajectory:
    """Build a CrowdTrajectory from an (N, T, 2) array-like of positions.

    The crowd keeps its own float64 copy.  Velocities are forward differences
    (backward at the last step); headings below EPS_SPEED carry the last
    valid heading forward, and before any motion face the goal.  Omitted
    per-agent arrays default to: ids 0..N-1, goal = final position, comfort
    speed = median of the T-1 step speeds (floored at 1e-3), body radius
    DEFAULT_BODY_RADIUS, personal radius = body radius + PERSONAL_STANDOFF.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    P = np.array(positions, dtype=float, order="C")
    if P.ndim != 3 or P.shape[2] != 2:
        raise DataError(f"positions must be an (N, T, 2) array, got shape {P.shape}")
    N, T = P.shape[:2]
    if N == 0:
        raise DataError("no agents in input")
    if T < 2:
        raise DataError(f"need at least 2 timesteps per agent, got {T}")
    goals = _per_agent(goals, P[:, -1], (N, 2))

    step = np.diff(P, axis=1)
    vel = np.empty_like(P)
    vel[:, :-1] = step / dt
    vel[:, -1] = vel[:, -2]
    speed = np.hypot(vel[..., 0], vel[..., 1])
    if comfort_speeds is None:
        step_speed = np.linalg.norm(step, axis=2) / dt
        comfort_speeds = np.maximum(np.median(step_speed, axis=1), _MIN_COMFORT_SPEED)

    raw = np.arctan2(vel[..., 1], vel[..., 0])
    to_goal = goals - P[:, 0]
    facing = np.hypot(to_goal[:, 0], to_goal[:, 1]) > EPS_SPEED
    init = np.where(facing, np.arctan2(to_goal[:, 1], to_goal[:, 0]), 0.0)
    last_valid = np.maximum.accumulate(np.where(speed > EPS_SPEED, np.arange(T), -1), axis=1)
    carried = np.take_along_axis(raw, np.maximum(last_valid, 0), axis=1)
    heading = np.where(last_valid >= 0, carried, init[:, None])

    body_radii = _per_agent(body_radii, DEFAULT_BODY_RADIUS, (N,))
    return CrowdTrajectory(
        positions=P,
        velocities=vel,
        speeds=speed,
        headings=heading,
        agent_ids=np.arange(N) if agent_ids is None else np.array(agent_ids),
        goals=goals,
        comfort_speeds=_per_agent(comfort_speeds, None, (N,)),
        body_radii=body_radii,
        personal_radii=_per_agent(personal_radii, body_radii + PERSONAL_STANDOFF, (N,)),
        dt=dt,
        t0=t0,
    )


def resample(crowd: CrowdTrajectory, dt_out: float) -> CrowdTrajectory:
    """Linearly interpolate positions onto the grid t0, t0+dt_out, ... and
    re-derive kinematics.  Per-agent properties are preserved."""
    if dt_out <= 0:
        raise ValueError(f"dt_out must be positive, got {dt_out}")
    T = crowd.n_steps
    span = (T - 1) * crowd.dt
    n_out = int(np.floor(span / dt_out + 1e-9)) + 1
    if n_out < 2:
        raise DataError(f"resampling to dt={dt_out} leaves fewer than 2 steps")
    t_old = np.arange(T) * crowd.dt
    t_new = np.arange(n_out) * dt_out
    # np.interp for every agent at once, with its arithmetic: the bracketing
    # step j, the slope times the offset plus the left value, and the sample
    # itself on an exact hit or at the end of the grid.
    j = np.searchsorted(t_old, t_new, side="right") - 1
    lo = np.minimum(j, T - 2)
    P = crowd.positions
    slope = (P[:, lo + 1] - P[:, lo]) / (t_old[lo + 1] - t_old[lo])[:, None]
    out = slope * (t_new - t_old[lo])[:, None] + P[:, lo]
    hit = (j == T - 1) | (t_new == t_old[j])
    out[:, hit] = P[:, j[hit]]
    return crowd.with_positions(out, dt_out)


def to_canonical(crowd: CrowdTrajectory) -> CrowdTrajectory:
    """Resample onto the canonical grid unless already on it."""
    if abs(crowd.dt - CANONICAL_DT) <= 1e-12:
        return crowd
    return resample(crowd, CANONICAL_DT)


def validate(crowd: CrowdTrajectory) -> list[str]:
    """Every data-model invariant the crowd breaks; empty when it is valid."""
    problems = []
    add = problems.append

    if crowd.n_agents < 1:
        add("crowd has no agents")
        return problems
    if crowd.dt <= 0:
        add(f"dt must be positive, got {crowd.dt}")

    per_step = (crowd.positions, crowd.velocities, crowd.speeds, crowd.headings)
    lengths = {a.shape[1] for a in per_step}
    if len(lengths) > 1:
        add(f"ragged state lists: step counts {sorted(lengths)}")
        return problems
    if 0 in lengths:
        add("character with empty state list")

    ids = crowd.agent_ids
    repeated = np.ones(len(ids), dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    for aid in ids[repeated]:
        add(f"duplicate agent_id {aid}")

    def per_agent(bad, message):
        for k in np.flatnonzero(bad):
            add(f"agent {ids[k]}: {message(k)}")

    body, personal, comfort = crowd.body_radii, crowd.personal_radii, crowd.comfort_speeds
    per_agent(~(body > 0), lambda k: f"body_radius must be positive, got {body[k]}")
    per_agent(
        personal < body,
        lambda k: f"personal_radius {personal[k]} smaller than body_radius {body[k]}",
    )
    per_agent(~(comfort > 0), lambda k: f"comfort_speed must be positive, got {comfort[k]}")
    per_agent(~np.isfinite(crowd.goals).all(axis=1), lambda k: "non-finite goal position")

    def per_step_check(bad, message):
        for k, t in np.argwhere(bad):
            add(f"agent {ids[k]}: {message} at timestep {t}")

    V = crowd.velocities
    per_step_check(~np.isfinite(crowd.positions).all(axis=2), "non-finite position")
    per_step_check(~np.isfinite(V).all(axis=2), "non-finite velocity")
    per_step_check(
        np.abs(np.hypot(V[..., 0], V[..., 1]) - crowd.speeds) > 1e-6,
        "speed differs from |velocity|",
    )
    return problems
