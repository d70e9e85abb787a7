"""Crowd trajectory data model and kinematic derivation.

A crowd trajectory is N agents sharing one uniform time axis (T steps of
length dt starting at t0), held as whole-crowd arrays: per-agent properties
(id, goal, comfort speed, radii) and a per-step kinematic state.
Positions are the source of truth; velocities, speeds and headings are derived
by finite differences so that positions-only datasets are first-class input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
DEFAULT_PERSONAL_RADIUS = 0.5  # m

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


def _position_array(positions) -> tuple[np.ndarray, np.ndarray | None]:
    """Accept {agent_id: (T,2)}, a sequence of (T,2), or an (N,T,2) array;
    return an (N,T,2) C-contiguous float64 copy and the mapping's ids."""
    ids = None
    if isinstance(positions, dict):
        ids = list(positions)
        positions = [positions[i] for i in ids]
    try:
        P = np.array(positions, dtype=float, order="C")
    except ValueError:
        shapes = sorted({np.shape(p) for p in positions})
        raise DataError(f"agents have differing position shapes: {shapes}") from None
    if P.shape[0] == 0:
        raise DataError("no agents in input")
    if P.ndim != 3 or P.shape[2] != 2:
        raise DataError(f"positions must be (T, 2) points per agent, got shape {P.shape}")
    if P.shape[1] < 2:
        raise DataError(f"need at least 2 timesteps per agent, got {P.shape[1]}")
    return P, ids


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
    """Build a CrowdTrajectory from per-agent position sequences.

    ``positions`` may be a mapping agent_id -> (T, 2) points, a sequence of
    (T, 2) arrays (ids 0..N-1), or an (N, T, 2) array; the crowd keeps its
    own copy.  Velocities are forward differences (backward at the last
    step); headings below EPS_SPEED carry the last valid heading forward, and
    before any motion face the goal.  Omitted per-agent arrays default to:
    goal = final position, comfort speed = median of the T-1 step speeds
    (floored at 1e-3), default body and personal radii.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    P, keys = _position_array(positions)
    N, T = P.shape[:2]
    if agent_ids is None:
        agent_ids = keys if keys is not None else np.arange(N)
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

    return CrowdTrajectory(
        positions=P,
        velocities=vel,
        speeds=speed,
        headings=heading,
        agent_ids=np.array(agent_ids),
        goals=goals,
        comfort_speeds=_per_agent(comfort_speeds, None, (N,)),
        body_radii=_per_agent(body_radii, DEFAULT_BODY_RADIUS, (N,)),
        personal_radii=_per_agent(personal_radii, DEFAULT_PERSONAL_RADIUS, (N,)),
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
    return derive_kinematics(
        out,
        dt_out,
        t0=crowd.t0,
        agent_ids=crowd.agent_ids,
        goals=crowd.goals,
        comfort_speeds=crowd.comfort_speeds,
        body_radii=crowd.body_radii,
        personal_radii=crowd.personal_radii,
    )


def to_canonical(crowd: CrowdTrajectory) -> CrowdTrajectory:
    """Resample onto the canonical grid unless already on it."""
    if abs(crowd.dt - CANONICAL_DT) <= 1e-12:
        return crowd
    return resample(crowd, CANONICAL_DT)


@dataclass
class ValidationReport:
    """Outcome of validate(); empty violation list means all invariants hold."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate(crowd: CrowdTrajectory) -> ValidationReport:
    """Check the data-model invariants and report every violation found."""
    report = ValidationReport()
    add = report.violations.append

    if crowd.n_agents < 1:
        add("crowd has no agents")
        return report
    if crowd.dt <= 0:
        add(f"dt must be positive, got {crowd.dt}")

    per_step = (crowd.positions, crowd.velocities, crowd.speeds, crowd.headings)
    lengths = {a.shape[1] for a in per_step}
    if len(lengths) > 1:
        add(f"ragged state lists: step counts {sorted(lengths)}")
        return report
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
    return report
