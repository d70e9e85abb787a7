"""Benchmark input generator: crowd-crossing recordings written as CSV.

Uses numpy only and never imports ``crowdscore``, so a change to the package's
simulator cannot change what the scorer reads.  Agents walk to the far side of
a circle or across a perpendicular flow, steer away from predicted close
approaches only weakly, and get random accelerations, so the recordings
contain near-misses and some body contacts.

Two CSV flavours are written:

* ``full``: every column (goals, comfort speed, radius) at dt 0.1 s;
* ``positions``: ``agent_id,t,x,y`` only at dt 0.05 s, which makes the loader
  infer goals and comfort speeds and the scorer resample to 0.1 s.

Floats are written as ``repr(float(x))``: the repr of a numpy scalar
(``np.float64(6.5)``) is not a number to the loader.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

FLAVOUR_DT = {"full": 0.1, "positions": 0.05}  # s, sampling period per CSV flavour
FULL_COLUMNS = ("agent_id", "t", "x", "y", "goal_x", "goal_y", "comfort_speed", "radius")
POSITION_COLUMNS = ("agent_id", "t", "x", "y")


def _layout(rng, n, kind, radius):
    """Start points, goals, comfort speeds and body radii for one scene."""
    if kind == "circle":
        angles = 2.0 * np.pi * np.arange(n) / n + rng.uniform(-0.15, 0.15, n) * (2.0 * np.pi / n)
        r = radius + rng.uniform(-0.3, 0.3, n)
        starts = np.column_stack([r * np.cos(angles), r * np.sin(angles)])
        goals = -starts + rng.normal(0.0, 0.5, (n, 2))
    else:  # two perpendicular flows crossing at the origin
        half = n // 2
        flow = np.arange(n) >= half  # False: walks +x, True: walks +y
        rank = np.where(flow, np.arange(n) - half, np.arange(n))
        size = np.where(flow, n - half, half)
        lateral = (rank - (size - 1) / 2.0) * 0.9 + rng.uniform(-0.2, 0.2, n)
        depth = radius + rng.uniform(0.0, 2.0, n)
        along = np.where(flow[:, None], [0.0, 1.0], [1.0, 0.0])
        across = along[:, ::-1]
        starts = -depth[:, None] * along + lateral[:, None] * across
        goals = depth[:, None] * along + lateral[:, None] * across
    comfort = np.clip(rng.normal(1.3, 0.15, n), 0.8, 1.8)
    radii = rng.uniform(0.22, 0.3, n)
    return starts, goals, comfort, radii


def walk(rng, starts, goals, comfort, n_steps, dt):
    """(n_steps, N, 2) positions, dt apart, of agents heading to their goals."""
    n = starts.shape[0]
    p = starts.astype(float).copy()
    v = np.zeros_like(p)
    out = np.empty((n_steps, n, 2))
    tau = 0.5  # s, relaxation towards the desired velocity
    horizon = 3.0  # s, look-ahead of the avoidance steering
    for k in range(n_steps):
        out[k] = p
        to_goal = goals - p
        dist = np.linalg.norm(to_goal, axis=1)
        v_des = np.where(
            dist[:, None] > 0.2, comfort[:, None] * to_goal / np.maximum(dist, 1e-9)[:, None], 0.0
        )
        dp = p[None, :, :] - p[:, None, :]  # [i, j] = p_j - p_i
        dv = v[None, :, :] - v[:, None, :]
        dv2 = np.maximum(np.sum(dv * dv, axis=2), 1e-9)
        tca = np.clip(-np.sum(dp * dv, axis=2) / dv2, 0.0, horizon)
        closest = dp + tca[:, :, None] * dv
        dca = np.maximum(np.linalg.norm(closest, axis=2), 1e-3)
        np.fill_diagonal(dca, np.inf)
        # Weak push away from the predicted closest point: strong enough for
        # visible avoidance, too weak to prevent every contact.
        weight = 1.2 * np.exp(-dca / 0.4) / (1.0 + tca)
        steer = -np.sum((weight / dca)[:, :, None] * closest, axis=1)
        noise = rng.normal(0.0, 0.4, (n, 2))
        v = v + ((v_des - v) / tau + steer + noise) * dt
        speed = np.linalg.norm(v, axis=1)
        cap = 1.6 * comfort
        v = np.where((speed > cap)[:, None], v * (cap / np.maximum(speed, 1e-9))[:, None], v)
        p = p + v * dt
    return out


def write_csv(path, positions, dt, goals=None, comfort=None, radii=None):
    """Write (T, N, 2) positions; with goals/comfort/radii, the full flavour."""
    full = goals is not None
    n_steps, n, _ = positions.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FULL_COLUMNS if full else POSITION_COLUMNS)
        for i in range(n):
            for k in range(n_steps):
                row = [i + 1, repr(float(k * dt)), repr(float(positions[k, i, 0])),
                       repr(float(positions[k, i, 1]))]
                if full:
                    row += [repr(float(goals[i, 0])), repr(float(goals[i, 1])),
                            repr(float(comfort[i])), repr(float(radii[i]))]
                writer.writerow(row)


def recording(rng, path, n, duration, kind, radius, flavour):
    """Generate one scene and write it in the given flavour ("full" or "positions")."""
    starts, goals, comfort, radii = _layout(rng, n, kind, radius)
    dt = FLAVOUR_DT[flavour]
    sim = walk(rng, starts, goals, comfort, round(duration / dt), dt)
    if flavour == "full":
        write_csv(path, sim, dt, goals, comfort, radii)
    else:
        write_csv(path, sim, dt)


def crowd_set(seed, directory, count, n, duration, kinds, radius, flavours):
    """Write ``count`` recordings into ``directory``, cycling kinds and flavours.

    Returns the paths in generation order.  The same seed gives byte-identical
    files.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        flavour = flavours[i % len(flavours)]
        path = directory / f"{i:02d}-{kind}-{flavour}.csv"
        recording(rng, path, n, duration, kind, radius, flavour)
        paths.append(path)
    return paths
