"""Shared builders for the test suite.

Crowd fixtures are built from position arrays through derive_kinematics so the
tests exercise the same ingestion path as CSV loading.
"""

import os
from dataclasses import fields, replace

import numpy as np
import pytest

from crowdscore.features import pairwise_arrays
from crowdscore.simulator import Scenario, SocialForcesParams, simulate
from crowdscore.trajectory import derive_kinematics

DT = 0.1


def assert_no_child_and_affinity(before):
    """No child process is left, and the CPU affinity is ``before`` again."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == before


def crowd_from_positions(positions, dt=DT, **per_agent):
    """derive_kinematics on an array; ``per_agent`` are its keyword arrays."""
    return derive_kinematics(np.asarray(positions, dtype=float), dt, **per_agent)


def straight_crowd(speed=1.4, steps=11, n_agents=1, spacing=100.0, dt=DT):
    """Parallel straight walkers along +x, far apart, exact goal arrival.

    Every feature of this crowd is constant over agents and time, which makes
    it the reference case for perfect-score checks.
    """
    t = np.arange(steps) * dt
    positions = np.zeros((n_agents, steps, 2))
    positions[:, :, 0] = speed * t
    positions[:, :, 1] = np.arange(n_agents)[:, None] * spacing
    return crowd_from_positions(positions, dt, goals=positions[:, -1],
                                comfort_speeds=speed)


def linear_pair(p_a, v_a, p_b, v_b, steps=30, dt=DT, radius=0.3, personal=0.5):
    """Two agents moving at constant velocity from the given states."""
    t = np.arange(steps)[:, None] * dt
    pos = np.stack([np.asarray(p_a) + t * np.asarray(v_a),
                    np.asarray(p_b) + t * np.asarray(v_b)])
    return crowd_from_positions(pos, dt, body_radii=radius, personal_radii=personal)


def pair_planes(shape):
    """Scratch planes for ``pairwise_arrays`` on input planes of ``shape``."""
    return np.empty((3, *shape)), np.empty((4, *shape), dtype=bool)


def predict_pair(p_a, v_a, r_a, p_b, v_b, r_b):
    """(ttc, tca, dca) of one agent pair, from the kernel on 1-element planes."""
    dp = (np.asarray(p_b, dtype=float) - np.asarray(p_a, dtype=float))[:, None]
    dv = (np.asarray(v_b, dtype=float) - np.asarray(v_a, dtype=float))[:, None]
    _, ttc, tca, dca = pairwise_arrays(dp[0], dp[1], dv[0], dv[1], float(r_a) + float(r_b),
                                       pair_planes((1,)))
    return float(ttc[0]), float(tca[0]), float(dca[0])


def random_walk_crowd(seed, n_agents=4, steps=40, dt=DT, step_scale=0.12):
    """Smooth-ish random walk, used in property loops."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(-5.0, 5.0, size=(n_agents, 1, 2))
    steps_xy = rng.normal(0.0, step_scale, size=(n_agents, steps - 1, 2))
    positions = np.concatenate([start, start + np.cumsum(steps_xy, axis=1)], axis=1)
    return crowd_from_positions(positions, dt)


def rigid_transform(crowd, angle, shift):
    """Rotate and translate a crowd, including goals."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    shift = np.asarray(shift, dtype=float)
    moved = replace(crowd, goals=crowd.goals @ rot.T + shift)
    return moved.with_positions(crowd.positions @ rot.T + shift, crowd.dt)


def colliding_crowd(n_agents=8, seed=4):
    """Antipodal circle walkers without repulsion: they pile up in the middle,
    so the pairwise features see contacts and overlaps."""
    scenario = Scenario(kind="circle", agent_count=n_agents, radius=3.0, seed=seed)
    return simulate(scenario, SocialForcesParams(repulsion_strength=0.0), duration=5.0)


def crowd_arrays(crowd):
    """Every array field of a crowd, by name."""
    return {f.name: getattr(crowd, f.name) for f in fields(crowd)
            if isinstance(getattr(crowd, f.name), np.ndarray)}
