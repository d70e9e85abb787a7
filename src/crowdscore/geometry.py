"""Pairwise interaction geometry under linear extrapolation.

Both agents are assumed to keep their current velocity.  All functions
broadcast over leading dimensions, so the same code serves the scalar API and
the (chunk, N, N) tensors used during feature extraction.  The array kernels
work on the x and y components separately: a reduction over a size-2 axis
costs more than the arithmetic it does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trajectory import EPS_SPEED

# Predicted collisions further out than this horizon (s) are treated as
# "no collision"; pairwise times are capped here.
TTC_HORIZON = 10.0


@dataclass
class PairPrediction:
    """Linear-motion prediction for one agent pair."""

    tca: float  # time to closest approach, s
    dca: float  # distance at closest approach, m
    ttc: float  # time to collision, s (TTC_HORIZON when none predicted)


def closest_approach_arrays(dp: np.ndarray, dv: np.ndarray):
    """tca and dca for relative position/velocity arrays of shape (..., 2)."""
    dx, dy = dp[..., 0], dp[..., 1]
    ux, uy = dv[..., 0], dv[..., 1]
    dv2 = ux * ux + uy * uy
    dot = dx * ux + dy * uy
    with np.errstate(divide="ignore", invalid="ignore"):
        tca = np.where(dv2 > EPS_SPEED**2, -dot / np.where(dv2 > 0, dv2, 1.0), 0.0)
    tca = np.maximum(tca, 0.0)
    cx = dx + tca * ux
    cy = dy + tca * uy
    dca = np.sqrt(cx * cx + cy * cy)
    return tca, dca


def time_to_collision_arrays(
    dp: np.ndarray,
    dv: np.ndarray,
    radius_sum: np.ndarray,
    horizon: float = TTC_HORIZON,
) -> np.ndarray:
    """Smallest t >= 0 with |dp + t dv| = radius_sum, capped at the horizon.

    Overlapping discs give 0; diverging pairs and misses give the horizon.
    """
    dx, dy = dp[..., 0], dp[..., 1]
    ux, uy = dv[..., 0], dv[..., 1]
    a = ux * ux + uy * uy
    b = 2.0 * (dx * ux + dy * uy)
    c = dx * dx + dy * dy - np.asarray(radius_sum) ** 2

    disc = b * b - 4.0 * a * c
    moving = a > EPS_SPEED**2
    safe_a = np.where(moving, a, 1.0)
    root = np.sqrt(np.maximum(disc, 0.0))
    t_hit = (-b - root) / (2.0 * safe_a)

    ttc = np.full(np.broadcast(a, c).shape, float(horizon))
    hit = moving & (disc >= 0.0) & (t_hit >= 0.0)
    ttc = np.where(hit, np.minimum(t_hit, horizon), ttc)
    ttc = np.where(c <= 0.0, 0.0, ttc)  # already overlapping
    return ttc


def closest_approach(p_a, v_a, p_b, v_b) -> tuple[float, float]:
    """(tca, dca) for a single pair of point agents."""
    dp = np.asarray(p_b, dtype=float) - np.asarray(p_a, dtype=float)
    dv = np.asarray(v_b, dtype=float) - np.asarray(v_a, dtype=float)
    tca, dca = closest_approach_arrays(dp, dv)
    return float(tca), float(dca)


def time_to_collision(p_a, v_a, r_a, p_b, v_b, r_b, horizon: float = TTC_HORIZON) -> float:
    """Time until the two body discs first touch, capped at the horizon."""
    dp = np.asarray(p_b, dtype=float) - np.asarray(p_a, dtype=float)
    dv = np.asarray(v_b, dtype=float) - np.asarray(v_a, dtype=float)
    return float(time_to_collision_arrays(dp, dv, float(r_a) + float(r_b), horizon))


def predict_pair(p_a, v_a, r_a, p_b, v_b, r_b, horizon: float = TTC_HORIZON) -> PairPrediction:
    tca, dca = closest_approach(p_a, v_a, p_b, v_b)
    ttc = time_to_collision(p_a, v_a, r_a, p_b, v_b, r_b, horizon)
    return PairPrediction(tca=tca, dca=dca, ttc=ttc)
