"""Pairwise interaction geometry under linear extrapolation.

Both agents are assumed to keep their current velocity.  One kernel,
``pairwise_arrays``, serves both the scalar API and the (chunk, N, N) planes
used during feature extraction.  It works on the x and y components
separately (a reduction over a size-2 axis costs more than the arithmetic it
does) and in place, so a chunk holds few temporaries.
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


def pairwise_arrays(dx, dy, ux, uy, radius_sum, horizon: float = TTC_HORIZON):
    """(dist, ttc, tca, dca) from relative position and velocity planes.

    ``dx, dy`` are the components of p_b - p_a and ``ux, uy`` those of
    v_b - v_a, as float arrays of one shape (at least 1-D); ``radius_sum``
    broadcasts to that shape.  |dp|^2, |dv|^2 and dp.dv are formed once: the
    contact quadratic a t^2 + b t + c = 0 has a = |dv|^2, b = 2 dp.dv and
    c = |dp|^2 - radius_sum^2.

    dist is the current distance.  tca >= 0 is the time to closest approach
    and dca the distance then (tca 0 without relative motion).  ttc is the
    smallest t >= 0 with |dp + t dv| = radius_sum, capped at the horizon:
    overlapping discs give 0, diverging pairs and misses the horizon.
    """
    dv2 = ux * ux
    dv2 += uy * uy
    ndot = dx * ux
    ndot += dy * uy
    np.negative(ndot, out=ndot)  # -dp.dv, so -b = 2 * ndot exactly
    dist = dx * dx
    dist += dy * dy
    moving = dv2 > EPS_SPEED**2

    tca = np.divide(ndot, dv2, out=np.zeros_like(dv2), where=moving)
    np.maximum(tca, 0.0, out=tca)
    dca = tca * ux
    dca += dx
    dca *= dca
    cy = tca * uy
    cy += dy
    cy *= cy
    dca += cy
    np.sqrt(dca, out=dca)

    c = dist - np.square(radius_sum)
    np.sqrt(dist, out=dist)
    neg_b = np.multiply(ndot, 2.0, out=ndot)
    disc = np.multiply(dv2, 4.0, out=cy)
    disc *= c
    np.subtract(neg_b * neg_b, disc, out=disc)
    hit = disc >= 0.0
    hit &= moving
    root = np.maximum(disc, 0.0, out=disc)
    np.sqrt(root, out=root)
    t_hit = np.subtract(neg_b, root, out=neg_b)
    dv2 *= 2.0
    np.divide(t_hit, dv2, out=t_hit, where=moving)
    hit &= t_hit >= 0.0
    np.minimum(t_hit, horizon, out=t_hit)
    ttc = np.where(hit, t_hit, float(horizon))
    ttc[c <= 0.0] = 0.0  # already overlapping
    return dist, ttc, tca, dca


def closest_approach(p_a, v_a, p_b, v_b) -> tuple[float, float]:
    """(tca, dca) for a single pair of point agents."""
    pred = predict_pair(p_a, v_a, 0.0, p_b, v_b, 0.0)
    return pred.tca, pred.dca


def time_to_collision(p_a, v_a, r_a, p_b, v_b, r_b, horizon: float = TTC_HORIZON) -> float:
    """Time until the two body discs first touch, capped at the horizon."""
    return predict_pair(p_a, v_a, r_a, p_b, v_b, r_b, horizon).ttc


def predict_pair(p_a, v_a, r_a, p_b, v_b, r_b, horizon: float = TTC_HORIZON) -> PairPrediction:
    # The pair as 1-element planes, so the kernel's in-place steps apply.
    dp = (np.asarray(p_b, dtype=float) - np.asarray(p_a, dtype=float))[:, None]
    dv = (np.asarray(v_b, dtype=float) - np.asarray(v_a, dtype=float))[:, None]
    _, ttc, tca, dca = pairwise_arrays(dp[0], dp[1], dv[0], dv[1], float(r_a) + float(r_b), horizon)
    return PairPrediction(tca=float(tca[0]), dca=float(dca[0]), ttc=float(ttc[0]))
