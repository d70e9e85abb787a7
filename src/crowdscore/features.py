"""Trajectory feature extraction.

Twenty-one features are measured on a crowd trajectory, identified by
three-letter codes.  Seventeen produce one sample per agent per timestep,
two (GLR, LEN) one sample per agent, and two (FDG, VAR) one sample per
timestep.  Pairwise features aggregate over neighbours within an interaction
horizon so that every feature emits a fixed-size sample set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .geometry import TTC_HORIZON, closest_approach_arrays, time_to_collision_arrays
from .trajectory import EPS_SPEED, CrowdTrajectory

# Neighbour pairs (t, i, j) the pairwise pass holds at once: about 2 MB per
# float64 array, so extract's memory does not grow with the recording length.
_PAIR_BUDGET = 1 << 18

# Canonical listing order; every per-feature loop and every serialized
# breakdown follows it so reductions are reproducible.
FEATURE_CODES = (
    "AWS",  # average walking speed
    "DGD",  # difference to goal direction
    "INE",  # inertia (acceleration magnitude)
    "FDR",  # flickering in direction
    "FSP",  # flickering in speed
    "GLR",  # goal reaching
    "DCS",  # difference to comfort speed
    "AVL",  # angular velocity
    "LEN",  # trajectory length ratio
    "EDN",  # environment-based density (nearest-neighbour ratio)
    "COL",  # collisions
    "LDN",  # local density
    "DTA",  # distance to other agents
    "TTC",  # time to collision
    "IST",  # interaction strength
    "TCA",  # time to closest approach
    "OVP",  # personal space overlap
    "FDG",  # fundamental diagram deviation
    "IAN",  # interaction anticipation
    "DCA",  # distance at closest approach
    "VAR",  # speed variety across the crowd
)

PER_AGENT_CODES = ("GLR", "LEN")
PER_TIME_CODES = ("FDG", "VAR")

GRANULARITY = {
    code: (
        "per-agent"
        if code in PER_AGENT_CODES
        else "per-time"
        if code in PER_TIME_CODES
        else "per-agent-time"
    )
    for code in FEATURE_CODES
}


@dataclass
class FeatureParams:
    """Tunable constants of the feature definitions."""

    interaction_horizon: float = 30.0  # m, neighbours beyond this are ignored
    ttc_horizon: float = TTC_HORIZON  # s
    ist_tau: float = 2.0  # s, decay constant of interaction strength
    flicker_window: int = 10  # steps (1 s at canonical dt)
    flicker_heading_threshold: float = 0.15  # rad per step
    flicker_speed_threshold: float = 0.1  # m/s per step
    local_density_radius: float = 2.0  # m
    area_margin: float = 1.0  # m, inflation of the crowd extent for EDN
    maneuver_turn_rate: float = 0.3  # rad/s, avoidance-manoeuvre onset
    maneuver_accel: float = 0.5  # m/s^2
    fd_curve: "FundamentalDiagramCurve | None" = None
    fd_bin_width: float = 0.5  # persons/m^2, used when fitting a curve


@dataclass
class FeatureSamples:
    """The value set of one feature.

    ``values`` is (N, T) for per-agent-time codes, (N,) for per-agent codes
    and (T,) for per-time codes.  ``flat()`` is agent-major.
    """

    code: str
    values: np.ndarray

    @property
    def granularity(self) -> str:
        return GRANULARITY[self.code]

    def flat(self) -> np.ndarray:
        return np.ravel(self.values)


@dataclass
class FundamentalDiagramCurve:
    """Piecewise-constant expected walking speed as a function of density.

    Stored as occupied bin centers with their mean speeds; queries snap to
    the nearest center (ties towards the denser bin), which also answers
    empty-bin queries with the nearest occupied bin.
    """

    densities: np.ndarray  # sorted bin centers, persons/m^2
    speeds: np.ndarray  # m/s

    def query(self, density) -> np.ndarray:
        d = np.asarray(density, dtype=float)
        pos = np.searchsorted(self.densities, d)
        lo = np.clip(pos - 1, 0, len(self.densities) - 1)
        hi = np.clip(pos, 0, len(self.densities) - 1)
        pick = np.where(np.abs(self.densities[hi] - d) <= np.abs(d - self.densities[lo]), hi, lo)
        return self.speeds[pick]

    def serialize(self) -> str:
        return ",".join(
            f"{d!r}:{v!r}" for d, v in zip(map(float, self.densities), map(float, self.speeds))
        )

    @classmethod
    def deserialize(cls, text: str) -> "FundamentalDiagramCurve":
        pairs = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                d, v = item.split(":")
                pairs.append((float(d), float(v)))
            except ValueError:
                raise DataError(f"bad fundamental-diagram entry {item!r}") from None
        if not pairs:
            raise DataError("empty fundamental-diagram curve")
        if not all(math.isfinite(d) and math.isfinite(v) for d, v in pairs):
            raise DataError(f"non-finite fundamental-diagram entry in {text!r}")
        pairs.sort()
        return cls(
            densities=np.array([p[0] for p in pairs]),
            speeds=np.array([p[1] for p in pairs]),
        )


def fundamental_diagram_curve(reference, bin_width: float = 0.5) -> FundamentalDiagramCurve:
    """Fit the piecewise-constant curve from (density, speed) pairs."""
    pairs = np.asarray(list(reference), dtype=float)
    if pairs.size == 0:
        raise ValueError("reference list of (density, speed) pairs is empty")
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    bins = np.floor(pairs[:, 0] / bin_width).astype(int)
    centers = []
    means = []
    for b in np.unique(bins):
        centers.append((b + 0.5) * bin_width)
        means.append(float(np.mean(pairs[bins == b, 1])))
    return FundamentalDiagramCurve(densities=np.array(centers), speeds=np.array(means))


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _rolling_fraction(flags: np.ndarray, window: int) -> np.ndarray:
    """Count of set flags over the trailing window, divided by the window."""
    cs = np.cumsum(flags, axis=1, dtype=float)
    out = cs.copy()
    out[:, window:] = cs[:, window:] - cs[:, :-window]
    return out / window


def _alternation_flags(delta: np.ndarray, threshold: float) -> np.ndarray:
    """Sign alternations of consecutive per-step changes, both above threshold."""
    big = np.abs(delta) > threshold
    flip = np.sign(delta[:, 2:]) * np.sign(delta[:, 1:-1]) < 0
    flags = np.zeros(delta.shape, dtype=bool)
    flags[:, 2:] = flip & big[:, 2:] & big[:, 1:-1]
    return flags


def _half_hull(pts) -> list[tuple[float, float]]:
    """One monotone chain over sorted points, keeping only left turns."""
    chain: list[tuple[float, float]] = []
    for p in pts:
        x, y = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _hull_area_perimeter(points: np.ndarray) -> tuple[float, float]:
    """Convex hull area and perimeter; degenerate sets fall back to segments.

    Andrew's monotone chain on plain Python floats: per-element numpy access
    costs more than the whole hull for the few hundred points of a crowd.
    """
    pts = sorted(set(map(tuple, points.tolist())))
    if len(pts) == 1:
        return 0.0, 0.0
    if len(pts) == 2:
        return 0.0, 2.0 * math.dist(pts[0], pts[1])
    hull = _half_hull(pts)[:-1] + _half_hull(reversed(pts))[:-1]
    if len(hull) < 3:  # collinear
        return 0.0, 2.0 * math.dist(pts[0], pts[-1])
    twice_area = 0.0
    perimeter = 0.0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x0 * y1 - x1 * y0
        perimeter += math.hypot(x1 - x0, y1 - y0)
    return 0.5 * abs(twice_area), perimeter


def _inflated_area(points: np.ndarray, margin: float) -> float:
    # Minkowski sum of the hull with a disc of the margin radius.
    area, perimeter = _hull_area_perimeter(points)
    return area + perimeter * margin + math.pi * margin * margin


def _anticipation(
    ttc: np.ndarray,
    maneuver: np.ndarray,
    contact: np.ndarray,
    cap: float,
) -> np.ndarray:
    """Per (agent, step) anticipation values.

    When a predicted collision first appears for an agent, the sample at that
    step is the remaining time-to-collision at the moment the agent starts an
    avoidance manoeuvre; 0 when it never reacts before contact or clearance.
    """
    N, T = ttc.shape
    out = np.zeros((N, T))
    below = ttc < cap
    for n in range(N):
        for t0 in range(T):
            if not below[n, t0] or (t0 > 0 and below[n, t0 - 1]):
                continue
            end = t0
            while end < T and below[n, end] and not contact[n, end]:
                end += 1
            for s in range(t0, end):
                if maneuver[n, s]:
                    out[n, t0] = ttc[n, s]
                    break
    return out


def extract(crowd: CrowdTrajectory, params: FeatureParams | None = None) -> dict[str, FeatureSamples]:
    """Measure all 21 feature value sets on one crowd trajectory.

    Pairwise features only consider neighbours within the interaction
    horizon; a single-agent crowd emits neutral samples for them.  When no
    fundamental-diagram curve is supplied, FDG is measured against a curve
    fitted from this crowd's own density/speed pairs.
    """
    p = params if params is not None else FeatureParams()
    N, T = crowd.n_agents, crowd.n_steps
    if T < 2:
        raise DataError(f"need at least 2 timesteps to extract features, got {T}")
    dt = crowd.dt

    P = crowd.positions  # (N, T, 2)
    V = crowd.velocities
    S = crowd.speeds
    H = crowd.headings
    goals = crowd.goals
    comfort = crowd.comfort_speeds
    rb = crowd.body_radii
    rp = crowd.personal_radii

    # --- individual, per agent and step ---
    aws = S.copy()
    dcs = np.abs(S - comfort[:, None])

    to_goal = goals[:, None, :] - P
    goal_dist = np.linalg.norm(to_goal, axis=2)
    dot = np.sum(V * to_goal, axis=2)
    crs = V[:, :, 0] * to_goal[:, :, 1] - V[:, :, 1] * to_goal[:, :, 0]
    dgd = np.where((S > EPS_SPEED) & (goal_dist > EPS_SPEED), np.abs(np.arctan2(crs, dot)), 0.0)

    dhead = np.zeros((N, T))
    dhead[:, 1:] = _wrap_angle(H[:, 1:] - H[:, :-1])
    avl = np.abs(dhead) / dt

    accel = np.zeros((N, T))
    accel[:, 1:] = np.linalg.norm(V[:, 1:] - V[:, :-1], axis=2) / dt
    ine = accel

    dspeed = np.zeros((N, T))
    dspeed[:, 1:] = S[:, 1:] - S[:, :-1]
    fdr = _rolling_fraction(_alternation_flags(dhead, p.flicker_heading_threshold), p.flicker_window)
    fsp = _rolling_fraction(_alternation_flags(dspeed, p.flicker_speed_threshold), p.flicker_window)

    # --- per agent ---
    d_init = goal_dist[:, 0]
    d_final = goal_dist[:, -1]
    glr = np.where(d_init > EPS_SPEED, np.maximum(0.0, 1.0 - d_final / np.maximum(d_init, EPS_SPEED)), 1.0)
    path_len = np.sum(np.linalg.norm(P[:, 1:] - P[:, :-1], axis=2), axis=1)
    straight = np.linalg.norm(goals - P[:, 0, :], axis=1)
    length_ratio = path_len / np.maximum(straight, 1e-6)

    # --- pairwise, per agent and step ---
    cap = p.ttc_horizon
    if N > 1:
        # Coordinate-major (2, T, N) copies: each chunk's relative vectors
        # then have contiguous x and y planes, which the kernels read faster.
        PC = np.ascontiguousarray(P.transpose(2, 1, 0))
        VC = np.ascontiguousarray(V.transpose(2, 1, 0))
        eye = np.eye(N, dtype=bool)
        body_sum = rb[:, None] + rb[None, :]
        personal_sum = rp[:, None] + rp[None, :]

        # Per (t, i) reductions over the neighbours j, filled chunk by chunk.
        nn = np.empty((T, N))
        near = np.empty((T, N), dtype=np.intp)
        touching = np.empty((T, N), dtype=bool)
        overlap = np.empty((T, N))
        ttc_t = np.empty((T, N))
        has = np.empty((T, N), dtype=bool)
        tca_sel = np.empty((T, N))
        dca_sel = np.empty((T, N))

        chunk = max(1, _PAIR_BUDGET // (N * N))
        for t0 in range(0, T, chunk):
            ts = slice(t0, t0 + chunk)
            # [t, i, j] = p_j - p_i, as (chunk, N, N, 2) views of the planes
            dp = np.moveaxis(PC[:, ts, None, :] - PC[:, ts, :, None], 0, -1)
            dv = np.moveaxis(VC[:, ts, None, :] - VC[:, ts, :, None], 0, -1)
            dx, dy = dp[..., 0], dp[..., 1]
            dist = np.sqrt(dx * dx + dy * dy)
            dist[:, eye] = np.inf

            nn[ts] = dist.min(axis=2)
            neighbor = dist <= p.interaction_horizon
            near[ts] = (dist <= p.local_density_radius).sum(axis=2)
            touching[ts] = (dist < body_sum).any(axis=2)
            overlap[ts] = np.maximum(0.0, personal_sum - dist).max(axis=2)

            ttc_pair = time_to_collision_arrays(dp, dv, body_sum, cap)
            ttc_t[ts] = np.where(neighbor, ttc_pair, cap).min(axis=2)

            tca_pair, dca_pair = closest_approach_arrays(dp, dv)
            cand = neighbor & (tca_pair < cap)
            j_star = np.where(cand, dca_pair, np.inf).argmin(axis=2)[:, :, None]
            has[ts] = cand.any(axis=2)
            tca_sel[ts] = np.take_along_axis(tca_pair, j_star, axis=2)[:, :, 0]
            dca_sel[ts] = np.take_along_axis(dca_pair, j_star, axis=2)[:, :, 0]

        dta = np.minimum(nn, p.interaction_horizon).T
        ldn = near.T / (math.pi * p.local_density_radius**2)
        contact = touching.T
        col = contact.astype(float)
        ovp = overlap.T
        ttc = ttc_t.T
        tca = np.where(has, tca_sel, cap).T
        dca = np.where(has.T, dca_sel.T, dta)

        lam = np.array([N / _inflated_area(P[:, t], p.area_margin) for t in range(T)])
        edn = (nn * 2.0 * np.sqrt(lam)[:, None]).T
    else:
        horizon = p.interaction_horizon
        dta = np.full((N, T), horizon)
        ldn = np.zeros((N, T))
        col = np.zeros((N, T))
        contact = np.zeros((N, T), dtype=bool)
        ovp = np.zeros((N, T))
        ttc = np.full((N, T), cap)
        tca = np.full((N, T), cap)
        dca = np.full((N, T), horizon)
        edn = np.ones((N, T))  # neutral: ideal uniform-scatter ratio

    ist = np.where(ttc < cap, np.exp(-ttc / p.ist_tau), 0.0)

    maneuver = (avl > p.maneuver_turn_rate) | (np.abs(dspeed) / dt > p.maneuver_accel)
    maneuver[:, 0] = False
    ian = _anticipation(ttc, maneuver, contact, cap)

    # --- global, per step ---
    curve = p.fd_curve
    if curve is None:
        curve = fundamental_diagram_curve(
            np.column_stack([ldn.ravel(), aws.ravel()]), p.fd_bin_width
        )
    fdg = np.mean(S - curve.query(ldn), axis=0)

    mean_speed = S.mean(axis=0)
    spread = S.std(axis=0)
    var = np.where(mean_speed > 1e-9, spread / np.maximum(mean_speed, 1e-9), 0.0)

    values = {
        "AWS": aws,
        "DGD": dgd,
        "INE": ine,
        "FDR": fdr,
        "FSP": fsp,
        "GLR": glr,
        "DCS": dcs,
        "AVL": avl,
        "LEN": length_ratio,
        "EDN": edn,
        "COL": col,
        "LDN": ldn,
        "DTA": dta,
        "TTC": ttc,
        "IST": ist,
        "TCA": tca,
        "OVP": ovp,
        "FDG": fdg,
        "IAN": ian,
        "DCA": dca,
        "VAR": var,
    }
    return {code: FeatureSamples(code=code, values=values[code]) for code in FEATURE_CODES}


def with_curve(params: FeatureParams | None, curve: FundamentalDiagramCurve) -> FeatureParams:
    """Copy of the params with the reference fundamental-diagram curve set."""
    base = params if params is not None else FeatureParams()
    return replace(base, fd_curve=curve)


def merge_flat_samples(maps: list[dict[str, FeatureSamples]]) -> dict[str, np.ndarray]:
    """Concatenate the flat sample vectors of several crowds, per feature."""
    return {
        code: np.concatenate([m[code].flat() for m in maps]) for code in FEATURE_CODES
    }
