"""Trajectory feature extraction.

Twenty-one features are measured on a crowd trajectory, identified by
three-letter codes.  Seventeen produce one sample per agent per timestep,
two (GLR, LEN) one sample per agent, and two (FDG, VAR) one sample per
timestep.  Pairwise features aggregate over neighbours within an interaction
horizon so that every feature emits a fixed-size sample set.

TTC, TCA, DCA, IST and IAN come from one linear-motion pair kernel,
``pairwise_arrays``.  It works on x and y planes (a reduction over a size-2
axis costs more than its arithmetic) and in place, to hold few temporaries.

``extract`` runs the pairwise pass in equal chunks of timesteps on one
worker per CPU this process may use (``usable_cpus()``), but never on more
workers than there are steps, than get ``_WORKER_PAIRS`` pairs each, or than
fit one step each in ``_PAIR_BUDGET``: the calling thread and plain helper
threads, joined before it returns.  Each (t, i) reduction over the
neighbours is computed whole by one worker, so the features are bitwise the
same for every worker count.  All workers together hold at most
max(``_PAIR_BUDGET``, N^2) neighbour pairs.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .trajectory import EPS_SPEED, CrowdTrajectory

# Neighbour pairs (t, i, j) the pairwise pass holds at once, over all its
# workers: 0.5 MB per float64 array, so a chunk's planes stay near the L2 cache
# and extract's memory grows neither with the recording length nor the CPUs.
_PAIR_BUDGET = 1 << 16
# Neighbour pairs a worker of the pairwise pass gets at least.  Below about
# this many, numpy's per-call cost and the hand-offs of the interpreter lock
# between workers outweigh the split: at N = 12 and T = 110 (7,920 pairs per
# worker) two workers took 1.1-1.3 ms against 0.9 ms for one, on 2 vCPUs.
_WORKER_PAIRS = 1 << 13

# Constants of the feature definitions.
INTERACTION_HORIZON = 30.0  # m, neighbours beyond this are ignored
TTC_HORIZON = 10.0  # s, pairwise times are capped here; a later collision is none
IST_TAU = 2.0  # s, decay constant of interaction strength
FLICKER_WINDOW = 10  # steps (1 s at canonical dt)
FLICKER_HEADING_THRESHOLD = 0.15  # rad per step
FLICKER_SPEED_THRESHOLD = 0.1  # m/s per step
LOCAL_DENSITY_RADIUS = 2.0  # m
AREA_MARGIN = 1.0  # m, inflation of the crowd extent for EDN
MANEUVER_TURN_RATE = 0.3  # rad/s, avoidance-manoeuvre onset
MANEUVER_ACCEL = 0.5  # m/s^2
FD_BIN_WIDTH = 0.5  # persons/m^2, density bins of the fundamental diagram

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


def fundamental_diagram_curve(
    reference, bin_width: float = FD_BIN_WIDTH
) -> FundamentalDiagramCurve:
    """Fit the piecewise-constant curve from (density, speed) pairs."""
    pairs = np.asarray(reference, dtype=float)
    if pairs.size == 0:
        raise ValueError("reference list of (density, speed) pairs is empty")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"reference must be (M, 2) density/speed pairs, got shape {pairs.shape}")
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
    if not np.all(pairs[:, 0] < 2.0**53 * bin_width):  # bin indices must be exact integers
        raise ValueError(f"bin_width {bin_width} is too small: a density spans 2**53 or more bins")
    bins = np.floor(pairs[:, 0] / bin_width).astype(int)
    centers = []
    means = []
    for b in np.unique(bins):
        centers.append((b + 0.5) * bin_width)
        means.append(float(np.mean(pairs[bins == b, 1])))
    return FundamentalDiagramCurve(densities=np.array(centers), speeds=np.array(means))


def fd_gap(speeds: np.ndarray, ldn: np.ndarray, curve: FundamentalDiagramCurve) -> np.ndarray:
    """FDG samples: per step, the crowd's mean speed gap to the curve."""
    return np.mean(speeds - curve.query(ldn), axis=0)


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


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _run_workers(work, workers: int):
    """Run ``work(k)`` for k in range(workers): k = 0 on this thread, the rest
    on helper threads, all joined before this returns.

    A plain thread starts with a fresh ``np.errstate``, so each helper runs in
    a copy of this thread's context and computes under the caller's error
    state.  An exception raised in a helper is raised here after the join.
    Returns what ``work(0)`` returns.
    """
    errors = []

    def helper(k):
        try:
            work(k)
        except BaseException as exc:  # raised again in the caller below
            errors.append(exc)

    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(helper, k))
        for k in range(1, workers)
    ]
    try:
        for thread in helpers:
            thread.start()
        kept = work(0)
    finally:
        for thread in helpers:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[0]
    return kept


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


def _hull_area_perimeter(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convex hull area and perimeter of each row's points (X[t], Y[t]).

    Quickhull run on every row at once, so the number of numpy rounds is the
    recursion depth, not the number of points.  Segments stay in CCW order
    from each row's lexicographic-min point, the order of Andrew's monotone
    chain; points with zero cross are dropped as the chain drops collinear
    ones.  A single distinct point gives (0, 0), and a segment, collinear or
    not, has area 0 and is counted on both sides in the perimeter.
    """
    T, N = X.shape
    xs, ys = X.ravel(), Y.ravel()
    order = np.lexsort((Y, X)) + (np.arange(T) * N)[:, None]
    first, last = order[:, 0], order[:, -1]
    # Flat segment list, row by row: p -> q, hull interior on the left.
    p = np.column_stack([first, last]).ravel()
    q = np.column_stack([last, first]).ravel()

    def right_of(c, a, b):
        # Positive when point c lies right of a -> b, outside the hull.
        return (xs[c] - xs[a]) * (ys[b] - ys[a]) - (ys[c] - ys[a]) * (xs[b] - xs[a])

    # Candidate points (cand) of each segment (seg): a row's points right of
    # first -> last go to that segment, the rest to last -> first.
    cand = np.arange(T * N)
    upper = right_of(cand.reshape(T, N), first[:, None], last[:, None]) <= 0
    seg = (2 * np.arange(T)[:, None] + upper).ravel()
    while True:
        right = right_of(cand, p[seg], q[seg])
        keep = right > 0
        seg, cand, right = seg[keep], cand[keep], right[keep]
        if not cand.size:
            break
        # Each segment's farthest outside point, the lowest index on ties.
        farthest = np.zeros(len(p))
        np.maximum.at(farthest, seg, right)
        tie = right == farthest[seg]
        far = np.full(len(p), T * N)
        np.minimum.at(far, seg[tie], cand[tie])
        split = far < T * N
        # p -> far -> q replaces p -> q.  A point right of p -> far moves to
        # that segment, the rest to far -> q; the next round drops those
        # inside the triangle p, far, q, far itself included (its cross is 0).
        width = 1 + split
        head = np.cumsum(width) - width
        p, q = np.repeat(p, width), np.repeat(q, width)
        q[head[split]] = far[split]
        p[head[split] + 1] = far[split]
        seg = head[seg] + (right_of(cand, p[head[seg]], far[seg]) <= 0)
    # Row sums in hull order over zero-padded terms: cumsum adds sequentially
    # (np.sum adds pairwise), so padding never changes a row's rounding.
    row = p // N
    counts = np.bincount(row, minlength=T)
    col = np.arange(len(p)) - np.repeat(np.cumsum(counts) - counts, counts)
    cross = np.zeros((T, counts.max()))
    edge = np.zeros((T, counts.max()))
    cross[row, col] = xs[p] * ys[q] - xs[q] * ys[p]
    edge[row, col] = np.hypot(xs[q] - xs[p], ys[q] - ys[p])
    area = 0.5 * np.abs(np.cumsum(cross, axis=1)[:, -1])
    return area, np.cumsum(edge, axis=1)[:, -1]


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
    below = ttc < cap
    start = below.copy()
    start[:, 1:] &= ~below[:, :-1]
    steps = np.arange(T)

    def next_index(flags):
        # Per (agent, step) t: the first s >= t with flags[s], else T.
        idx = np.where(flags, steps, T)
        return np.minimum.accumulate(idx[:, ::-1], axis=1)[:, ::-1]

    next_man = next_index(maneuver)
    react = start & (next_man < next_index(~below | contact))
    out = np.zeros((N, T))
    n, t = np.nonzero(react)
    out[n, t] = ttc[n, next_man[n, t]]
    return out


def extract(
    crowd: CrowdTrajectory, curve: FundamentalDiagramCurve | None = None
) -> dict[str, np.ndarray]:
    """Measure all 21 feature value sets on one crowd trajectory.

    Returns the sample arrays keyed by code in listing order: (N, T) for
    per-agent-time codes, (N,) for per-agent codes and (T,) for per-time
    codes, as ``GRANULARITY`` says.  Callers ravel them (agent-major)
    before reducing them.

    Pairwise features only consider neighbours within the interaction
    horizon; a single-agent crowd emits neutral samples for them.  FDG is
    measured against ``curve``, or, when it is None, against a curve fitted
    from this crowd's own density/speed pairs.

    The pairwise pass runs on up to ``usable_cpus()`` workers; the result
    does not depend on their number.
    """
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
    fdr = _rolling_fraction(_alternation_flags(dhead, FLICKER_HEADING_THRESHOLD), FLICKER_WINDOW)
    fsp = _rolling_fraction(_alternation_flags(dspeed, FLICKER_SPEED_THRESHOLD), FLICKER_WINDOW)

    # --- per agent ---
    d_init = goal_dist[:, 0]
    d_final = goal_dist[:, -1]
    glr = np.where(d_init > EPS_SPEED, np.maximum(0.0, 1.0 - d_final / np.maximum(d_init, EPS_SPEED)), 1.0)
    path_len = np.sum(np.linalg.norm(P[:, 1:] - P[:, :-1], axis=2), axis=1)
    straight = np.linalg.norm(goals - P[:, 0, :], axis=1)
    length_ratio = path_len / np.maximum(straight, 1e-6)

    # --- pairwise, per agent and step ---
    cap = TTC_HORIZON
    # Coordinate-major (T, N) copies: each chunk's relative planes are then
    # built contiguous, straight from them.
    X, Y = np.ascontiguousarray(P[:, :, 0].T), np.ascontiguousarray(P[:, :, 1].T)
    VX, VY = np.ascontiguousarray(V[:, :, 0].T), np.ascontiguousarray(V[:, :, 1].T)
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

    # Equal chunks of at most `steps` steps, a multiple of the workers in
    # number, so the workers share the steps evenly; worker k takes chunks k,
    # k + workers, and so on.
    workers = max(
        1, min(usable_cpus(), T, T * N * N // _WORKER_PAIRS, _PAIR_BUDGET // (N * N))
    )
    steps = max(1, _PAIR_BUDGET // (workers * N * N))
    n_chunks = workers * -(-T // (workers * steps))

    def pass_chunks(k: int) -> tuple:
        for c in range(k, n_chunks, workers):
            ts = slice(T * c // n_chunks, T * (c + 1) // n_chunks)
            # [t, i, j] = p_j - p_i and v_j - v_i
            dx = X[ts, None, :] - X[ts, :, None]
            dy = Y[ts, None, :] - Y[ts, :, None]
            ux = VX[ts, None, :] - VX[ts, :, None]
            uy = VY[ts, None, :] - VY[ts, :, None]
            dist, ttc_pair, tca_pair, dca_pair = pairwise_arrays(dx, dy, ux, uy, body_sum, cap)
            del dx, dy, ux, uy
            dist.reshape(len(dist), N * N)[:, :: N + 1] = np.inf  # no self-pairs

            nn[ts] = dist.min(axis=2)
            neighbor = dist <= INTERACTION_HORIZON
            near[ts] = (dist <= LOCAL_DENSITY_RADIUS).sum(axis=2)
            touching[ts] = (dist < body_sum).any(axis=2)
            np.maximum((personal_sum - dist).max(axis=2), 0.0, out=overlap[ts])
            np.minimum.reduce(ttc_pair, axis=2, out=ttc_t[ts], where=neighbor, initial=cap)

            cand = neighbor & (tca_pair < cap)
            dca_pair[~cand] = np.inf
            j_star = dca_pair.argmin(axis=2)[:, :, None]
            has[ts] = cand.any(axis=2)
            tca_sel[ts] = np.take_along_axis(tca_pair, j_star, axis=2)[:, :, 0]
            dca_sel[ts] = np.take_along_axis(dca_pair, j_star, axis=2)[:, :, 0]
        return dist, ttc_pair, tca_pair, dca_pair, neighbor, cand, j_star

    # The calling thread's last chunk is held until extract returns, as a plain
    # loop would hold it.  Freed before the arrays below are allocated, it lets
    # malloc shrink its heap, and those arrays then fault the pages back in: a
    # fifth of extract's time at N = 12 (1.15 against 0.92 ms).
    last_chunk = _run_workers(pass_chunks, workers)

    dta = np.minimum(nn, INTERACTION_HORIZON).T
    ldn = near.T / (math.pi * LOCAL_DENSITY_RADIUS**2)
    contact = touching.T
    col = contact.astype(float)
    ovp = overlap.T
    ttc = ttc_t.T
    tca = np.where(has, tca_sel, cap).T
    dca = np.where(has.T, dca_sel.T, dta)

    if N > 1:
        area, perimeter = _hull_area_perimeter(X, Y)
        # Minkowski sum of the hull with a disc of the margin radius.
        lam = N / (area + perimeter * AREA_MARGIN + math.pi * AREA_MARGIN * AREA_MARGIN)
        edn = (nn * 2.0 * np.sqrt(lam)[:, None]).T
    else:
        edn = np.ones((N, T))  # no neighbour: the ideal uniform-scatter ratio

    ist = np.where(ttc < cap, np.exp(-ttc / IST_TAU), 0.0)

    maneuver = (avl > MANEUVER_TURN_RATE) | (np.abs(dspeed) / dt > MANEUVER_ACCEL)
    maneuver[:, 0] = False
    ian = _anticipation(ttc, maneuver, contact, cap)

    # --- global, per step ---
    if curve is None:
        curve = fundamental_diagram_curve(np.column_stack([ldn.ravel(), aws.ravel()]))
    fdg = fd_gap(S, ldn, curve)

    mean_speed = S.mean(axis=0)
    spread = S.std(axis=0)
    var = np.where(mean_speed > 1e-9, spread / np.maximum(mean_speed, 1e-9), 0.0)

    return {
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
