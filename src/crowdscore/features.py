"""Trajectory feature extraction.

Twenty-one features are measured on a crowd trajectory, identified by
three-letter codes.  Seventeen produce one sample per agent per timestep,
two (GLR, LEN) one sample per agent, and two (FDG, VAR) one sample per
timestep.  Pairwise features aggregate over neighbours within an interaction
horizon so that every feature emits a fixed-size sample set.

TTC, TCA, DCA, IST and IAN come from one linear-motion pair kernel,
``pairwise_arrays``.  It works on x and y planes (a reduction over a size-2
axis costs more than its arithmetic), in place in scratch planes its caller
allocates, so it allocates nothing.

``extract`` runs the pairwise pass in slabs (j, t, i) of up to
``_PAIR_BUDGET`` neighbour pairs.  Neighbours j lead, so each reduction over
them is an elementwise accumulation of contiguous (t, i) planes, not a short
reduction per (t, i) row.  A crowd whose pairs fit one slab is one slab of
every pair, both ways round.  A larger crowd of at least twice
``_BLOCK_ROWS`` agents, or one whose step of N^2 pairs does not fit a slab,
is cut into equal row blocks [r0, r1) of agents i, and block m's slab holds
only the neighbours j >= r0.  The kernel's outputs are bitwise symmetric in
(i, j), so a pair with j past the block is reduced over j into agent i and
over i into agent j, and the kernel sees each such pair once.

The (T, N) reductions (min, max, sum, or) merge block by block, in ascending
order, so an agent meets its neighbours in ascending j; the DCA candidate
keeps the first j on ties, argmin's rule, as a later block replaces it only
when strictly nearer.  The steps are cut into equal time chunks, each owned
whole by one worker, which runs every block of it in turn.  Each block's slab
takes as many of the chunk's steps as fit the pairs of one slab of all N rows
(whole steps, or one step's rows in equal blocks where a step does not fit),
so no slab is larger than without blocks.

A crowd gets a second worker only when its pairs fill more than one slab,
and then one worker per CPU this thread may use (``usable_cpus()``), but
never more than it has slabs or steps or than ``_MAX_WORKERS``.  The workers
are the shares of ``run_shares``: the caller and forked children, each
pinned to its own CPU, writing the (T, N) reductions into shared memory.
Each worker allocates its seven float64 and four bool planes once, 60 bytes
a pair, and they are freed when it ends.  A worker holds at most
``_PAIR_BUDGET`` pairs, or one row of N pairs where that is more.  Each
(t, i) reduction is computed by the one worker that owns its step, and its
merges are exact in any grouping (min, max, or, integer sums, the first j of
least DCA), so the features are bitwise the same for every worker count,
slab shape and block count.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .trajectory import EPS_SPEED, CrowdTrajectory

# Neighbour pairs (j, t, i) a worker of the pairwise pass holds at once:
# 0.5 MB per float64 plane, so a slab's planes stay near one core's L2 cache
# and extract's memory does not grow with the recording length.  A row
# block's slab (below) holds no more pairs than the slab of whole steps of
# all N rows that this budget gives, so blocks add no memory.  Each worker
# gets a whole budget, not a share of one: smaller slabs make more, shorter
# numpy calls.  At N = 150 and T = 100 on 2 vCPUs, two thread workers took
# 1.02x the time of one with slabs of 11,250 pairs, 0.72x with 22,500 and
# 0.64x with 45,000.  One slab is also the least work worth a second worker:
# at T = 110 on 2 vCPUs, extract on two workers took 1.09x the time of one at
# N = 20 (44,000 pairs, one slab), 0.92x at N = 28 (two slabs), 0.85x at
# N = 40 and 0.70x at N = 150.
_PAIR_BUDGET = 1 << 16
# Agent rows per block of the pairwise pass: a crowd that fills more than one
# slab is cut into N // _BLOCK_ROWS blocks, each holding only its neighbours
# from its first row on.  With blocks of fewer rows the numpy calls cost more
# than the pairs they save.  Against one block, extract on 2 vCPUs (medians
# of 12 alternated runs) took, at N = 150 and T = 100, 0.88-0.90x the time
# with 2 blocks of 75 rows, 0.85-0.89x with 3 of 50, 0.88-0.92x with 4 or 5
# (0.82x with 3 on one worker); 0.92x at N = 100 with 2 blocks of 50, and
# 1.02x at N = 75 with 2 of 37 or 38; at N = 300, 0.90x with 6 blocks of 50
# against the 2 that its 90,000 pairs a step need.
_BLOCK_ROWS = 50
# Workers of the pairwise pass at most, whatever the CPU count, so that at
# most about 31 MB of planes are in flight on any host.
_MAX_WORKERS = 8

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


def _norm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Length of (x, y), bitwise ``np.linalg.norm`` over a size-2 last axis."""
    return np.sqrt(x * x + y * y)


def usable_cpus() -> int:
    """The number of CPUs the calling thread may run on, read from its CPU
    affinity; 1 without one (off Linux), where ``run_shares`` forks nothing."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def shared_empty(shape, dtype=float) -> np.ndarray:
    """An array in anonymous shared memory: the writes of a forked share of
    ``run_shares`` to it are seen by its caller."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.ndarray(shape, dtype, buffer=mmap.mmap(-1, max(1, size)))


def run_shares(work, k: int) -> None:
    """Run ``work(s)`` for the shares s in range(k) at once.

    Share 0 runs here, pinned to the caller's first CPU; each other share
    runs in a forked child pinned to the next CPU round the caller's
    affinity, which inherits the caller's state (``np.errstate`` too) and
    returns its results in ``shared_empty`` arrays.  Every child is reaped
    and the caller's affinity restored before this returns.  A share whose
    fork or child fails runs again here, where ``work``, being deterministic,
    raises its error; if share 0 raises, the children are killed.  Without
    ``os.fork`` or CPU affinity, or while another Python thread is alive
    (forking under it is unsafe), the shares run here one by one.
    """
    forkable = hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
    if k < 2 or not forkable or threading.active_count() > 1:
        for s in range(k):
            work(s)
        return
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    children, rerun = {}, []
    try:
        for s in range(1, k):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the share runs here
                rerun.append(s)
                continue
            if pid == 0:
                status = 1
                try:
                    os.sched_setaffinity(0, {cpus[s % len(cpus)]})
                    work(s)
                    status = 0
                finally:
                    os._exit(status)
            children[s] = pid
        os.sched_setaffinity(0, {cpus[0]})
        work(0)
    except BaseException:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.sched_setaffinity(0, mask)
        for s, pid in children.items():
            if os.waitpid(pid, 0)[1]:
                rerun.append(s)
    for s in sorted(rerun):
        work(s)


def pairwise_arrays(dx, dy, ux, uy, radius_sum, planes):
    """(dist, ttc, tca, dca) from relative position and velocity planes.

    ``dx, dy`` are the components of p_b - p_a and ``ux, uy`` those of
    v_b - v_a, as float64 arrays of one shape (at least 1-D); ``radius_sum``
    broadcasts to that shape; ``extract`` passes (j, t, i) slabs, neighbour j
    first.  |dp|^2, |dv|^2 and dp.dv are formed once: the contact quadratic
    a t^2 + b t + c = 0 has a = |dv|^2, b = 2 dp.dv and c = |dp|^2 -
    radius_sum^2.

    dist is the current distance.  tca >= 0 is the time to closest approach
    and dca the distance then (tca 0 without relative motion).  ttc is the
    smallest t >= 0 with |dp + t dv| = radius_sum, capped at TTC_HORIZON:
    overlapping discs give 0, diverging pairs and misses TTC_HORIZON.

    Nothing is allocated.  ``planes`` is a pair of scratch stacks of the
    input shape, (3, *shape) float64 and (4, *shape) bool.  dist is written
    into ``dx``, dca into ``ux``, and ttc and tca into the first two float
    planes; ``dy``, ``uy``, the third float plane and the bool planes are
    overwritten with scratch.
    """
    (ttc, tca, dv2), (moving, hit, flag, overlapping) = planes
    tmp = tca  # free until tca is computed
    np.multiply(ux, ux, out=dv2)
    dv2 += np.multiply(uy, uy, out=tmp)
    ndot = np.multiply(dx, ux, out=ttc)
    ndot += np.multiply(dy, uy, out=tmp)
    np.negative(ndot, out=ndot)  # -dp.dv, so -b = 2 * ndot exactly
    np.greater(dv2, EPS_SPEED**2, out=moving)
    # Divisors of 1 where the pair does not move: cheaper than divisions
    # masked by where=, and every such quotient is overwritten.
    np.putmask(dv2, np.logical_not(moving, out=flag), 1.0)

    np.divide(ndot, dv2, out=tca)
    np.putmask(tca, flag, 0.0)
    np.maximum(tca, 0.0, out=tca)
    dca = np.multiply(tca, ux, out=ux)
    dca += dx
    dca *= dca
    cy = np.multiply(tca, uy, out=uy)
    cy += dy
    cy *= cy
    dca += cy
    np.sqrt(dca, out=dca)

    dist = np.multiply(dx, dx, out=dx)  # |dp|^2 until the sqrt below
    dist += np.multiply(dy, dy, out=uy)
    c = np.subtract(dist, np.square(radius_sum, out=dy), out=dy)
    np.less_equal(c, 0.0, out=overlapping)  # already overlapping; c's plane is reused
    np.sqrt(dist, out=dist)
    neg_b = np.multiply(ndot, 2.0, out=ndot)
    disc = np.multiply(dv2, 4.0, out=uy)
    disc *= c
    np.subtract(np.multiply(neg_b, neg_b, out=dy), disc, out=disc)
    np.greater_equal(disc, 0.0, out=hit)
    hit &= moving
    root = np.maximum(disc, 0.0, out=disc)
    np.sqrt(root, out=root)
    t_hit = np.subtract(neg_b, root, out=neg_b)
    dv2 *= 2.0
    np.divide(t_hit, dv2, out=t_hit)
    hit &= np.greater_equal(t_hit, 0.0, out=flag)
    np.minimum(t_hit, TTC_HORIZON, out=t_hit)
    np.putmask(t_hit, np.logical_not(hit, out=flag), TTC_HORIZON)
    np.putmask(t_hit, overlapping, 0.0)
    return dist, t_hit, tca, dca


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


def _anticipation(ttc: np.ndarray, maneuver: np.ndarray, contact: np.ndarray) -> np.ndarray:
    """Per (agent, step) anticipation values.

    When a predicted collision first appears for an agent, the sample at that
    step is the remaining time-to-collision at the moment the agent starts an
    avoidance manoeuvre; 0 when it never reacts before contact or clearance.
    """
    N, T = ttc.shape
    below = ttc < TTC_HORIZON
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
    does not depend on their number.  A (t, i) whose DCA is NaN, which only a
    NaN velocity reaches (a blown-up crowd scored under
    ``np.errstate(all="ignore")``), gets a NaN TCA too: no neighbour is the
    nearest then, whatever block held the NaN pair.
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

    # --- pairwise, per agent and step ---
    # Coordinate-major (T, N) copies: each slab's relative planes are then
    # built contiguous, straight from them.
    X, Y = np.ascontiguousarray(P[:, :, 0].T), np.ascontiguousarray(P[:, :, 1].T)
    VX, VY = np.ascontiguousarray(V[:, :, 0].T), np.ascontiguousarray(V[:, :, 1].T)
    body_sum = rb[:, None] + rb[None, :]
    personal_sum = rp[:, None] + rp[None, :]

    # Row blocks [r0, r1) of agents i, each in slabs (j, t, i) against the
    # neighbours j >= r0 only.  One block where every pair fits one slab,
    # else N // _BLOCK_ROWS blocks, or more where a block's step of rows
    # would not fit a slab.  A block's slab takes as many steps (its span) as
    # fit the pairs of a slab of all N rows: whole steps of N^2 pairs, or,
    # where a step does not fit, one step's rows in equal parts.  The steps
    # go in equal chunks of up to the longest span, a multiple of the workers
    # in number; worker w takes chunks w, w + workers, and so on, and runs
    # each block over the chunk in turn, in slabs of up to its span.  A crowd
    # gets as many workers as it has slabs at one worker, up to the CPUs, the
    # steps and the cap.
    rows = max(1, _PAIR_BUDGET // N)  # (t, i) rows of N pairs in a slab
    cap = N * (rows // N * N or -(-N // -(-N // rows)))
    blocks = 1 if N * T <= rows else max(N // _BLOCK_ROWS, -(-N // rows))
    bounds = [N * m // blocks for m in range(blocks + 1)]
    widths = [(N - r0) * (r1 - r0) for r0, r1 in zip(bounds, bounds[1:])]
    spans = [min(T, max(1, cap // width)) for width in widths]
    slabs = sum(-(-T // span) for span in spans)
    workers = min(usable_cpus(), _MAX_WORKERS, T, slabs)
    n_t = min(T, workers * -(-T // (workers * max(spans))))
    size = max(width * span for width, span in zip(widths, spans))

    # Per (t, i) reductions over the neighbours j, filled block by block, in
    # shared memory for forked workers (a fresh mapping's page faults would
    # slow a one-worker extract).
    empty = shared_empty if workers > 1 else np.empty
    nn = empty((T, N))
    near = empty((T, N), np.intp)
    touching = empty((T, N), bool)
    overlap = empty((T, N))
    ttc_t = empty((T, N))
    has = empty((T, N), bool)
    tca_sel = empty((T, N))
    dca_sel = empty((T, N))

    def pass_chunks(w: int) -> None:
        # Float planes on 64-byte boundaries, whole cache lines apart: at the
        # 16- and 48-byte offsets np.empty gave them, bench score-dense calls
        # took about 3% longer on two workers.
        line = -(-size // 8) * 8
        raw = np.empty(7 * line + 8)
        start = -raw.ctypes.data % 64 // 8
        floats = raw[start : start + 7 * line].reshape(7, line)
        flags = np.empty((4, size), dtype=bool)
        for c in range(w, n_t, workers):
            t0, t1 = T * c // n_t, T * (c + 1) // n_t
            for r0, r1, span in zip(bounds, bounds[1:], spans):
                subs = -(-(t1 - t0) // span)
                for s in range(subs):
                    ts = slice(t0 + (t1 - t0) * s // subs, t0 + (t1 - t0) * (s + 1) // subs)
                    block_slab(ts, r0, r1, floats, flags)

    def block_slab(ts, r0, r1, floats, flags):
        rs, b, merge = slice(r0, r1), r1 - r0, r0 > 0
        shape = (N - r0, ts.stop - ts.start, b)
        pairs = math.prod(shape)
        dx, dy, ux, uy, *scratch = floats[:, :pairs].reshape(7, *shape)
        bools = flags[:, :pairs].reshape(4, *shape)
        # [j, t, i] = p_j - p_i and v_j - v_i.  Each p_j is first copied
        # along its row of i, so the subtraction runs over whole planes.
        for plane, values in zip((dx, dy, ux, uy), (X, Y, VX, VY)):
            plane[...] = values.T[r0:, ts, None]
            np.subtract(plane, values[ts, rs], out=plane)
        body = body_sum[r0:, None, rs]
        dist, ttc_pair, tca_pair, dca_pair = pairwise_arrays(
            dx, dy, ux, uy, body, (scratch, bools)
        )
        np.einsum("iti->ti", dist[:b])[...] = np.inf  # no self-pairs (j = i)
        neighbor, flag, miss, _ = bools

        # A pair with j past the block is in the slab once and feeds both of
        # its agents' reductions: over the rows j into the block's agents i,
        # and over the block's i into agents j.  The pair kernel's
        # outputs are bitwise symmetric in (i, j).  Block 0 writes each
        # agent's first part and the later blocks merge into it, so the
        # reductions need no identity.
        sides = [(0, slice(None), lambda acc: acc[ts, rs])]
        if r1 < N:
            sides.append((2, slice(b, None), lambda acc: acc[ts, r1:].T))

        def fold(ufunc, pair_values, acc):
            for axis, part, view in sides:
                out = view(acc)
                if merge:
                    ufunc(out, ufunc.reduce(pair_values[part], axis=axis, dtype=out.dtype), out=out)
                else:
                    ufunc.reduce(pair_values[part], axis=axis, out=out)

        fold(np.minimum, dist, nn)
        fold(np.add, np.less_equal(dist, LOCAL_DENSITY_RADIUS, out=flag), near)
        fold(np.logical_or, np.less(dist, body, out=flag), touching)
        fold(np.maximum, np.subtract(personal_sum[r0:, None, rs], dist, out=dy), overlap)
        np.less_equal(dist, INTERACTION_HORIZON, out=neighbor)
        # TTC over the neighbours only: a pair beyond the horizon reads none
        np.putmask(ttc_pair, np.logical_not(neighbor, out=miss), TTC_HORIZON)
        fold(np.minimum, ttc_pair, ttc_t)

        # The candidate of least DCA, the first j on ties: argmin's rule.
        # Blocks reach an agent in ascending order of j, so a later block's
        # candidate replaces the earlier one only if strictly nearer.
        cand = np.less(tca_pair, TTC_HORIZON, out=flag)
        cand &= neighbor
        fold(np.logical_or, cand, has)
        np.putmask(dca_pair, np.logical_not(cand, out=miss), np.inf)
        for axis, part, view in sides:
            dca, best, chosen = dca_pair[part], view(dca_sel), view(tca_sel)
            least = np.minimum.reduce(dca, axis=axis, out=best if not merge else None)
            first = np.equal(dca, np.expand_dims(least, axis), out=flag[part]).argmax(axis=axis)
            nearest = np.take_along_axis(tca_pair[part], np.expand_dims(first, axis), axis=axis)
            if merge:
                np.copyto(chosen, nearest.squeeze(axis), where=least < best)
                np.minimum(best, least, out=best)  # NaN stays NaN
            else:
                chosen[...] = nearest.squeeze(axis)

    run_shares(pass_chunks, workers)
    np.maximum(overlap, 0.0, out=overlap)
    # A NaN DCA names no nearest neighbour, whichever block held the NaN.
    np.putmask(tca_sel, np.isnan(dca_sel), np.nan)

    # --- individual, per agent and step ---
    # After the pass, so that these (N, T) temporaries and the workers'
    # planes are never held at once.
    aws = S.copy()
    dcs = np.abs(S - comfort[:, None])

    # On x and y planes: a norm or sum over a size-2 axis is a + b, bitwise,
    # but costs more than its arithmetic.
    px, py, vx, vy = P[:, :, 0], P[:, :, 1], V[:, :, 0], V[:, :, 1]
    gx, gy = goals[:, 0, None] - px, goals[:, 1, None] - py
    goal_dist = _norm(gx, gy)
    dot = vx * gx + vy * gy
    crs = vx * gy - vy * gx
    dgd = np.where((S > EPS_SPEED) & (goal_dist > EPS_SPEED), np.abs(np.arctan2(crs, dot)), 0.0)

    dhead = np.zeros((N, T))
    dhead[:, 1:] = _wrap_angle(H[:, 1:] - H[:, :-1])
    avl = np.abs(dhead) / dt

    accel = np.zeros((N, T))
    accel[:, 1:] = _norm(np.diff(vx), np.diff(vy)) / dt
    ine = accel

    dspeed = np.zeros((N, T))
    dspeed[:, 1:] = S[:, 1:] - S[:, :-1]
    fdr = _rolling_fraction(_alternation_flags(dhead, FLICKER_HEADING_THRESHOLD), FLICKER_WINDOW)
    fsp = _rolling_fraction(_alternation_flags(dspeed, FLICKER_SPEED_THRESHOLD), FLICKER_WINDOW)

    # --- per agent ---
    d_init = goal_dist[:, 0]
    d_final = goal_dist[:, -1]
    glr = np.where(d_init > EPS_SPEED, np.maximum(0.0, 1.0 - d_final / np.maximum(d_init, EPS_SPEED)), 1.0)
    path_len = np.sum(_norm(np.diff(px), np.diff(py)), axis=1)
    straight = np.linalg.norm(goals - P[:, 0, :], axis=1)
    length_ratio = path_len / np.maximum(straight, 1e-6)

    dta = np.minimum(nn, INTERACTION_HORIZON).T
    ldn = near.T / (math.pi * LOCAL_DENSITY_RADIUS**2)
    contact = touching.T
    col = contact.astype(float)
    ovp = overlap.T
    ttc = ttc_t.T
    tca = np.where(has, tca_sel, TTC_HORIZON).T
    dca = np.where(has.T, dca_sel.T, dta)

    if N > 1:
        area, perimeter = _hull_area_perimeter(X, Y)
        # Minkowski sum of the hull with a disc of the margin radius.
        lam = N / (area + perimeter * AREA_MARGIN + math.pi * AREA_MARGIN * AREA_MARGIN)
        edn = (nn * 2.0 * np.sqrt(lam)[:, None]).T
    else:
        edn = np.ones((N, T))  # no neighbour: the ideal uniform-scatter ratio

    ist = np.where(ttc < TTC_HORIZON, np.exp(-ttc / IST_TAU), 0.0)

    maneuver = (avl > MANEUVER_TURN_RATE) | (np.abs(dspeed) / dt > MANEUVER_ACCEL)
    maneuver[:, 0] = False
    ian = _anticipation(ttc, maneuver, contact)

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
