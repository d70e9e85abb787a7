"""Social-forces crowd simulator and scenario generators.

Agents relax toward comfort speed along the goal direction and push each
other apart with an exponential repulsion of the body discs.  Integration is
explicit Euler on the canonical timestep; agents hold position once within
the goal radius.  Scenario builders cover three layouts: circle, crossing
flows, and random scatter.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import features
from .errors import ConfigError, DataError
from .keyvalue import decode_input, parse_float, parse_keyvalue, read_input, write_keyvalue
from .trajectory import CANONICAL_DT, DEFAULT_BODY_RADIUS, CrowdTrajectory, derive_kinematics

GOAL_RADIUS = 0.3  # m, agents inside hold position

# Comfort speed distribution (m/s): Normal(1.4, 0.15) clamped to [0.8, 2.0].
COMFORT_MEAN = 1.4
COMFORT_STD = 0.15
COMFORT_RANGE = (0.8, 2.0)

_MIN_CLEARANCE = 0.1  # m of extra spacing required between spawn discs


@dataclass
class SocialForcesParams:
    relaxation_time: float = 0.5  # s
    repulsion_strength: float = 2.1  # m/s^2
    repulsion_range: float = 0.35  # m
    max_speed: float = 2.5  # m/s
    noise_amplitude: float = 0.0  # m/s^2

    def __post_init__(self) -> None:
        check_genomes(params_to_genome(self)[None])


PARAM_NAMES = (
    "relaxation_time",
    "repulsion_strength",
    "repulsion_range",
    "max_speed",
    "noise_amplitude",
)

# Parameters that may be 0: repulsion-free runs are the no-avoidance baseline.
_ZERO_OK = np.isin(PARAM_NAMES, ("repulsion_strength", "noise_amplitude"))

# Search box for the tuner, one (low, high) per parameter in PARAM_NAMES order.
TUNE_BOUNDS = (
    (0.1, 2.0),
    (0.0, 8.0),
    (0.05, 1.5),
    (2.0, 4.0),
    (0.0, 1.5),
)


def check_genomes(genomes: np.ndarray) -> None:
    """Raise ConfigError unless each row of the (P, 5) block is a valid parameter set."""
    if genomes.ndim != 2 or genomes.shape[1] != len(PARAM_NAMES):
        raise ConfigError(f"expected a (P, 5) parameter block, got shape {genomes.shape}")
    ok = np.isfinite(genomes) & np.where(_ZERO_OK, genomes >= 0, genomes > 0)
    if not ok.all():
        row, col = np.argwhere(~ok)[0]
        bound = ">=" if _ZERO_OK[col] else ">"
        value = genomes[row, col]
        raise ConfigError(f"{PARAM_NAMES[col]} must be finite and {bound} 0, got {value}")


def params_to_genome(params: SocialForcesParams) -> np.ndarray:
    return np.array([getattr(params, name) for name in PARAM_NAMES])


def genome_to_params(genome) -> SocialForcesParams:
    values = np.asarray(genome, dtype=float)
    if values.shape != (len(PARAM_NAMES),):
        raise ConfigError(f"expected {len(PARAM_NAMES)} parameters, got shape {values.shape}")
    return SocialForcesParams(**{n: float(v) for n, v in zip(PARAM_NAMES, values)})


SCENARIO_KINDS = ("circle", "crossing", "random")


@dataclass
class Scenario:
    """Initial-condition recipe for one simulated crowd."""

    kind: str
    agent_count: int
    radius: float = 8.0  # m: circle radius, or crossing approach distance
    area: tuple[float, float] = (12.0, 12.0)  # m, random-kind rectangle
    angle_deg: float = 90.0  # crossing flows' direction difference
    density_target: float | None = None  # persons/m^2, overrides radius/area
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}, expected {SCENARIO_KINDS}")
        if self.agent_count < 1:
            raise ConfigError(f"agent_count must be >= 1, got {self.agent_count}")
        if not 0 < self.radius < math.inf:
            raise ConfigError(f"radius must be finite and > 0, got {self.radius}")
        if len(self.area) != 2 or not all(0 < a < math.inf for a in self.area):
            raise ConfigError(f"area must be two finite positive extents, got {self.area}")
        if not math.isfinite(self.angle_deg):
            raise ConfigError(f"angle_deg must be finite, got {self.angle_deg}")
        if self.density_target is not None and not 0 < self.density_target < math.inf:
            raise ConfigError(f"density_target must be finite and > 0, got {self.density_target}")


@dataclass
class CrowdSetup:
    """Spawn state produced by make_scenario."""

    positions: np.ndarray  # (N, 2)
    goals: np.ndarray  # (N, 2)
    comfort_speeds: np.ndarray  # (N,)
    body_radii: np.ndarray  # (N,)


def _check_clearance(positions: np.ndarray, radii: np.ndarray, what: str) -> None:
    n = positions.shape[0]
    if n < 2:
        return
    d = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    need = radii[:, None] + radii[None, :]
    np.fill_diagonal(d, np.inf)
    if np.any(d < need):
        raise ConfigError(f"cannot place {n} agents without overlapping {what}")


def make_scenario(scenario: Scenario) -> CrowdSetup:
    """Spawn positions, goals and comfort speeds for a scenario (seeded)."""
    n = scenario.agent_count
    rng = np.random.default_rng(scenario.seed)
    comfort = np.clip(
        rng.normal(COMFORT_MEAN, COMFORT_STD, size=n), COMFORT_RANGE[0], COMFORT_RANGE[1]
    )
    radii = np.full(n, DEFAULT_BODY_RADIUS)

    if scenario.kind == "circle":
        radius = scenario.radius
        if scenario.density_target is not None:
            radius = _density_extent(n / (math.pi * scenario.density_target))
        angles = 2.0 * math.pi * np.arange(n) / n
        positions = radius * np.column_stack([np.cos(angles), np.sin(angles)])
        goals = -positions
    elif scenario.kind == "crossing":
        theta = math.radians(scenario.angle_deg)
        dir_a = np.array([1.0, 0.0])
        dir_b = np.array([math.cos(theta), math.sin(theta)])
        n_a = (n + 1) // 2
        positions = np.empty((n, 2))
        spacing = 1.0
        per_row = 5
        for i in range(n):
            flow_dir = dir_a if i < n_a else dir_b
            k = i if i < n_a else i - n_a
            lateral = (k % per_row - (per_row - 1) / 2.0) * spacing
            depth = scenario.radius + (k // per_row) * spacing
            normal = np.array([-flow_dir[1], flow_dir[0]])
            positions[i] = -depth * flow_dir + lateral * normal
        # Mirror each spawn through the plane orthogonal to its flow at the
        # origin, so the two goal directions differ by exactly theta.
        goals = np.empty_like(positions)
        for i in range(n):
            flow_dir = dir_a if i < n_a else dir_b
            proj = float(positions[i] @ flow_dir)
            goals[i] = positions[i] - 2.0 * proj * flow_dir
    else:  # random
        extent = scenario.area
        if scenario.density_target is not None:
            side = _density_extent(n / scenario.density_target)
            extent = (side, side)
        half = np.array(extent) / 2.0
        positions = _sample_separated(rng, n, half, radii)
        goals = _sample_separated(rng, n, half, radii)

    _check_clearance(positions, radii, "spawn discs")
    return CrowdSetup(
        positions=positions, goals=goals, comfort_speeds=comfort, body_radii=radii
    )


def _density_extent(area: float) -> float:
    """Square root of a density-derived area, which must be finite."""
    if area == math.inf:
        raise ConfigError(f"density target too low: the spawn area overflows to {area}")
    return math.sqrt(area)


def _sample_separated(
    rng: np.random.Generator, n: int, half: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Uniform points in the rectangle with pairwise disc clearance."""
    points: list[np.ndarray] = []
    attempts = 0
    max_attempts = 1000 * n
    while len(points) < n:
        if attempts >= max_attempts:
            raise ConfigError(
                f"cannot place {n} non-overlapping agents in a "
                f"{2 * half[0]:g} x {2 * half[1]:g} m area"
            )
        attempts += 1
        candidate = rng.uniform(-half, half)
        i = len(points)
        ok = all(
            np.linalg.norm(candidate - q) >= radii[i] + radii[j] + _MIN_CLEARANCE
            for j, q in enumerate(points)
        )
        if ok:
            points.append(candidate)
    return np.array(points)


def repulsion_forces(
    p: np.ndarray, radii: np.ndarray, strength: np.ndarray, reach: np.ndarray
) -> np.ndarray:
    """Summed pairwise repulsion accelerations of P crowds, shaped like ``p`` (2, P, N).

    ``strength`` and ``reach`` are the (P, 1) repulsion_strength and range.
    Above ``features._PAIR_BUDGET`` pairs the agents i go in blocks of rows;
    each row sums over j in the same order either way.
    """
    n = p.shape[2]
    active = np.count_nonzero(strength)  # cheaper than any()/all() on tiny arrays
    if n < 2 or active == 0:
        return np.zeros_like(p)
    scale, reach = strength[..., None], reach[..., None]
    rows = max(1, features._PAIR_BUDGET // p[0].size)  # p[0] is (P, N)
    forces = np.empty_like(p)
    for start in range(0, n, rows):
        i = slice(start, start + rows)
        d = p[:, :, i, None] - p[:, :, None, :]  # points from j to i
        dist = np.sqrt(d[0] ** 2 + d[1] ** 2)
        dist.reshape(len(dist), -1)[:, start :: n + 1] = np.inf  # j == i
        m = scale * np.exp((radii[i, None] + radii - dist) / reach) / np.maximum(dist, 1e-9)
        np.einsum("pij,cpij->cpi", m, d, out=forces[:, :, i])
    if active == strength.size:
        return forces
    # Repulsion-free crowds get exact zeros, as if their term were skipped.
    return np.where(strength > 0.0, forces, 0.0)


def step(
    p: np.ndarray, v: np.ndarray, reached: np.ndarray, setup: CrowdSetup,
    coeffs: tuple[np.ndarray, ...], dt: float, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One explicit-Euler step of the social-forces model for P crowds.

    ``p`` and ``v`` are (2, P, N) positions and velocities, held as x and y
    planes; ``reached`` is the (P, N) latched goal arrivals and ``coeffs``
    holds one (P, 1) array per parameter in PARAM_NAMES order.  Returns the
    next ``(p, v, reached)``.
    """
    relaxation, strength, reach, max_speed, amplitude = coeffs
    to_goal = setup.goals.T[:, None] - p
    dist_goal = np.sqrt(to_goal[0] ** 2 + to_goal[1] ** 2)
    reached = reached | (dist_goal < GOAL_RADIUS)

    goal_dir = np.where(dist_goal > 1e-9, to_goal / np.maximum(dist_goal, 1e-9), 0.0)
    acc = (setup.comfort_speeds * goal_dir - v) / relaxation
    acc += repulsion_forces(p, setup.body_radii, strength, reach)
    if np.count_nonzero(amplitude):
        # normal(0, a) draws a * standard_normal, so one draw serves every crowd.
        noise = rng.standard_normal(size=(p.shape[2], 2)).T[:, None]
        np.add(acc, amplitude * noise, out=acc, where=amplitude > 0.0)

    v_next = v + acc * dt
    speed = np.sqrt(v_next[0] ** 2 + v_next[1] ** 2)
    over = speed > max_speed
    if np.count_nonzero(over):
        v_next *= np.divide(max_speed, speed, out=np.ones_like(speed), where=over)
    p_next = p + v * dt

    v_next[:, reached] = 0.0
    p_next[:, reached] = p[:, reached]
    return p_next, v_next, reached


def simulate(
    scenario: Scenario,
    params: SocialForcesParams | None = None,
    duration: float = 20.0,
    dt: float = CANONICAL_DT,
) -> CrowdTrajectory:
    """Run a scenario for the duration and return the recorded trajectory.

    T = ceil(duration / dt) states; deterministic given the scenario seed.
    """
    if params is None:
        params = SocialForcesParams()
    return next(simulate_population(scenario, params_to_genome(params)[None], duration, dt))


def simulate_population(
    scenario: Scenario,
    genomes,
    duration: float = 20.0,
    dt: float = CANONICAL_DT,
) -> Iterator[CrowdTrajectory]:
    """Run one scenario under each row of the (P, 5) parameter block ``genomes``.

    Each row is a ``params_to_genome`` parameter set.  Yields the trajectories
    one at a time, in order; each equals ``simulate`` of its row bit for bit.
    The rows are stepped together in chunks of at most ``features._PAIR_BUDGET``
    agent pairs.
    """
    genomes = np.asarray(genomes, dtype=float)
    check_genomes(genomes)
    if not (0 < duration < math.inf and 0 < dt < math.inf):
        raise ConfigError(f"duration and dt must be finite and > 0, got {duration}, {dt}")
    steps = duration / dt
    if steps == math.inf:
        raise ConfigError(
            f"duration {duration} s at dt {dt} s yields {steps} steps; need a finite count"
        )
    n_steps = math.ceil(steps)
    if n_steps < 2:
        raise ConfigError(
            f"duration {duration} s at dt {dt} s yields {n_steps} step(s); need at least 2"
        )

    setup = make_scenario(scenario)
    max_comfort = float(np.max(setup.comfort_speeds))
    slowest = genomes[:, PARAM_NAMES.index("max_speed")].min(initial=math.inf)
    if slowest < max_comfort:
        raise ConfigError(f"max_speed {slowest} below the largest comfort speed {max_comfort:.3f}")

    n = scenario.agent_count
    chunk = max(1, features._PAIR_BUDGET // (n * n))
    for start in range(0, len(genomes), chunk):
        block = genomes[start : start + chunk]
        count = len(block)
        coeffs = tuple(np.ascontiguousarray(block.T).reshape(len(PARAM_NAMES), count, 1))
        # Every chunk restarts the scenario's noise stream, as a separate run would.
        noise_rng = np.random.default_rng([scenario.seed, 1])
        p = np.repeat(setup.positions.T[:, None], count, axis=1)
        v = np.zeros_like(p)
        reached = np.zeros((count, n), dtype=bool)
        try:
            history = np.empty((n_steps,) + p.shape)
        except (MemoryError, ValueError):  # ValueError: more elements than numpy indexes
            raise ConfigError(
                f"duration {duration} s at dt {dt} s yields {n_steps} steps, "
                "too many to hold in memory"
            ) from None
        history[0] = p
        for t in range(1, n_steps):
            p, v, reached = step(p, v, reached, setup, coeffs, dt, noise_rng)
            history[t] = p
        for k in range(count):
            yield derive_kinematics(
                history[:, :, k].transpose(2, 0, 1),
                dt,
                goals=setup.goals,
                comfort_speeds=setup.comfort_speeds,
                body_radii=setup.body_radii,
            )


def parse_params(text: str, source: str = "<params>") -> SocialForcesParams:
    entries = parse_keyvalue(text, source)
    values = {}
    for key, raw in entries.items():
        if key not in PARAM_NAMES:
            raise DataError(
                f"{source}: unknown parameter {key!r}, expected one of {PARAM_NAMES}"
            )
        values[key] = parse_float(key, raw, source)
    return SocialForcesParams(**values)


def load_params(path) -> SocialForcesParams:
    return parse_params(decode_input(read_input(path), path), source=str(path))


def save_params(params: SocialForcesParams, path) -> None:
    write_keyvalue(path, ((name, repr(getattr(params, name))) for name in PARAM_NAMES))
