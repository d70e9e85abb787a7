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
from dataclasses import dataclass, field

import numpy as np

from . import features
from .errors import ConfigError, DataError
from .keyvalue import format_keyvalue, parse_float, parse_keyvalue
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
        # Each field is a float, or an array with one value per genome of a
        # population (see stack_params); every value must pass.
        if np.any(self.relaxation_time <= 0):
            raise ConfigError(f"relaxation_time must be > 0, got {self.relaxation_time}")
        # 0 is allowed: repulsion-free runs are the no-avoidance baseline.
        if np.any(self.repulsion_strength < 0):
            raise ConfigError(f"repulsion_strength must be >= 0, got {self.repulsion_strength}")
        if np.any(self.repulsion_range <= 0):
            raise ConfigError(f"repulsion_range must be > 0, got {self.repulsion_range}")
        if np.any(self.max_speed <= 0):
            raise ConfigError(f"max_speed must be > 0, got {self.max_speed}")
        if np.any(self.noise_amplitude < 0):
            raise ConfigError(f"noise_amplitude must be >= 0, got {self.noise_amplitude}")


PARAM_NAMES = (
    "relaxation_time",
    "repulsion_strength",
    "repulsion_range",
    "max_speed",
    "noise_amplitude",
)

# Search box for the tuner, one (low, high) per parameter in PARAM_NAMES order.
TUNE_BOUNDS = (
    (0.1, 2.0),
    (0.0, 8.0),
    (0.05, 1.5),
    (2.0, 4.0),
    (0.0, 1.5),
)


def params_to_genome(params: SocialForcesParams) -> np.ndarray:
    return np.array([getattr(params, name) for name in PARAM_NAMES])


def genome_to_params(genome) -> SocialForcesParams:
    values = np.asarray(genome, dtype=float)
    if values.shape != (len(PARAM_NAMES),):
        raise ConfigError(f"expected {len(PARAM_NAMES)} parameters, got shape {values.shape}")
    return SocialForcesParams(**{n: float(v) for n, v in zip(PARAM_NAMES, values)})


def stack_params(population) -> SocialForcesParams:
    """The P parameter sets of a population as one set of (P, 1, 1) arrays.

    That shape broadcasts each genome's value over its crowd's agent axes.
    """
    return SocialForcesParams(
        **{
            n: np.array([getattr(p, n) for p in population], dtype=float).reshape(-1, 1, 1)
            for n in PARAM_NAMES
        }
    )


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
            radius = math.sqrt(n / (math.pi * scenario.density_target))
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
            side = math.sqrt(n / scenario.density_target)
            extent = (side, side)
        half = np.array(extent) / 2.0
        positions = _sample_separated(rng, n, half, radii)
        goals = _sample_separated(rng, n, half, radii)

    _check_clearance(positions, radii, "spawn discs")
    return CrowdSetup(
        positions=positions, goals=goals, comfort_speeds=comfort, body_radii=radii
    )


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


@dataclass
class SimState:
    """Mutable per-step simulation state; static fields ride along.

    One crowd has (N, 2) positions and velocities.  A population of P crowds
    of the same agents adds a leading axis, (P, N, 2), and shares the statics.
    """

    positions: np.ndarray  # (N, 2) or (P, N, 2)
    velocities: np.ndarray  # like positions
    goals: np.ndarray  # (N, 2)
    comfort_speeds: np.ndarray  # (N,)
    body_radii: np.ndarray  # (N,)
    reached: np.ndarray = field(default=None)  # (N,) or (P, N) bool, latched goal arrival

    def __post_init__(self) -> None:
        if self.reached is None:
            self.reached = np.zeros(self.positions.shape[:-1], dtype=bool)


def repulsion_forces(
    positions: np.ndarray, body_radii: np.ndarray, params: SocialForcesParams
) -> np.ndarray:
    """Summed pairwise repulsion accelerations, shaped like ``positions``.

    ``positions`` is one crowd (N, 2) with float parameters, or a population
    (P, N, 2) with the parameters of ``stack_params``.
    """
    n = positions.shape[-2]
    strength = params.repulsion_strength
    active = np.count_nonzero(strength)  # cheaper than any()/all() on tiny arrays
    if n < 2 or active == 0:
        return np.zeros_like(positions)
    dp = positions[..., :, None, :] - positions[..., None, :, :]  # points from j to i
    dist = np.linalg.norm(dp, axis=-1)
    diagonal = np.arange(n)
    dist[..., diagonal, diagonal] = np.inf
    r_sum = body_radii[:, None] + body_radii[None, :]
    magnitude = strength * np.exp((r_sum - dist) / params.repulsion_range)
    direction = dp / np.maximum(dist, 1e-9)[..., None]
    forces = np.sum(magnitude[..., None] * direction, axis=-2)
    if active == np.size(strength):
        return forces
    # Repulsion-free genomes get exact zeros, as if their term were skipped.
    return np.where(strength > 0.0, forces, 0.0)


def step(
    state: SimState,
    params: SocialForcesParams,
    dt: float,
    rng: np.random.Generator | None = None,
) -> SimState:
    """One explicit-Euler step of the social-forces model.

    Steps one crowd, or a population of crowds with the parameters of
    ``stack_params``.
    """
    if dt <= 0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    p, v = state.positions, state.velocities
    to_goal = state.goals - p
    dist_goal = np.linalg.norm(to_goal, axis=-1)
    reached = state.reached | (dist_goal < GOAL_RADIUS)

    goal_dir = np.where(
        dist_goal[..., None] > 1e-9, to_goal / np.maximum(dist_goal, 1e-9)[..., None], 0.0
    )
    acc = (state.comfort_speeds[:, None] * goal_dir - v) / params.relaxation_time
    acc += repulsion_forces(p, state.body_radii, params)
    amplitude = params.noise_amplitude
    if np.count_nonzero(amplitude):
        if rng is None:
            rng = np.random.default_rng(0)
        # normal(0, a) draws a * standard_normal, so one draw serves every genome.
        noise = rng.standard_normal(size=p.shape[-2:])
        np.add(acc, amplitude * noise, out=acc, where=amplitude > 0.0)

    v_next = v + acc * dt
    speed = np.linalg.norm(v_next, axis=-1, keepdims=True)
    over = speed > params.max_speed
    if np.count_nonzero(over):
        v_next *= np.divide(params.max_speed, speed, out=np.ones_like(speed), where=over)
    p_next = p + v * dt

    v_next[reached] = 0.0
    p_next[reached] = p[reached]
    return SimState(
        positions=p_next,
        velocities=v_next,
        goals=state.goals,
        comfort_speeds=state.comfort_speeds,
        body_radii=state.body_radii,
        reached=reached,
    )


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
    return next(simulate_population(scenario, [params], duration, dt))


def simulate_population(
    scenario: Scenario,
    population,
    duration: float = 20.0,
    dt: float = CANONICAL_DT,
) -> Iterator[CrowdTrajectory]:
    """Run one scenario under each parameter set of ``population``.

    Yields the trajectories one at a time, in order; each equals
    ``simulate(scenario, params, duration, dt)`` bit for bit.  The sets are
    stepped together in chunks of at most ``features._PAIR_BUDGET`` agent
    pairs.
    """
    population = list(population)
    if not (0 < duration < math.inf and 0 < dt < math.inf):
        raise ConfigError(f"duration and dt must be finite and > 0, got {duration}, {dt}")
    n_steps = math.ceil(duration / dt)
    if n_steps < 2:
        raise ConfigError(
            f"duration {duration} s at dt {dt} s yields {n_steps} step(s); need at least 2"
        )

    setup = make_scenario(scenario)
    max_comfort = float(np.max(setup.comfort_speeds))
    for params in population:
        if params.max_speed < max_comfort:
            raise ConfigError(
                f"max_speed {params.max_speed} below the largest comfort speed {max_comfort:.3f}"
            )

    n = scenario.agent_count
    chunk = max(1, features._PAIR_BUDGET // (n * n))
    for start in range(0, len(population), chunk):
        members = population[start : start + chunk]
        batch = stack_params(members)
        count = len(members)
        # Every chunk restarts the scenario's noise stream, as a separate run would.
        noise_rng = np.random.default_rng([scenario.seed, 1])
        state = SimState(
            positions=np.repeat(setup.positions[None], count, axis=0),
            velocities=np.zeros((count,) + setup.positions.shape),
            goals=setup.goals,
            comfort_speeds=setup.comfort_speeds,
            body_radii=setup.body_radii,
        )
        history = np.empty((n_steps,) + state.positions.shape)
        history[0] = state.positions
        for t in range(1, n_steps):
            state = step(state, batch, dt, noise_rng)
            history[t] = state.positions
        for k in range(count):
            yield derive_kinematics(
                history[:, k].transpose(1, 0, 2),
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


def format_params(params: SocialForcesParams) -> str:
    return format_keyvalue((name, repr(getattr(params, name))) for name in PARAM_NAMES)


def load_params(path) -> SocialForcesParams:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_params(fh.read(), source=str(path))


def save_params(params: SocialForcesParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_params(params))
