"""Labeled training sets and weight training.

A training set is a (k, 21) matrix of feature costs and k target scores:
golden crowds are targets of 1.0, degraded variants carry 0.  Weights are
trained by minimizing the mean absolute error between targets and the quality
score over the 21-dimensional weight box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .features import FEATURE_CODES, extract
from .genetic import GaConfig, GaResult, ga_optimize
from .quality import ReferenceStats, WeightVector, cost_vector
from .trajectory import CrowdTrajectory

DEGRADE_MODES = ("no-avoidance", "jitter", "speed-scale", "freeze")
AUTO_DEGRADE_MODES = ("no-avoidance", "jitter")  # train-weights --auto-degrade

JITTER_AMPLITUDE = 0.3  # rad per step, default heading noise
SPEED_SCALE_FACTOR = 3.0  # default multiplier, far outside the walkable range
FREEZE_FRACTION = 0.5  # default share of agents stopped mid-trajectory


def _rebuild(crowd: CrowdTrajectory, positions: np.ndarray) -> CrowdTrajectory:
    """New crowd with replaced positions; ids, goals, comfort and radii preserved."""
    if not np.isfinite(positions).all():
        raise ValueError("degraded positions are not finite: the damage overflows float64")
    return crowd.with_positions(positions, crowd.dt)


def degrade(
    crowd: CrowdTrajectory,
    mode: str,
    seed: int = 0,
    *,
    amplitude: float | None = None,
    factor: float | None = None,
    fraction: float | None = None,
) -> CrowdTrajectory:
    """Deliberately damaged copy of a crowd (same N, T, dt, starts, goals).

    Modes: ``no-avoidance`` re-walks every agent straight to its goal at
    comfort speed; ``jitter`` adds per-step heading noise (``amplitude`` rad);
    ``speed-scale`` multiplies all speeds by ``factor``; ``freeze`` stops a
    ``fraction`` of agents mid-trajectory.  A parameter left at None takes its
    mode's default; one given to another mode is rejected.
    """
    if mode not in DEGRADE_MODES:
        raise ValueError(f"unknown degrade mode {mode!r}, expected one of {DEGRADE_MODES}")
    own = {"jitter": "amplitude", "speed-scale": "factor", "freeze": "fraction"}.get(mode)
    given = {"amplitude": amplitude, "factor": factor, "fraction": fraction}
    unexpected = [name for name, value in given.items() if value is not None and name != own]
    if unexpected:
        raise ValueError(f"degrade mode {mode!r} got unexpected parameters {unexpected}")
    P = crowd.positions
    N, T = crowd.n_agents, crowd.n_steps
    rng = np.random.default_rng(seed)

    if mode == "no-avoidance":
        start = P[:, 0, :]
        goals = crowd.goals
        delta = goals - start
        dist = np.linalg.norm(delta, axis=1)
        direction = np.where(dist[:, None] > 1e-9, delta / np.maximum(dist, 1e-9)[:, None], 0.0)
        t_rel = np.arange(T) * crowd.dt
        travelled = np.minimum(crowd.comfort_speeds[:, None] * t_rel[None, :], dist[:, None])
        positions = start[:, None, :] + travelled[:, :, None] * direction[:, None, :]
        return _rebuild(crowd, positions)

    if mode == "jitter":
        amplitude = JITTER_AMPLITUDE if amplitude is None else float(amplitude)
        if not math.isfinite(amplitude):
            raise ValueError(f"jitter amplitude must be finite, got {amplitude}")
        if amplitude == 0.0:
            return _rebuild(crowd, P.copy())
        steps = P[:, 1:, :] - P[:, :-1, :]
        theta = rng.normal(0.0, amplitude, size=(N, T - 1))
        cos, sin = np.cos(theta), np.sin(theta)
        rotated = np.empty_like(steps)
        rotated[:, :, 0] = cos * steps[:, :, 0] - sin * steps[:, :, 1]
        rotated[:, :, 1] = sin * steps[:, :, 0] + cos * steps[:, :, 1]
        positions = np.concatenate(
            [P[:, :1, :], P[:, :1, :] + np.cumsum(rotated, axis=1)], axis=1
        )
        return _rebuild(crowd, positions)

    if mode == "speed-scale":
        factor = SPEED_SCALE_FACTOR if factor is None else float(factor)
        if not math.isfinite(factor):
            raise ValueError(f"speed-scale factor must be finite, got {factor}")
        start = P[:, :1, :]
        with np.errstate(over="ignore"):  # an overflow is rejected by _rebuild
            positions = start + factor * (P - start)
        return _rebuild(crowd, positions)

    # mode == "freeze"
    fraction = FREEZE_FRACTION if fraction is None else float(fraction)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"freeze fraction must be in [0,1], got {fraction}")
    n_frozen = int(round(fraction * N))
    chosen = rng.choice(N, size=n_frozen, replace=False)
    positions = P.copy()
    for agent in sorted(chosen):
        t_stop = int(rng.integers(T // 4, max(T // 4 + 1, 3 * T // 4)))
        positions[agent, t_stop:, :] = positions[agent, t_stop, :]
    return _rebuild(crowd, positions)


def build_training_set(golden, degraded, stats: ReferenceStats) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 21) cost matrix and the k targets of a labeled training set.

    Each row is one crowd's feature costs against ``stats``, whose ``fd_curve``
    FDG is measured against (see ``extract``): the ``golden`` crowds first,
    with target 1, then the ``degraded`` crowds, with target 0.
    """
    golden = list(golden)
    if not golden:
        raise DataError("training set needs at least one golden crowd")
    crowds = golden + list(degraded)
    costs = np.array([cost_vector(extract(crowd, stats.fd_curve), stats) for crowd in crowds])
    targets = np.r_[np.ones(len(golden)), np.zeros(len(crowds) - len(golden))]
    return costs, targets


@dataclass
class PairCorrelation:
    code_a: str
    code_b: str
    rho: float
    flagged: bool  # |rho| above the redundancy threshold
    degenerate: bool  # a zero-variance feature made rho undefined


def check_correlations(
    feature_maps: list[dict[str, np.ndarray]], threshold: float = 0.8
) -> list[PairCorrelation]:
    """Pearson correlation of per-crowd mean feature values, all pairs.

    ``feature_maps`` holds one ``extract`` result per crowd.  Highly
    correlated pairs are flagged, not removed.  Zero-variance features yield
    rho = 0 with the degenerate marker set.
    """
    if len(feature_maps) < 2:
        raise ValueError(f"need at least 2 feature maps, got {len(feature_maps)}")
    means = np.array(
        [[float(np.mean(np.ravel(m[c]))) for c in FEATURE_CODES] for m in feature_maps]
    )
    centered = means - means.mean(axis=0)
    std = means.std(axis=0)
    out = []
    for i, code_a in enumerate(FEATURE_CODES):
        for j in range(i + 1, len(FEATURE_CODES)):
            code_b = FEATURE_CODES[j]
            if std[i] < 1e-12 or std[j] < 1e-12:
                out.append(PairCorrelation(code_a, code_b, 0.0, False, True))
                continue
            rho = float(
                np.mean(centered[:, i] * centered[:, j]) / (std[i] * std[j])
            )
            out.append(PairCorrelation(code_a, code_b, rho, abs(rho) > threshold, False))
    return out


def training_fitness(costs: np.ndarray, targets: np.ndarray):
    """Mean |target - score| of each raw weight genome in a (k, 21) block."""

    def fitness(population: np.ndarray) -> np.ndarray:
        w = np.asarray(population, dtype=float)
        # Rows summing past 1 are normalized; the rest are divided by exactly 1.
        w = w / np.maximum(w.sum(axis=1, keepdims=True), 1.0)
        scores = 1.0 - w @ costs.T
        return np.mean(np.abs(targets - scores), axis=1)

    return fitness


def train_weights(
    costs: np.ndarray,
    targets: np.ndarray,
    config: GaConfig | None = None,
    *,
    initial: np.ndarray | None = None,
) -> tuple[WeightVector, GaResult]:
    """Fit the 21 feature weights to a training set.

    ``costs`` is the (k, 21) matrix of feature costs, one row per example, and
    ``targets`` the k scores in [0, 1] wanted for them, as ``build_training_set``
    returns.  ``initial`` is a (21,) weight vector seeded into the first
    population.  Returns the best weight vector (normalized so the weights sum
    to at most 1) together with the GA result carrying the fitness history.
    """
    costs = np.asarray(costs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if costs.ndim != 2 or costs.shape[1] != len(FEATURE_CODES):
        raise ConfigError(
            f"training costs must be a (k, {len(FEATURE_CODES)}) matrix, got shape {costs.shape}"
        )
    if len(costs) == 0:
        raise DataError("no training examples")
    if not np.isfinite(costs).all():
        raise DataError("training costs are not finite")
    if targets.shape != (len(costs),):
        raise ValueError(f"expected {len(costs)} targets, got shape {targets.shape}")
    if not np.all((targets >= 0.0) & (targets <= 1.0)):
        raise ValueError("every target must be in [0,1]")
    fitness = training_fitness(costs, targets)
    bounds = [(0.0, 1.0)] * len(FEATURE_CODES)
    result = ga_optimize(fitness, bounds, config, initial=initial)
    return WeightVector.from_vector(result.best_genome), result
