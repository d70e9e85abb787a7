"""Labeled training sets and weight training.

Golden crowds are targets of 1.0; degraded variants carry 0 (or an explicit
score).  Weights are trained by minimizing the mean absolute error between
targets and the quality score over the 21-dimensional weight box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .features import FEATURE_CODES, FundamentalDiagramCurve, extract
from .genetic import GaConfig, GaResult, ga_optimize
from .quality import ReferenceStats, WeightVector, cost_vector
from .trajectory import CrowdTrajectory

DEGRADE_MODES = ("no-avoidance", "jitter", "speed-scale", "freeze")

JITTER_AMPLITUDE = 0.3  # rad per step, default heading noise
SPEED_SCALE_FACTOR = 3.0  # default multiplier, far outside the walkable range
FREEZE_FRACTION = 0.5  # default share of agents stopped mid-trajectory


@dataclass
class TrainingExample:
    """Pre-extracted features of one crowd with its target quality score."""

    features: dict[str, np.ndarray]
    target: float
    label: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.target <= 1.0:
            raise ValueError(f"target must be in [0,1], got {self.target}")


def _rebuild(crowd: CrowdTrajectory, positions: np.ndarray) -> CrowdTrajectory:
    """New crowd with replaced positions; ids, goals, comfort and radii preserved."""
    if not np.isfinite(positions).all():
        raise ValueError("degraded positions are not finite: the damage overflows float64")
    return crowd.with_positions(positions, crowd.dt)


def degrade(crowd: CrowdTrajectory, mode: str, seed: int = 0, **params) -> CrowdTrajectory:
    """Deliberately damaged copy of a crowd (same N, T, dt, starts, goals).

    Modes: ``no-avoidance`` re-walks every agent straight to its goal at
    comfort speed; ``jitter`` adds per-step heading noise (``amplitude`` rad);
    ``speed-scale`` multiplies all speeds by ``factor``; ``freeze`` stops a
    ``fraction`` of agents mid-trajectory.
    """
    P = crowd.positions
    N, T = crowd.n_agents, crowd.n_steps
    rng = np.random.default_rng(seed)

    if mode == "no-avoidance":
        _reject_params(mode, params, ())
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
        amplitude = float(params.pop("amplitude", JITTER_AMPLITUDE))
        _reject_params(mode, params, ())
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
        factor = float(params.pop("factor", SPEED_SCALE_FACTOR))
        _reject_params(mode, params, ())
        if not math.isfinite(factor):
            raise ValueError(f"speed-scale factor must be finite, got {factor}")
        start = P[:, :1, :]
        with np.errstate(over="ignore"):  # an overflow is rejected by _rebuild
            positions = start + factor * (P - start)
        return _rebuild(crowd, positions)

    if mode == "freeze":
        fraction = float(params.pop("fraction", FREEZE_FRACTION))
        _reject_params(mode, params, ())
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"freeze fraction must be in [0,1], got {fraction}")
        n_frozen = int(round(fraction * N))
        chosen = rng.choice(N, size=n_frozen, replace=False)
        positions = P.copy()
        for agent in sorted(chosen):
            t_stop = int(rng.integers(T // 4, max(T // 4 + 1, 3 * T // 4)))
            positions[agent, t_stop:, :] = positions[agent, t_stop, :]
        return _rebuild(crowd, positions)

    raise ValueError(f"unknown degrade mode {mode!r}, expected one of {DEGRADE_MODES}")


def _reject_params(mode, params, allowed):
    unknown = [k for k in params if k not in allowed]
    if unknown:
        raise ValueError(f"degrade mode {mode!r} got unexpected parameters {unknown}")


def build_training_set(
    golden,
    degraded,
    curve: FundamentalDiagramCurve | None = None,
) -> list[TrainingExample]:
    """Extract features once per crowd and attach targets.

    ``golden`` is a list of crowds (target 1); ``degraded`` is a list of
    crowds or (crowd, target) pairs (default target 0).  ``curve`` is the
    reference fundamental diagram FDG is measured against (see ``extract``).
    """
    golden = list(golden)
    if not golden:
        raise DataError("training set needs at least one golden crowd")
    examples = []
    for i, crowd in enumerate(golden):
        examples.append(
            TrainingExample(features=extract(crowd, curve), target=1.0, label=f"golden-{i}")
        )
    for i, item in enumerate(degraded):
        if isinstance(item, tuple):
            crowd, target = item
        else:
            crowd, target = item, 0.0
        examples.append(
            TrainingExample(
                features=extract(crowd, curve), target=float(target), label=f"degraded-{i}"
            )
        )
    return examples


@dataclass
class PairCorrelation:
    code_a: str
    code_b: str
    rho: float
    flagged: bool  # |rho| above the redundancy threshold
    degenerate: bool  # a zero-variance feature made rho undefined


def check_correlations(
    examples: list[TrainingExample], threshold: float = 0.8
) -> list[PairCorrelation]:
    """Pearson correlation of per-example mean feature values, all pairs.

    Highly correlated pairs are flagged, not removed.  Zero-variance features
    yield rho = 0 with the degenerate marker set.
    """
    if len(examples) < 2:
        raise ValueError(f"need at least 2 examples, got {len(examples)}")
    means = np.array(
        [[float(np.mean(np.ravel(ex.features[c]))) for c in FEATURE_CODES] for ex in examples]
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


def example_cost_matrix(
    examples: list[TrainingExample], stats: ReferenceStats
) -> tuple[np.ndarray, np.ndarray]:
    """(examples x 21) cost matrix and the target vector."""
    if not examples:
        raise DataError("no training examples")
    for ex in examples:
        missing = [c for c in FEATURE_CODES if c not in ex.features]
        if missing:
            raise ConfigError(
                f"example {ex.label} missing features: {', '.join(missing)}"
            )
    costs = np.array([cost_vector(ex.features, stats) for ex in examples])
    targets = np.array([ex.target for ex in examples])
    return costs, targets


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
    examples: list[TrainingExample],
    stats: ReferenceStats,
    config: GaConfig | None = None,
    *,
    initial: WeightVector | np.ndarray | None = None,
) -> tuple[WeightVector, GaResult]:
    """Fit the 21 feature weights to the labeled examples.

    Returns the best weight vector (normalized so the weights sum to at most
    1) together with the GA result carrying the fitness history.
    """
    costs, targets = example_cost_matrix(examples, stats)
    fitness = training_fitness(costs, targets)
    bounds = [(0.0, 1.0)] * len(FEATURE_CODES)
    init = None
    if initial is not None:
        init = initial.vector() if isinstance(initial, WeightVector) else np.asarray(initial)
    result = ga_optimize(fitness, bounds, config, initial=init)
    return WeightVector.from_vector(result.best_genome), result
