"""Simulator parameter tuning by score maximization.

The tuner runs the genetic engine over the social-forces parameter box with
fitness 1 - mean quality score over the configured scenarios.  Generic mode
re-seeds the scenarios every generation so the winning parameters cannot
overfit one spawn layout; the mutation scale decays geometrically, giving the
shrinking exploration rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .genetic import GaConfig, GaResult, ga_optimize
from .quality import ReferenceStats, WeightVector, score
from .simulator import (
    TUNE_BOUNDS,
    Scenario,
    SocialForcesParams,
    genome_to_params,
    params_to_genome,
    simulate_population,
)

TUNE_MODES = ("single", "generic")

DEFAULT_QUARTILE_EDGES = (0.225, 0.45, 0.675)  # even split of the [0, 0.9) range


@dataclass
class TuneConfig:
    scenarios: list[Scenario]
    mode: str = "single"
    duration: float = 20.0
    ga: GaConfig = field(default_factory=GaConfig)
    exploration_decay: float = 0.97
    bounds: tuple = TUNE_BOUNDS  # (low, high) per simulator parameter
    initial_params: SocialForcesParams | None = None  # seeds the whole population

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigError("tune needs at least one scenario")
        if self.mode not in TUNE_MODES:
            raise ConfigError(f"unknown tune mode {self.mode!r}, expected {TUNE_MODES}")
        if not 0.0 < self.exploration_decay <= 1.0:
            raise ConfigError(
                f"exploration_decay must be in (0,1], got {self.exploration_decay}"
            )
        if not 0 < self.duration < math.inf:
            raise ConfigError(f"duration must be finite and > 0, got {self.duration}")


@dataclass
class TuneResult:
    p_opt: SocialForcesParams
    best_score_history: list[float]  # non-decreasing, best score so far
    final_score: float
    stop_reason: str
    ga: GaResult


def tune(
    config: TuneConfig,
    stats: ReferenceStats,
    weights: WeightVector,
) -> TuneResult:
    """Search simulator parameters maximizing the mean quality score.

    All agents share one parameter set.  The genomes of a generation are
    simulated together, scenario by scenario, and their crowds are scored one
    at a time.  Genomes producing non-finite scores (integration blow-ups) are
    assigned the worst fitness instead of aborting the search.
    """
    active = {"scenarios": list(config.scenarios)}

    def evaluate(population: np.ndarray) -> np.ndarray:
        params = [genome_to_params(genome) for genome in population]
        totals = np.empty((len(params), len(active["scenarios"])))
        for j, scenario in enumerate(active["scenarios"]):
            for i, crowd in enumerate(simulate_population(scenario, params, config.duration)):
                totals[i, j] = score(crowd, stats, weights).total
        values = 1.0 - np.mean(totals, axis=1)
        return np.where(np.isfinite(values), values, 1.0)

    on_generation = None
    if config.mode == "generic":

        def on_generation(gen: int) -> None:
            seeds = np.random.default_rng([config.ga.seed, gen]).integers(
                0, 2**31, size=len(config.scenarios)
            )
            active["scenarios"] = [
                replace(sc, seed=int(s)) for sc, s in zip(config.scenarios, seeds)
            ]

    initial = None
    if config.initial_params is not None:
        # Tile the starting guess across the whole population; mutation alone
        # reintroduces diversity, so tuning degrades gracefully from any seed.
        initial = np.tile(
            params_to_genome(config.initial_params), (config.ga.population_size, 1)
        )

    result = ga_optimize(
        evaluate,
        config.bounds,
        config.ga,
        mutation_decay=config.exploration_decay,
        initial=initial,
        on_generation=on_generation,
    )
    history = [1.0 - f for f in result.history]
    return TuneResult(
        p_opt=genome_to_params(result.best_genome),
        best_score_history=history,
        final_score=history[-1],
        stop_reason=result.stop_reason,
        ga=result,
    )


def quartile(score: float, edges: tuple[float, float, float] = DEFAULT_QUARTILE_EDGES) -> str:
    """Quality quartile label Q1 (worst) .. Q4 (best), left-closed buckets."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0,1], got {score}")
    e = tuple(edges)
    if len(e) != 3 or not (0.0 <= e[0] < e[1] < e[2] <= 1.0):
        raise ValueError(f"edges must be 3 strictly increasing values in [0,1], got {edges}")
    if score < e[0]:
        return "Q1"
    if score < e[1]:
        return "Q2"
    if score < e[2]:
        return "Q3"
    return "Q4"
