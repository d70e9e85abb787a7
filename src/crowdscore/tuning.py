"""Simulator parameter tuning by score maximization.

The tuner runs the genetic engine over the social-forces parameter box
``TUNE_BOUNDS`` with fitness 1 - quality score of the simulated scenario.
Generic mode re-seeds the scenario every generation so the winning parameters
cannot overfit one spawn layout; the mutation scale shrinks by
``EXPLORATION_DECAY`` each generation, giving the shrinking exploration rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import shares
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

QUARTILE_EDGES = (0.225, 0.45, 0.675)  # even split of the [0, 0.9) range

EXPLORATION_DECAY = 0.97  # per-generation factor on the GA's mutation scale


@dataclass
class TuneConfig:
    scenario: Scenario
    mode: str = "single"
    duration: float = 20.0
    ga: GaConfig = field(default_factory=GaConfig)
    initial_params: SocialForcesParams | None = None  # seeds the whole population

    def __post_init__(self) -> None:
        if self.mode not in TUNE_MODES:
            raise ConfigError(f"unknown tune mode {self.mode!r}, expected {TUNE_MODES}")
        if not 0 < self.duration < math.inf:
            raise ConfigError(f"duration must be finite and > 0, got {self.duration}")


@dataclass
class TuneResult:
    p_opt: SocialForcesParams
    best_score_history: list[float]  # non-decreasing, best score so far
    ga: GaResult


def tune(
    config: TuneConfig,
    stats: ReferenceStats,
    weights: WeightVector,
) -> TuneResult:
    """Search simulator parameters maximizing the quality score.

    All agents share one parameter set.  The new genomes of a generation go
    in the contiguous shares of ``shares.run_shares``; a share's genomes are
    simulated together, each crowd bitwise its ``simulate``, and scored one
    at a time, each pairwise pass on the one CPU its share is pinned to.
    Genomes producing non-finite scores (integration blow-ups) are
    assigned the worst fitness instead of aborting the search.
    """
    scenario = config.scenario

    def evaluate(population: np.ndarray) -> np.ndarray:
        values = shares.shared_empty(len(population))

        def share(lo: int, hi: int) -> None:
            crowds = simulate_population(scenario, population[lo:hi], config.duration)
            values[lo:hi] = [1.0 - score(crowd, stats, weights).total for crowd in crowds]

        with np.errstate(all="ignore"):  # a blow-up ends with the worst fitness
            shares.run_shares(share, len(population), shares.workers(len(population)))
        return np.where(np.isfinite(values), values, 1.0)

    on_generation = None
    if config.mode == "generic":

        def on_generation(gen: int) -> None:
            nonlocal scenario
            seed = np.random.default_rng([config.ga.seed, gen]).integers(0, 2**31, size=1)[0]
            scenario = replace(config.scenario, seed=int(seed))

    initial = None
    if config.initial_params is not None:
        # Tile the starting guess across the whole population; mutation alone
        # reintroduces diversity, so tuning degrades gracefully from any seed.
        initial = np.tile(
            params_to_genome(config.initial_params), (config.ga.population_size, 1)
        )

    result = ga_optimize(
        evaluate,
        TUNE_BOUNDS,
        config.ga,
        mutation_decay=EXPLORATION_DECAY,
        initial=initial,
        on_generation=on_generation,
    )
    return TuneResult(
        p_opt=genome_to_params(result.best_genome),
        best_score_history=[1.0 - f for f in result.history],
        ga=result,
    )


def quartile(score: float) -> str:
    """Quality quartile label Q1 (worst) .. Q4 (best), left-closed buckets."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0,1], got {score}")
    for label, edge in zip(("Q1", "Q2", "Q3"), QUARTILE_EDGES):
        if score < edge:
            return label
    return "Q4"
