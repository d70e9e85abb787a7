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

from . import features
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

    All agents share one parameter set.  The new genomes of a generation are
    cut into contiguous shares, one per usable CPU, each run in the caller or
    a forked child pinned to its CPU (see ``_in_shares``); the genomes of a
    share are simulated together and their crowds scored one at a time.
    Genomes producing non-finite scores (integration blow-ups) are
    assigned the worst fitness instead of aborting the search.
    """
    scenario = config.scenario

    def evaluate(population: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):  # a blow-up ends with the worst fitness
            values = 1.0 - np.array([
                score(crowd, stats, weights).total
                for crowd in simulate_population(scenario, population, config.duration)
            ])
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
        lambda population: _in_shares(evaluate, population),
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


def _in_shares(evaluate, population: np.ndarray) -> np.ndarray:
    """``evaluate(population)``, computed in k contiguous shares at once by
    ``features.run_shares``, k the least of the rows, ``usable_cpus()`` and
    ``features._MAX_WORKERS``.  Each share is pinned to one CPU, so each
    crowd's pairwise pass gets one worker and no CPU runs two.  Each crowd is
    ``simulate`` of its row bit for bit whatever share it lands in, so the
    values do not depend on k.
    """
    k = min(len(population), features.usable_cpus(), features._MAX_WORKERS)
    if k < 2:
        return evaluate(population)
    bounds = [len(population) * s // k for s in range(k + 1)]
    values = features.shared_empty(len(population))

    def share(s: int) -> None:
        values[bounds[s] : bounds[s + 1]] = evaluate(population[bounds[s] : bounds[s + 1]])

    features.run_shares(share, k)
    return np.array(values)


def quartile(score: float) -> str:
    """Quality quartile label Q1 (worst) .. Q4 (best), left-closed buckets."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0,1], got {score}")
    for label, edge in zip(("Q1", "Q2", "Q3"), QUARTILE_EDGES):
        if score < edge:
            return label
    return "Q4"
