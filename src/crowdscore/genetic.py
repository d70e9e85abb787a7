"""Real-valued genetic algorithm used for weight training and parameter tuning.

Minimizes a fitness function over a box. Tournament selection, uniform
crossover, per-gene Gaussian mutation clamped to bounds, elitism.  The
reported history tracks the best fitness seen so far, so it is non-increasing
even when the fitness landscape is resampled between generations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

TOURNAMENT_SIZE = 3  # genomes drawn per parent selection


@dataclass
class GaConfig:
    population_size: int = 64
    max_generations: int = 300
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    mutation_scale: float = 0.1  # fraction of each gene's range
    elitism_count: int = 2
    seed: int = 0
    plateau_generations: int = 30
    plateau_epsilon: float = 1e-4

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.population_size < 2:
            raise ConfigError(f"population_size must be >= 2, got {self.population_size}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigError(f"crossover_rate must be in [0,1], got {self.crossover_rate}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError(f"mutation_rate must be in [0,1], got {self.mutation_rate}")
        if not 0.0 <= self.mutation_scale < math.inf:
            raise ConfigError(f"mutation_scale must be finite and >= 0, got {self.mutation_scale}")
        if not 0 <= self.elitism_count < self.population_size:
            raise ConfigError(
                f"elitism_count must be in [0, population_size), got {self.elitism_count}"
            )
        if self.max_generations < 1:
            raise ConfigError(f"max_generations must be >= 1, got {self.max_generations}")
        if self.plateau_generations < 1:
            raise ConfigError(
                f"plateau_generations must be >= 1, got {self.plateau_generations}"
            )
        if not 0.0 <= self.plateau_epsilon < math.inf:
            raise ConfigError(
                f"plateau_epsilon must be finite and >= 0, got {self.plateau_epsilon}"
            )


@dataclass
class GaResult:
    best_genome: np.ndarray
    best_fitness: float
    history: list[float]  # best-so-far fitness per generation, non-increasing
    generations: int
    stop_reason: str  # "target", "plateau" or "max-generations"


def _check_bounds(bounds) -> np.ndarray:
    b = np.asarray(bounds, dtype=float)
    if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] < 1:
        raise ConfigError(f"bounds must have shape (genes, 2), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ConfigError("bounds must be finite")
    if np.any(b[:, 0] > b[:, 1]):
        raise ConfigError("each gene's low bound must not exceed its high bound")
    return b


def _tournament(rng: np.random.Generator, fits: np.ndarray) -> int:
    picks = rng.integers(0, len(fits), size=TOURNAMENT_SIZE)
    return int(picks[np.argmin(fits[picks])])


def _evaluate(fitness, population: np.ndarray, memo: dict) -> tuple[np.ndarray, dict]:
    """Fitness of every row, and the memo to pass on to the next generation.

    ``memo`` maps row bytes to fitness; ``fitness`` gets only the distinct rows
    absent from it.  The returned memo holds exactly this population's rows,
    so it never outgrows one generation.
    """
    keys = [row.tobytes() for row in population]
    fresh: dict = {}  # row bytes -> index of the first row with them
    for i, key in enumerate(keys):
        if key not in memo:
            fresh.setdefault(key, i)
    if fresh:
        values = np.asarray(fitness(population[list(fresh.values())]), dtype=float)
        if values.shape != (len(fresh),):
            raise ValueError(f"fitness must return shape ({len(fresh)},), got {values.shape}")
        memo = memo | dict(zip(fresh, np.where(np.isfinite(values), values, np.inf)))
    memo = {key: memo[key] for key in keys}
    return np.array([memo[key] for key in keys]), memo


def ga_optimize(
    fitness,
    bounds,
    config: GaConfig | None = None,
    *,
    mutation_decay: float = 1.0,
    initial=None,
    on_generation=None,
) -> GaResult:
    """Minimize ``fitness`` over the box given by ``bounds``.

    ``fitness`` takes a (k, genes) block of genomes and returns their k
    fitness values; non-finite values count as ``inf``.  Each generation it
    receives only the distinct rows that the previous generation did not
    already score (elites and unmutated copies of parents are not re-sent).
    ``on_generation(gen)`` runs before each generation is evaluated and marks
    a new fitness landscape (the tuner resamples scenarios in it), so after it
    every distinct row is scored afresh.  ``initial`` seeds one genome (or a
    (k, genes) block) into the first population.  ``mutation_decay``
    geometrically shrinks the mutation scale each generation.
    """
    cfg = config if config is not None else GaConfig()
    cfg.validate()
    b = _check_bounds(bounds)
    if not 0.0 < mutation_decay <= 1.0:
        raise ConfigError(f"mutation_decay must be in (0,1], got {mutation_decay}")
    n_genes = b.shape[0]
    low, high = b[:, 0], b[:, 1]
    span = high - low

    rng = np.random.default_rng(cfg.seed)
    population = rng.uniform(low, high, size=(cfg.population_size, n_genes))
    if initial is not None:
        init = np.atleast_2d(np.asarray(initial, dtype=float))
        if init.shape[1] != n_genes:
            raise ConfigError(
                f"initial genomes have {init.shape[1]} genes, bounds define {n_genes}"
            )
        k = min(init.shape[0], cfg.population_size)
        population[:k] = np.clip(init[:k], low, high)

    scale = cfg.mutation_scale
    best_genome = population[0].copy()
    best_fit = np.inf
    history: list[float] = []
    stop_reason = "max-generations"

    memo: dict = {}
    for gen in range(cfg.max_generations):
        if on_generation is not None:
            on_generation(gen)
            memo = {}  # a new fitness landscape
        fits, memo = _evaluate(fitness, population, memo)
        order = np.argsort(fits, kind="stable")
        if fits[order[0]] < best_fit:
            best_fit = float(fits[order[0]])
            best_genome = population[order[0]].copy()
        history.append(best_fit)

        if best_fit <= 0.0:
            stop_reason = "target"
            break
        p = cfg.plateau_generations
        if len(history) > p and history[-1 - p] - history[-1] < cfg.plateau_epsilon:
            stop_reason = "plateau"
            break
        if gen == cfg.max_generations - 1:
            break

        elite = population[order[: cfg.elitism_count]].copy()
        n_children = cfg.population_size - cfg.elitism_count
        children = np.empty((n_children, n_genes))
        filled = 0
        while filled < n_children:
            pa = _tournament(rng, fits)
            pb = _tournament(rng, fits)
            child_a = population[pa].copy()
            child_b = population[pb].copy()
            if rng.random() < cfg.crossover_rate:
                mask = rng.random(n_genes) < 0.5
                child_a[mask] = population[pb][mask]
                child_b[mask] = population[pa][mask]
            for child in (child_a, child_b):
                if filled == n_children:
                    break
                mmask = rng.random(n_genes) < cfg.mutation_rate
                if mmask.any():
                    child[mmask] += rng.standard_normal(int(mmask.sum())) * (
                        scale * span[mmask]
                    )
                    np.clip(child, low, high, out=child)
                children[filled] = child
                filled += 1
        population = np.vstack([elite, children]) if cfg.elitism_count else children
        scale *= mutation_decay

    return GaResult(
        best_genome=best_genome,
        best_fitness=best_fit,
        history=history,
        generations=len(history),
        stop_reason=stop_reason,
    )
