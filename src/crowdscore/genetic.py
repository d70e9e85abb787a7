"""Real-valued genetic algorithm used for weight training and parameter tuning.

Minimizes a fitness function over a box. Tournament selection, uniform
crossover, per-gene Gaussian mutation clamped to bounds, elitism.  The
reported history tracks the best fitness seen so far, so it is non-increasing
even when the fitness landscape is resampled between generations.

``GaConfig`` holds what a workflow sets: the budget and the seed.  The
breeding settings, shared by training and tuning, are module constants:
``CROSSOVER_RATE``, ``MUTATION_RATE``, ``MUTATION_SCALE`` (of each gene's
range), ``ELITES`` and the ``PLATEAU_EPSILON`` of the plateau stop.  Only the
per-generation decay of the mutation scale differs (1 for training,
``tuning.EXPLORATION_DECAY`` for tuning), so it is the ``mutation_decay``
argument of ``ga_optimize``.

The order and sizes of the RNG draws are part of the output contract: for a
seed they fix the best genome, the history and every file written from them.
Each child pair draws both its tournaments with one ``integers(0, P, size=6)``
call (the first three picks are one tournament, the last three the other; the
stream is that of two ``size=3`` calls, because PCG64 keeps the spare 32-bit
half of a draw between calls), then one ``random()`` crossover coin and, if
crossover fires, a ``random(genes)`` mask; then each of its children draws a
``random(genes)`` mutation mask and, if k genes mutate, ``standard_normal(k)``.
Drawing in any other order (say, a whole generation per call) moves the seed-0
values pinned in ``bench/expected.json`` and so belongs in a change to the
benchmark.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

TOURNAMENT_SIZE = 3  # genomes drawn per parent selection
CROSSOVER_RATE = 0.9  # chance that a child pair swaps genes
MUTATION_RATE = 0.1  # chance that a gene mutates
MUTATION_SCALE = 0.1  # mutation step, as a fraction of each gene's range
ELITES = 2  # best genomes carried unchanged into the next generation
PLATEAU_EPSILON = 1e-4  # least improvement over the plateau window


@dataclass
class GaConfig:
    population_size: int = 64
    max_generations: int = 300
    seed: int = 0
    plateau_generations: int = 30

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name, low in (("population_size", ELITES + 1), ("max_generations", 1),
                          ("seed", 0), ("plateau_generations", 1)):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")


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


def _check_initial(initial, n_genes: int) -> np.ndarray:
    init = np.atleast_2d(np.asarray(initial, dtype=float))
    if init.ndim != 2:
        raise ConfigError(f"initial genomes must be one genome or a (k, genes) block, "
                          f"got shape {init.shape}")
    if init.shape[1] != n_genes:
        raise ConfigError(f"initial genomes have {init.shape[1]} genes, bounds define {n_genes}")
    if not np.all(np.isfinite(init)):
        raise ConfigError("initial genomes must be finite")
    return init


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
    every distinct row is scored afresh.  ``initial`` seeds one finite genome
    (or a (k, genes) block) into the first population.  ``mutation_decay``
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

    pop_size = cfg.population_size
    rng = np.random.default_rng(cfg.seed)
    integers, random, standard_normal = rng.integers, rng.random, rng.standard_normal
    population = rng.uniform(low, high, size=(pop_size, n_genes))
    if initial is not None:
        init = _check_initial(initial, n_genes)[:pop_size]
        population[: len(init)] = np.clip(init, low, high)

    scale = MUTATION_SCALE
    best_genome = population[0].copy()
    best_fit = np.inf
    history: list[float] = []
    stop_reason = "max-generations"

    no_swap = np.zeros(n_genes, dtype=bool)
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
        if len(history) > p and history[-1 - p] - history[-1] < PLATEAU_EPSILON:
            stop_reason = "plateau"
            break
        if gen == cfg.max_generations - 1:
            break

        # Draw everything in the order of the output contract (see the module
        # docstring), then breed the whole generation from the draws at once.
        n_children = pop_size - ELITES
        fit_of = fits.tolist().__getitem__
        picks, swaps, masks, noise = [], [], [], []
        while len(masks) < n_children:
            # min keeps the first of tied picks, as argmin over fits[picks] would
            drawn = integers(0, pop_size, size=2 * TOURNAMENT_SIZE).tolist()
            picks.append(min(drawn[:TOURNAMENT_SIZE], key=fit_of))
            picks.append(min(drawn[TOURNAMENT_SIZE:], key=fit_of))
            if random() < CROSSOVER_RATE:
                swaps.append(random(n_genes) < 0.5)
            else:
                swaps.append(no_swap)
            for _ in range(min(2, n_children - len(masks))):
                masks.append(random(n_genes) < MUTATION_RATE)
                k = np.count_nonzero(masks[-1])
                if k:
                    noise.append(standard_normal(k))
        parents = population[picks].reshape(-1, 2, n_genes)
        children = np.where(np.array(swaps)[:, None], parents[:, ::-1], parents)
        children = children.reshape(-1, n_genes)[:n_children]
        if noise:
            rows, cols = np.nonzero(masks)
            children[rows, cols] += np.concatenate(noise) * (scale * span[cols])
            hit = np.unique(rows)  # each mutated child is clamped whole
            children[hit] = np.minimum(np.maximum(children[hit], low), high)
        population = np.concatenate([population[order[:ELITES]], children])
        scale *= mutation_decay

    return GaResult(
        best_genome=best_genome,
        best_fitness=best_fit,
        history=history,
        generations=len(history),
        stop_reason=stop_reason,
    )
