"""Genetic optimizer behaviour: convergence, determinism, stopping rules."""

import numpy as np
import pytest

from crowdscore.errors import ConfigError
from crowdscore.genetic import GaConfig, GaResult, ga_optimize


CENTER = np.array([1.2, -0.7, 2.4, 0.3])
BOUNDS4 = [(-5.0, 5.0)] * 4


def sphere(x):
    return float(np.sum((x - CENTER) ** 2))


def test_sphere_convergence():
    cfg = GaConfig(population_size=64, max_generations=200, seed=3,
                   plateau_epsilon=0.0, plateau_generations=50)
    res = ga_optimize(sphere, BOUNDS4, cfg, mutation_decay=0.97)
    assert res.best_fitness < 1e-3
    assert np.allclose(res.best_genome, CENTER, atol=0.05)


def test_history_non_increasing_and_matches_result():
    cfg = GaConfig(population_size=16, max_generations=40, seed=1)
    res = ga_optimize(sphere, BOUNDS4, cfg)
    h = np.array(res.history)
    assert np.all(np.diff(h) <= 0.0)
    assert res.history[-1] == res.best_fitness
    assert res.generations == len(res.history)
    assert sphere(res.best_genome) == res.best_fitness


def test_same_seed_is_deterministic():
    cfg_a = GaConfig(population_size=24, max_generations=30, seed=7)
    cfg_b = GaConfig(population_size=24, max_generations=30, seed=7)
    res_a = ga_optimize(sphere, BOUNDS4, cfg_a)
    res_b = ga_optimize(sphere, BOUNDS4, cfg_b)
    assert res_a.history == res_b.history
    assert np.array_equal(res_a.best_genome, res_b.best_genome)
    # a different seed explores differently
    res_c = ga_optimize(sphere, BOUNDS4, GaConfig(population_size=24,
                                                  max_generations=30, seed=8))
    assert res_c.history != res_a.history


def test_population_stays_inside_bounds():
    seen = []

    def spy(x):
        seen.append(x.copy())
        return sphere(x)

    bounds = [(-1.0, 1.0), (0.0, 0.5), (2.0, 3.0), (-4.0, -3.5)]
    ga_optimize(spy, bounds, GaConfig(population_size=16, max_generations=20,
                                      seed=2, mutation_scale=0.5))
    arr = np.array(seen)
    low = np.array([b[0] for b in bounds])
    high = np.array([b[1] for b in bounds])
    assert np.all(arr >= low - 1e-12)
    assert np.all(arr <= high + 1e-12)


def test_collapsed_bounds_pin_every_gene():
    seen = []

    def spy(x):
        seen.append(x.copy())
        return float(np.sum(x**2))

    res = ga_optimize(spy, [(1.5, 1.5), (-2.0, -2.0)],
                      GaConfig(population_size=8, max_generations=10, seed=0))
    arr = np.array(seen)
    assert np.all(arr[:, 0] == 1.5)
    assert np.all(arr[:, 1] == -2.0)
    assert res.best_fitness == pytest.approx(1.5**2 + 4.0)


def test_initial_genome_is_evaluated_first_generation():
    start = np.array([1.0, -1.0, 2.0, 0.0])
    cfg = GaConfig(population_size=16, max_generations=1, seed=9)
    res = ga_optimize(sphere, BOUNDS4, cfg, initial=start)
    assert res.best_fitness <= sphere(start)


def test_initial_block_seeds_whole_population():
    block = np.tile(np.array([2.0, 2.0, 2.0, 2.0]), (12, 1))

    seen = []

    def spy(x):
        seen.append(x.copy())
        return sphere(x)

    ga_optimize(spy, BOUNDS4, GaConfig(population_size=12, max_generations=1,
                                       seed=4), initial=block)
    assert np.all(np.array(seen[:12]) == 2.0)


def test_zero_mutation_from_uniform_start_freezes_history():
    block = np.tile(np.array([0.5, 0.5, 0.5, 0.5]), (10, 1))
    cfg = GaConfig(population_size=10, max_generations=12, seed=1,
                   mutation_rate=0.0, plateau_generations=50)
    res = ga_optimize(sphere, BOUNDS4, cfg, initial=block)
    assert all(v == res.history[0] for v in res.history)


def test_target_hit_stops_immediately():
    calls = []

    def zero_fitness(x):
        calls.append(1)
        return 0.0

    cfg = GaConfig(population_size=8, max_generations=100, seed=0)
    res = ga_optimize(zero_fitness, BOUNDS4, cfg)
    assert res.stop_reason == "target"
    assert res.history == [0.0]
    assert len(calls) == 8


def test_plateau_stops_after_window():
    cfg = GaConfig(population_size=8, max_generations=100, seed=0,
                   plateau_generations=5, plateau_epsilon=1e-4)
    res = ga_optimize(lambda x: 1.0, BOUNDS4, cfg)
    assert res.stop_reason == "plateau"
    assert res.generations == 6  # plateau window plus the generation that trips it


def test_non_finite_fitness_is_tolerated():
    def spiky(x):
        if x[0] > 0:
            return float("nan")
        return float(np.sum(x**2))

    cfg = GaConfig(population_size=32, max_generations=30, seed=6)
    res = ga_optimize(spiky, BOUNDS4, cfg)
    assert np.isfinite(res.best_fitness)
    assert res.best_genome[0] <= 0


def test_on_generation_sees_consecutive_indices():
    gens = []
    cfg = GaConfig(population_size=8, max_generations=7, seed=0,
                   plateau_generations=50)
    ga_optimize(sphere, BOUNDS4, cfg, on_generation=gens.append)
    assert gens == list(range(7))


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        GaConfig(population_size=1)
    with pytest.raises(ConfigError):
        GaConfig(crossover_rate=1.5)
    with pytest.raises(ConfigError):
        GaConfig(mutation_rate=-0.1)
    with pytest.raises(ConfigError):
        GaConfig(mutation_scale=-0.5)
    with pytest.raises(ConfigError):
        GaConfig(elitism_count=8, population_size=8)
    with pytest.raises(ConfigError):
        GaConfig(max_generations=0)
    with pytest.raises(ConfigError):
        GaConfig(plateau_generations=0)
    with pytest.raises(ConfigError):
        GaConfig(tournament_size=0)


def test_bad_bounds_and_decay_errors():
    with pytest.raises(ConfigError):
        ga_optimize(sphere, [(0.0, 1.0, 2.0)], GaConfig(population_size=4))
    with pytest.raises(ConfigError):
        ga_optimize(sphere, [(1.0, 0.0)], GaConfig(population_size=4))
    with pytest.raises(ConfigError):
        ga_optimize(sphere, [(0.0, np.inf)], GaConfig(population_size=4))
    with pytest.raises(ConfigError):
        ga_optimize(sphere, BOUNDS4, GaConfig(population_size=4),
                    mutation_decay=0.0)
    with pytest.raises(ConfigError):
        ga_optimize(sphere, [(0.0, 1.0)] * 3, GaConfig(population_size=4),
                    initial=np.zeros((1, 4)))


def test_result_type_fields():
    res = ga_optimize(sphere, BOUNDS4, GaConfig(population_size=8,
                                                max_generations=3, seed=0,
                                                plateau_generations=50))
    assert isinstance(res, GaResult)
    assert res.stop_reason in ("target", "plateau", "max-generations")
    assert res.best_genome.shape == (4,)
