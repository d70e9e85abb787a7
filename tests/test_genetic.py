"""Genetic optimizer behaviour: convergence, determinism, stopping rules."""

import numpy as np
import pytest

from crowdscore.errors import ConfigError
from crowdscore.genetic import GaConfig, GaResult, _evaluate, ga_optimize


CENTER = np.array([1.2, -0.7, 2.4, 0.3])
BOUNDS4 = [(-5.0, 5.0)] * 4


def sphere(pop):
    return np.sum((pop - CENTER) ** 2, axis=1)


def sphere_row(x):
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
    assert sphere_row(res.best_genome) == res.best_fitness


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

    def spy(pop):
        seen.append(pop.copy())
        return sphere(pop)

    bounds = [(-1.0, 1.0), (0.0, 0.5), (2.0, 3.0), (-4.0, -3.5)]
    ga_optimize(spy, bounds, GaConfig(population_size=16, max_generations=20,
                                      seed=2, mutation_scale=0.5))
    arr = np.concatenate(seen)
    low = np.array([b[0] for b in bounds])
    high = np.array([b[1] for b in bounds])
    assert np.all(arr >= low - 1e-12)
    assert np.all(arr <= high + 1e-12)


def test_collapsed_bounds_pin_every_gene():
    seen = []

    def spy(pop):
        seen.append(pop.copy())
        return np.sum(pop**2, axis=1)

    res = ga_optimize(spy, [(1.5, 1.5), (-2.0, -2.0)],
                      GaConfig(population_size=8, max_generations=10, seed=0))
    arr = np.concatenate(seen)
    assert np.all(arr[:, 0] == 1.5)
    assert np.all(arr[:, 1] == -2.0)
    assert res.best_fitness == pytest.approx(1.5**2 + 4.0)


def test_initial_genome_is_evaluated_first_generation():
    start = np.array([1.0, -1.0, 2.0, 0.0])
    cfg = GaConfig(population_size=16, max_generations=1, seed=9)
    res = ga_optimize(sphere, BOUNDS4, cfg, initial=start)
    assert res.best_fitness <= sphere_row(start)


def test_initial_block_seeds_whole_population():
    block = np.tile(np.array([2.0, 2.0, 2.0, 2.0]), (12, 1))

    seen = []

    def spy(pop):
        seen.append(pop.copy())
        return sphere(pop)

    ga_optimize(spy, BOUNDS4, GaConfig(population_size=12, max_generations=1,
                                       seed=4), initial=block)
    assert np.all(np.concatenate(seen)[:12] == 2.0)


def test_zero_mutation_from_uniform_start_freezes_history():
    block = np.tile(np.array([0.5, 0.5, 0.5, 0.5]), (10, 1))
    cfg = GaConfig(population_size=10, max_generations=12, seed=1,
                   mutation_rate=0.0, plateau_generations=50)
    res = ga_optimize(sphere, BOUNDS4, cfg, initial=block)
    assert all(v == res.history[0] for v in res.history)


def test_target_hit_stops_immediately():
    calls = []

    def zero_fitness(pop):
        calls.extend([1] * len(pop))
        return np.zeros(len(pop))

    cfg = GaConfig(population_size=8, max_generations=100, seed=0)
    res = ga_optimize(zero_fitness, BOUNDS4, cfg)
    assert res.stop_reason == "target"
    assert res.history == [0.0]
    assert len(calls) == 8


def test_plateau_stops_after_window():
    cfg = GaConfig(population_size=8, max_generations=100, seed=0,
                   plateau_generations=5, plateau_epsilon=1e-4)
    res = ga_optimize(lambda pop: np.ones(len(pop)), BOUNDS4, cfg)
    assert res.stop_reason == "plateau"
    assert res.generations == 6  # plateau window plus the generation that trips it


def test_non_finite_fitness_is_tolerated():
    def spiky(pop):
        return np.where(pop[:, 0] > 0, np.nan, np.sum(pop**2, axis=1))

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
    for name in ("mutation_scale", "plateau_epsilon"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                GaConfig(**{name: bad})
    for name in ("crossover_rate", "mutation_rate"):
        with pytest.raises(ConfigError):
            GaConfig(**{name: float("nan")})


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


def test_tiled_initial_block_is_evaluated_once():
    block = np.tile(np.array([2.0, 2.0, 2.0, 2.0]), (12, 1))
    rows_given = []

    def spy(pop):
        rows_given.append(pop.copy())
        return sphere(pop)

    ga_optimize(spy, BOUNDS4, GaConfig(population_size=12, max_generations=1,
                                       seed=4), initial=block)
    assert len(rows_given) == 1
    assert np.array_equal(rows_given[0], block[:1])


def _unseen_rows(batch, previous):
    seen = {row.tobytes() for row in previous}
    return [row for row in batch if row.tobytes() not in seen]


def test_memo_spans_one_generation_and_resets_on_new_landscape():
    # Mutations far wider than the box clip genes to its corners, so genomes
    # also come back after a generation away.
    cfg = GaConfig(population_size=12, max_generations=15, seed=5,
                   elitism_count=3, mutation_rate=0.5, mutation_scale=5.0,
                   plateau_generations=50)
    fresh_batches = []  # one batch per generation: on_generation clears the memo

    def fresh_spy(pop):
        fresh_batches.append(pop.copy())
        return sphere(pop)

    memo_rows = []

    def memo_spy(pop):
        memo_rows.extend(pop.copy())
        return sphere(pop)

    fresh = ga_optimize(fresh_spy, BOUNDS4, cfg, on_generation=lambda gen: None)
    memo = ga_optimize(memo_spy, BOUNDS4, cfg)
    assert fresh.history == memo.history
    assert len(fresh_batches) == cfg.max_generations

    for prev, batch in zip(fresh_batches, fresh_batches[1:]):
        assert len({row.tobytes() for row in batch}) == len(batch)  # no duplicates sent
        # with on_generation every row is scored again, the best elite included
        best = prev[np.argmin(sphere(prev))]
        assert not _unseen_rows([best], batch)

    # Without on_generation, a generation sends only the rows that the
    # previous generation did not already score, returning ones included.
    expected = list(fresh_batches[0])
    for prev, batch in zip(fresh_batches, fresh_batches[1:]):
        expected += _unseen_rows(batch, prev)
    returning = [
        row for older, prev, batch in zip(fresh_batches, fresh_batches[1:], fresh_batches[2:])
        for row in _unseen_rows(batch, prev) if not _unseen_rows([row], older)
    ]
    assert returning
    assert len(memo_rows) < sum(len(b) for b in fresh_batches)
    assert np.array_equal(np.array(memo_rows), np.array(expected))


def test_non_finite_row_gets_inf_without_changing_neighbours():
    pop = np.arange(12.0).reshape(6, 2)
    raw = np.array([0.5, np.nan, 2.0, np.inf, -np.inf, -3.0])
    fits, memo = _evaluate(lambda rows: raw.copy(), pop, {})
    assert np.array_equal(fits, [0.5, np.inf, 2.0, np.inf, np.inf, -3.0])
    assert len(memo) == 6


def test_fitness_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError, match="fitness must return shape"):
        ga_optimize(lambda pop: np.zeros(len(pop) + 1), BOUNDS4,
                    GaConfig(population_size=4, max_generations=2))


@pytest.mark.parametrize("hook", [None, lambda gen: None])
def test_population_contract_matches_per_row_evaluation(hook):
    cfg = GaConfig(population_size=16, max_generations=60, seed=11,
                   plateau_generations=8, plateau_epsilon=1e-3)
    per_row_calls = []

    def per_row(x):
        per_row_calls.append(1)
        return sphere_row(x)

    batched = ga_optimize(sphere, BOUNDS4, cfg, mutation_decay=0.9,
                          on_generation=hook)
    rowwise = ga_optimize(lambda pop: [per_row(g) for g in pop], BOUNDS4, cfg,
                          mutation_decay=0.9, on_generation=hook)
    assert batched.history == rowwise.history
    assert np.array_equal(batched.best_genome, rowwise.best_genome)
    assert batched.stop_reason == rowwise.stop_reason == "plateau"
    assert batched.generations == rowwise.generations
    assert 0 < len(per_row_calls) <= cfg.population_size * rowwise.generations
