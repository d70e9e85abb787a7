"""Genetic optimizer behaviour: convergence, determinism, stopping rules."""

import hashlib

import numpy as np
import pytest

from crowdscore.errors import ConfigError
from crowdscore.genetic import ELITES, GaConfig, GaResult, _evaluate, ga_optimize


CENTER = np.array([1.2, -0.7, 2.4, 0.3])
BOUNDS4 = [(-5.0, 5.0)] * 4


def sphere(pop):
    return np.sum((pop - CENTER) ** 2, axis=1)


def sphere_row(x):
    return float(np.sum((x - CENTER) ** 2))


def test_sphere_convergence():
    cfg = GaConfig(population_size=64, max_generations=200, seed=3,
                   plateau_generations=200)  # the plateau stop never fires
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
    ga_optimize(spy, bounds, GaConfig(population_size=16, max_generations=20, seed=2))
    arr = np.concatenate(seen)
    low = np.array([b[0] for b in bounds])
    high = np.array([b[1] for b in bounds])
    assert np.all(arr >= low - 1e-12)
    assert np.all(arr <= high + 1e-12)
    # the optimum lies outside the box, so some mutations overshoot a bound
    # and are clamped onto it (uniform draws and crossover never land there)
    assert np.any((arr == low) | (arr == high))


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
                   plateau_generations=5)
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
    with pytest.raises(ConfigError, match="population_size must be >= 3"):
        GaConfig(population_size=ELITES)
    with pytest.raises(ConfigError, match="max_generations must be >= 1"):
        GaConfig(max_generations=0)
    with pytest.raises(ConfigError, match="plateau_generations must be >= 1"):
        GaConfig(plateau_generations=0)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        GaConfig(seed=-1)
    for name in ("population_size", "max_generations", "seed", "plateau_generations"):
        for bad in (2.5, 8.0, "8", None):
            with pytest.raises(ConfigError, match=f"{name} must be an integer"):
                GaConfig(**{name: bad})
    # numpy integers are integers
    assert GaConfig(population_size=np.int64(8), seed=np.uint32(1)).population_size == 8


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
    for bad in ([np.nan, 0.0, 0.0], [[0.0, np.inf, 0.0]],
                [[0.0, 0.0, 0.0], [-np.inf, 0.0, 0.0]]):
        with pytest.raises(ConfigError, match="finite"):
            ga_optimize(sphere, [(0.0, 1.0)] * 3, GaConfig(population_size=4), initial=bad)
    with pytest.raises(ConfigError, match=r"\(k, genes\) block, got shape \(2, 2, 3\)"):
        ga_optimize(sphere, [(0.0, 1.0)] * 3, GaConfig(population_size=4),
                    initial=np.zeros((2, 2, 3)))


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
    # The first population is the 16 corners of a box around the optimum, all
    # equally fit.  Each gene takes one of two values, so children made by
    # crossover alone recreate earlier rows: genomes also come back after a
    # generation away.
    cfg = GaConfig(population_size=16, max_generations=15, seed=5,
                   plateau_generations=50)
    bits = np.array([[(i >> gene) & 1 for gene in range(4)] for i in range(16)])
    corners = CENTER + (2.0 * bits - 1.0)
    fresh_batches = []  # one batch per generation: on_generation clears the memo

    def fresh_spy(pop):
        fresh_batches.append(pop.copy())
        return sphere(pop)

    memo_rows = []

    def memo_spy(pop):
        memo_rows.extend(pop.copy())
        return sphere(pop)

    fresh = ga_optimize(fresh_spy, BOUNDS4, cfg, initial=corners,
                        on_generation=lambda gen: None)
    memo = ga_optimize(memo_spy, BOUNDS4, cfg, initial=corners)
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
                   plateau_generations=8)
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


# --- RNG stream pins ---
# Bitwise results of small runs, recorded before the breeding loop was
# rewritten: any change to the order, sizes or use of the draws moves them.
# The fitness has many ties (rounded values) and some inf rows, so the
# tie-break of tournament selection and elitism is pinned too.


def tied_fitness(pop):
    f = np.round(np.sum((pop - CENTER) ** 2, axis=1)) + 1.0
    return np.where(pop[:, 1] > 2.0, np.inf, f)


PIN_BASE = dict(population_size=7, max_generations=20, plateau_generations=100, seed=5)

# name: (config overrides, keyword arguments, sha256 prefix of every block
#        sent to fitness, best genome bytes, best fitness, history)
STREAM_PINS = {
    "odd-children": (
        {}, {}, "cadc51f71f413360",
        "32013087c564f63f84440bd42f56d1bf32a7f06bee74fc3f98347d03584707c0", 12.0,
        [28, 28, 28, 19, 19, 19, 19, 17, 17, 17, 16, 16, 14, 14, 14, 13, 13, 12, 12, 12]),
    "decay": (
        {"population_size": 10}, {"mutation_decay": 0.8}, "dec47963f0374404",
        "d8a75e8f3cb4f43f82c26355eb2ce6bf2d8e87f5decf0440e5b8491bca19f73f", 2.0,
        [28, 12, 4, 4, 4, 4, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2]),
    "initial": (
        {}, {"initial": [[0.0, 0.0, 0.0, 0.0], [9.0, 3.0, 2.0, -9.0], [2.0, -1.0, 3.0, 1.0]]},
        "e48cb3e59bc34a91",
        "68e9f2136fcae13f000000000000f0bf0000000000000840000000000000f03f", 2.0,
        [3, 3] + [2] * 18),
}


@pytest.mark.parametrize("name", list(STREAM_PINS))
def test_rng_stream_is_pinned(name):
    overrides, kwargs, digest, genome_hex, best, history = STREAM_PINS[name]
    sent = hashlib.sha256()
    inf_rows = []

    def spy(pop):
        sent.update(pop.tobytes())
        fits = tied_fitness(pop)
        inf_rows.append(int(np.isinf(fits).sum()))
        return fits

    res = ga_optimize(spy, BOUNDS4, GaConfig(**{**PIN_BASE, **overrides}), **kwargs)
    assert sum(inf_rows) > 0
    assert sent.hexdigest()[:16] == digest
    assert res.best_genome.tobytes().hex() == genome_hex
    assert repr(res.best_fitness) == repr(best)
    assert res.history == [float(v) for v in history]
    assert (res.stop_reason, res.generations) == ("max-generations", 20)
