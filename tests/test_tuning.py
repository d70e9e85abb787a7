"""Parameter tuning: score maximization loop, quartile labels, determinism."""

import dataclasses
import os
import threading
import time

import numpy as np
import pytest

from crowdscore import shares, tuning
from crowdscore.errors import ConfigError, DataError
from crowdscore.features import FEATURE_CODES, extract
from crowdscore.genetic import GaConfig, ga_optimize
from crowdscore.quality import WeightVector, parse_reference_stats, score
from crowdscore.simulator import TUNE_BOUNDS, Scenario, SocialForcesParams, simulate
from crowdscore.tuning import TUNE_MODES, TuneConfig, TuneResult, quartile, tune

from helpers import assert_no_child_and_affinity

# Every test here must leave no child process and the CPU affinity it found.
pytestmark = pytest.mark.usefixtures("affinity")


def unit_stats():
    lines = []
    for code in FEATURE_CODES:
        lines.append(f"{code}.mu = 0.0")
        lines.append(f"{code}.sigma = 1.0")
    return parse_reference_stats("\n".join(lines))


def only_weight(code, value=1.0):
    vec = np.zeros(len(FEATURE_CODES))
    vec[FEATURE_CODES.index(code)] = value
    return WeightVector.from_vector(vec)


TINY_SCENARIO = Scenario(kind="circle", agent_count=4, radius=3.0, seed=1)


def tiny_config(**kwargs):
    defaults = dict(
        scenario=TINY_SCENARIO,
        duration=2.5,
        ga=GaConfig(population_size=6, max_generations=4, seed=1,
                    plateau_generations=30),
    )
    defaults.update(kwargs)
    return TuneConfig(**defaults)


def test_quartile_buckets_are_left_closed():
    assert quartile(0.0) == "Q1"
    assert quartile(0.22) == "Q1"
    assert quartile(0.225) == "Q2"
    assert quartile(0.45) == "Q3"
    assert quartile(0.674) == "Q3"
    assert quartile(0.675) == "Q4"
    assert quartile(0.79) == "Q4"
    assert quartile(1.0) == "Q4"


def test_quartile_rejects_bad_inputs():
    with pytest.raises(ValueError, match="score"):
        quartile(-0.1)
    with pytest.raises(ValueError, match="score"):
        quartile(1.2)


def test_tune_config_validation():
    with pytest.raises(ConfigError, match="unknown tune mode"):
        tiny_config(mode="annealed")
    with pytest.raises(ConfigError, match="duration"):
        tiny_config(duration=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="duration must be finite"):
            tiny_config(duration=bad)


def test_config_fields_are_pinned():
    # A workflow sets the budget, the seed and the scenario; the GA's breeding
    # settings and the tune decay are constants, so a new field is a new knob.
    assert [f.name for f in dataclasses.fields(GaConfig)] == [
        "population_size", "max_generations", "seed", "plateau_generations"]
    assert [f.name for f in dataclasses.fields(TuneConfig)] == [
        "scenario", "mode", "duration", "ga", "initial_params"]


def test_zero_weights_score_one_and_stop_immediately():
    res = tune(tiny_config(), unit_stats(), WeightVector.from_vector(np.zeros(21)))
    assert res.best_score_history == [1.0]
    assert res.ga.stop_reason == "target"


def test_collapsed_bounds_pin_the_optimum(monkeypatch):
    pin = SocialForcesParams(relaxation_time=0.6, repulsion_strength=4.0,
                             repulsion_range=0.5, max_speed=3.0,
                             noise_amplitude=0.0)
    monkeypatch.setattr(tuning, "TUNE_BOUNDS",
                        tuple((v, v) for v in (0.6, 4.0, 0.5, 3.0, 0.0)))
    cfg = tiny_config(ga=GaConfig(population_size=4, max_generations=3, seed=0,
                                  plateau_generations=30))
    res = tune(cfg, unit_stats(), only_weight("AWS", 0.3))
    assert res.p_opt == pin
    assert len(set(res.best_score_history)) == 1


def test_history_is_non_decreasing_and_optimum_in_bounds():
    cfg = tiny_config()
    res = tune(cfg, unit_stats(), only_weight("AWS", 0.5))
    assert isinstance(res, TuneResult)
    h = res.best_score_history
    assert all(b >= a for a, b in zip(h, h[1:]))
    for (low, high), name in zip(TUNE_BOUNDS, (
            "relaxation_time", "repulsion_strength", "repulsion_range",
            "max_speed", "noise_amplitude")):
        value = getattr(res.p_opt, name)
        assert low <= value <= high


def test_initial_params_seed_the_first_generation():
    start = SocialForcesParams(relaxation_time=1.5, repulsion_strength=1.0,
                               repulsion_range=0.3, max_speed=3.0,
                               noise_amplitude=0.5)
    stats = unit_stats()
    weights = only_weight("AWS", 0.5)
    cfg = tiny_config(initial_params=start,
                      ga=GaConfig(population_size=4, max_generations=1, seed=9,
                                  plateau_generations=30))
    res = tune(cfg, stats, weights)
    crowd = simulate(TINY_SCENARIO, start, cfg.duration)
    expected = score(crowd, stats, weights).total
    assert res.best_score_history[0] == pytest.approx(expected, abs=1e-12)


def share_cpus(monkeypatch, count):
    """Make the tuner cut each generation into ``count`` shares; they are
    pinned round the CPUs this process may use, so any count runs on any
    host."""
    monkeypatch.setattr(shares, "usable_cpus", lambda: count)


def recording_ga(monkeypatch, blocks, fitness_values):
    """Route tune's GA through a wrapper that records each block sent to the
    fitness and the values it got back."""

    def recording(fitness, *args, **kwargs):
        def recorded(population):
            blocks.append(population.copy())
            values = fitness(population)
            fitness_values.append(values)
            return values

        return ga_optimize(recorded, *args, **kwargs)

    monkeypatch.setattr(tuning, "ga_optimize", recording)


def count_forks(monkeypatch):
    """Count the calls to ``os.fork``, in the returned list."""
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def test_a_blown_up_crowd_gets_the_worst_fitness_and_the_search_goes_on(monkeypatch, affinity):
    """The crowd of each generation's first genome, picked by its row, leaves
    for infinity halfway through: its score is NaN, so its genome gets fitness
    1.0, and the other genomes are scored as usual, whichever share each
    genome lands in (1 share, then 2)."""
    simulate_population = tuning.simulate_population

    def blowing_up(scenario, genomes, duration):
        crowds = simulate_population(scenario, genomes, duration)
        for row, crowd in zip(genomes, crowds):
            if row.tobytes() == blocks[-1][0].tobytes():
                positions = crowd.positions.copy()
                positions[0, crowd.n_steps // 2 :] = np.inf
                crowd = crowd.with_positions(positions, crowd.dt)
            yield crowd

    monkeypatch.setattr(tuning, "simulate_population", blowing_up)
    for count in (1, 2):
        blocks, fitness_values = [], []
        share_cpus(monkeypatch, count)
        recording_ga(monkeypatch, blocks, fitness_values)
        res = tune(tiny_config(), unit_stats(), only_weight("AWS", 0.5))
        assert_no_child_and_affinity(affinity)
        assert len(fitness_values) == res.ga.generations
        for values in fitness_values:
            assert values[0] == 1.0
            assert np.all(values[1:] < 1.0)
        assert res.ga.stop_reason == "max-generations"
        assert 0.0 < res.best_score_history[-1] <= 1.0


@pytest.mark.parametrize("mode", TUNE_MODES)
def test_results_do_not_depend_on_the_share_count(monkeypatch, mode, affinity):
    forks = count_forks(monkeypatch)
    runs = []
    for count in (1, 2, 3):
        share_cpus(monkeypatch, count)
        blocks, fitness_values = [], []
        recording_ga(monkeypatch, blocks, fitness_values)
        forks.clear()
        res = tune(tiny_config(mode=mode), unit_stats(), only_weight("AWS", 0.5))
        assert_no_child_and_affinity(affinity)
        assert bool(forks) == (count > 1)
        runs.append((
            [block.tobytes() for block in blocks],
            [np.asarray(values).tobytes() for values in fitness_values],
            np.asarray(res.ga.history).tobytes(),
            res.ga.best_genome.tobytes(),
            res.best_score_history,
        ))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("share", [0, 1])
def test_an_error_in_a_share_is_raised_by_tune(monkeypatch, share, affinity):
    """A genome makes ``score`` raise, in the caller's share 0 or in the
    forked share 1.  In share 0 the caller raises while its child hangs on a
    genome, and kills the child as it unwinds; in share 1 the child fails and
    the caller scores that share again itself, raising the same error.
    Either way no child outlives the call and the caller's CPU affinity is
    restored."""
    real_score, simulate_population = tuning.score, tuning.simulate_population
    blocks, current = [], {}

    def tracking(scenario, genomes, duration):
        crowds = simulate_population(scenario, genomes, duration)
        for row, crowd in zip(genomes, crowds):
            current["row"] = row.tobytes()
            yield crowd

    def failing_score(crowd, stats, weights):
        first, last = blocks[0][0].tobytes(), blocks[0][-1].tobytes()
        if current["row"] == (last if share else first):
            raise DataError("genome refused")
        if current["row"] == last:  # in the child, while the caller raises
            time.sleep(60)
        return real_score(crowd, stats, weights)

    share_cpus(monkeypatch, 2)
    recording_ga(monkeypatch, blocks, [])
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(tuning, "simulate_population", tracking)
    monkeypatch.setattr(tuning, "score", failing_score)
    start = time.perf_counter()
    with pytest.raises(DataError, match="genome refused"):
        tune(tiny_config(), unit_stats(), only_weight("AWS", 0.5))
    assert time.perf_counter() - start < 30
    assert forks == [1]
    assert_no_child_and_affinity(affinity)


@pytest.mark.parametrize("population,expected", [(16, 8), (3, 3)])
def test_tune_asks_for_one_share_a_cpu_up_to_the_cap(monkeypatch, population, expected):
    """On 64 CPUs a generation of 16 new genomes goes in 8 shares, the cap,
    and one of 3 genomes in 3.  Only tune's calls of the runner are counted,
    not those of each crowd's pairwise pass."""
    calls, run_shares = [], shares.run_shares

    def counting_shares(work, n, k):
        if work.__module__ == tuning.__name__:
            calls.append((n, k))
        run_shares(work, n, 1)  # in this process

    monkeypatch.setattr(shares, "usable_cpus", lambda: 64)
    monkeypatch.setattr(shares, "run_shares", counting_shares)
    ga = GaConfig(population_size=population, max_generations=1, seed=1, plateau_generations=30)
    tune(tiny_config(ga=ga), unit_stats(), only_weight("AWS", 0.5))
    assert calls[0] == (population, expected)
    assert all(k == min(n, shares.MAX_WORKERS) for n, k in calls)


def test_tune_never_forks_while_another_thread_runs(monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called while another thread runs")

    share_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        res = tune(tiny_config(), unit_stats(), only_weight("AWS", 0.5))
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert res.best_score_history == TUNE_PINS["single"][0]


# Best-score history and optimum of tiny_config() under an AWS weight of 0.5,
# recorded bit for bit: a rewrite of the fitness or of the generic reseed must
# not move them.
TUNE_PINS = {
    "single": (
        [0.882919212649409, 0.882919212649409, 0.884171668829186, 0.884171668829186],
        SocialForcesParams(relaxation_time=1.5256928779971,
                           repulsion_strength=4.650911583484546,
                           repulsion_range=0.7535269129258708,
                           max_speed=3.9614743996024773,
                           noise_amplitude=1.44248579049568),
    ),
    "generic": (
        [0.8775394549823463, 0.8839012543174833, 0.8839012543174833, 0.8839012543174833],
        SocialForcesParams(relaxation_time=1.5256928779971,
                           repulsion_strength=2.2432700638883194,
                           repulsion_range=0.6433387477352839,
                           max_speed=3.099187375346119,
                           noise_amplitude=0.04133866986460255),
    ),
}


@pytest.mark.parametrize("mode", sorted(TUNE_PINS))
def test_tuned_results_are_pinned(mode):
    res = tune(tiny_config(mode=mode), unit_stats(), only_weight("AWS", 0.5))
    history, p_opt = TUNE_PINS[mode]
    assert res.best_score_history == history
    assert res.p_opt == p_opt


def test_generic_mode_resamples_scenarios_deterministically():
    weights = only_weight("AWS", 0.5)

    def run(mode):
        cfg = tiny_config(mode=mode,
                          ga=GaConfig(population_size=4, max_generations=3,
                                      seed=2, plateau_generations=30))
        return tune(cfg, unit_stats(), weights)

    gen_a = run("generic")
    gen_b = run("generic")
    single = run("single")
    assert gen_a.best_score_history == gen_b.best_score_history
    assert gen_a.best_score_history != single.best_score_history


def test_collision_weight_drives_contacts_away():
    # cramped ring: weak repulsion collides, so the tuner must avoid it
    scenario = Scenario(kind="circle", agent_count=6, radius=2.5, seed=4)
    cfg = TuneConfig(scenario=scenario, duration=3.0,
                     ga=GaConfig(population_size=8, max_generations=6, seed=0,
                                 plateau_generations=30))
    res = tune(cfg, unit_stats(), only_weight("COL"))
    assert res.best_score_history[-1] >= res.best_score_history[0]
    tuned = simulate(scenario, res.p_opt, cfg.duration)
    assert float(np.mean(extract(tuned)["COL"])) < 0.05
