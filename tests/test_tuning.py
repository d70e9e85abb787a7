"""Parameter tuning: score maximization loop, quartile labels, determinism."""

import dataclasses

import numpy as np
import pytest

from crowdscore import tuning
from crowdscore.errors import ConfigError
from crowdscore.features import FEATURE_CODES, extract
from crowdscore.genetic import GaConfig
from crowdscore.quality import WeightVector, parse_reference_stats, score
from crowdscore.simulator import TUNE_BOUNDS, Scenario, SocialForcesParams, simulate
from crowdscore.tuning import TuneConfig, TuneResult, quartile, tune


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


def test_a_blown_up_crowd_gets_the_worst_fitness_and_the_search_goes_on(monkeypatch):
    """The first crowd of every simulated generation leaves for infinity
    halfway through: its score is NaN, so its genome gets fitness 1.0, and
    the other genomes are scored as usual."""
    simulate_population, ga_optimize = tuning.simulate_population, tuning.ga_optimize
    fitness_values = []

    def blowing_up(scenario, genomes, duration):
        for k, crowd in enumerate(simulate_population(scenario, genomes, duration)):
            if k == 0:
                positions = crowd.positions.copy()
                positions[0, crowd.n_steps // 2 :] = np.inf
                crowd = crowd.with_positions(positions, crowd.dt)
            yield crowd

    def recording_ga(fitness, *args, **kwargs):
        def recorded(population):
            values = fitness(population)
            fitness_values.append(values)
            return values

        return ga_optimize(recorded, *args, **kwargs)

    monkeypatch.setattr(tuning, "simulate_population", blowing_up)
    monkeypatch.setattr(tuning, "ga_optimize", recording_ga)
    res = tune(tiny_config(), unit_stats(), only_weight("AWS", 0.5))
    assert len(fitness_values) == res.ga.generations
    for values in fitness_values:
        assert values[0] == 1.0
        assert np.all(values[1:] < 1.0)
    assert res.ga.stop_reason == "max-generations"
    assert 0.0 < res.best_score_history[-1] <= 1.0


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
