"""Parameter tuning: score maximization loop, quartile labels, determinism."""

import numpy as np
import pytest

from crowdscore.errors import ConfigError
from crowdscore.features import FEATURE_CODES, extract
from crowdscore.genetic import GaConfig
from crowdscore.quality import WeightVector, parse_reference_stats, score
from crowdscore.simulator import Scenario, SocialForcesParams, simulate
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
        scenarios=[TINY_SCENARIO],
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
    assert quartile(0.5, edges=(0.25, 0.5, 0.75)) == "Q3"


def test_quartile_rejects_bad_inputs():
    with pytest.raises(ValueError, match="score"):
        quartile(-0.1)
    with pytest.raises(ValueError, match="score"):
        quartile(1.2)
    with pytest.raises(ValueError, match="edges"):
        quartile(0.5, edges=(0.5, 0.4, 0.7))
    with pytest.raises(ValueError, match="edges"):
        quartile(0.5, edges=(0.1, 0.2))


def test_tune_config_validation():
    with pytest.raises(ConfigError, match="at least one scenario"):
        TuneConfig(scenarios=[])
    with pytest.raises(ConfigError, match="unknown tune mode"):
        tiny_config(mode="annealed")
    with pytest.raises(ConfigError, match="exploration_decay"):
        tiny_config(exploration_decay=0.0)
    with pytest.raises(ConfigError, match="duration"):
        tiny_config(duration=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="duration must be finite"):
            tiny_config(duration=bad)


def test_zero_weights_score_one_and_stop_immediately():
    res = tune(tiny_config(), unit_stats(), WeightVector.from_vector(np.zeros(21)))
    assert res.best_score_history == [1.0]
    assert res.final_score == 1.0
    assert res.stop_reason == "target"


def test_collapsed_bounds_pin_the_optimum():
    pin = SocialForcesParams(relaxation_time=0.6, repulsion_strength=4.0,
                             repulsion_range=0.5, max_speed=3.0,
                             noise_amplitude=0.0)
    bounds = tuple((v, v) for v in (0.6, 4.0, 0.5, 3.0, 0.0))
    cfg = tiny_config(bounds=bounds,
                      ga=GaConfig(population_size=4, max_generations=3, seed=0,
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
    assert res.final_score == h[-1]
    for (low, high), name in zip(cfg.bounds, (
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
    cfg = TuneConfig(scenarios=[scenario], duration=3.0,
                     ga=GaConfig(population_size=8, max_generations=6, seed=0,
                                 plateau_generations=30))
    res = tune(cfg, unit_stats(), only_weight("COL"))
    assert res.final_score >= res.best_score_history[0]
    tuned = simulate(scenario, res.p_opt, cfg.duration)
    assert float(np.mean(extract(tuned)["COL"].flat())) < 0.05
