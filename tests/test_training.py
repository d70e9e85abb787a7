"""Degrade modes, training-set assembly, correlation checks, weight training."""

import math

import numpy as np
import pytest

from crowdscore.errors import ConfigError, DataError
from crowdscore.features import FEATURE_CODES, extract
from crowdscore.genetic import GaConfig
from crowdscore.quality import WeightVector, parse_reference_stats
from crowdscore.training import (
    DEGRADE_MODES,
    TrainingExample,
    build_training_set,
    check_correlations,
    degrade,
    example_cost_matrix,
    train_weights,
    training_fitness,
)

from helpers import random_walk_crowd, straight_crowd


def unit_stats():
    lines = []
    for code in FEATURE_CODES:
        lines.append(f"{code}.mu = 0.0")
        lines.append(f"{code}.sigma = 1.0")
    return parse_reference_stats("\n".join(lines))


@pytest.mark.parametrize("mode", DEGRADE_MODES)
def test_degrade_preserves_crowd_frame(mode):
    crowd = random_walk_crowd(seed=11, n_agents=5, steps=40)
    out = degrade(crowd, mode, seed=3)
    assert out.n_agents == crowd.n_agents
    assert out.n_steps == crowd.n_steps
    assert out.dt == crowd.dt
    assert out.t0 == crowd.t0
    assert np.allclose(out.positions[:, 0], crowd.positions[:, 0])
    assert np.array_equal(out.goals, crowd.goals)
    assert np.array_equal(out.comfort_speeds, crowd.comfort_speeds)
    assert np.array_equal(out.body_radii, crowd.body_radii)
    assert np.array_equal(out.agent_ids, crowd.agent_ids)


def test_no_avoidance_walks_straight_at_comfort():
    crowd = random_walk_crowd(seed=4, n_agents=3, steps=30)
    out = degrade(crowd, "no-avoidance")
    P = out.positions
    start = P[:, 0]
    goals = out.goals
    # every position sits on the start-goal segment
    for a in range(out.n_agents):
        seg = goals[a] - start[a]
        seg_len = np.linalg.norm(seg)
        rel = P[a] - start[a]
        cross = rel[:, 0] * seg[1] - rel[:, 1] * seg[0]
        assert np.all(np.abs(cross) < 1e-9 * max(seg_len, 1.0))
        along = rel @ seg / max(seg_len, 1e-9)
        assert np.all(along >= -1e-9)
        assert np.all(along <= seg_len + 1e-9)
    speeds = out.speeds
    assert np.all(speeds <= out.comfort_speeds[:, None] + 1e-9)


def test_no_avoidance_causes_contacts_in_circle_crossings(golden_crowds):
    golden = golden_crowds[0]
    assert np.all(extract(golden)["COL"] == 0.0)
    rammed = degrade(golden, "no-avoidance")
    assert float(np.mean(extract(rammed)["COL"])) > 0.0


def test_jitter_preserves_speed_profile():
    crowd = random_walk_crowd(seed=8, n_agents=4, steps=35)
    out = degrade(crowd, "jitter", seed=1)
    assert not np.allclose(out.positions, crowd.positions)
    assert np.allclose(out.speeds, crowd.speeds, atol=1e-10)


def test_jitter_zero_amplitude_is_identity():
    crowd = random_walk_crowd(seed=8)
    out = degrade(crowd, "jitter", seed=1, amplitude=0.0)
    assert np.allclose(out.positions, crowd.positions)


def test_degrade_same_seed_is_deterministic():
    crowd = random_walk_crowd(seed=2)
    a = degrade(crowd, "jitter", seed=9)
    b = degrade(crowd, "jitter", seed=9)
    c = degrade(crowd, "jitter", seed=10)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_speed_scale_multiplies_speeds():
    crowd = straight_crowd(speed=1.0, steps=11, n_agents=2)
    out = degrade(crowd, "speed-scale", factor=3.0)
    assert np.allclose(out.speeds, 3.0, atol=1e-9)
    assert np.allclose(out.positions[:, 0], crowd.positions[:, 0])


def test_freeze_stops_agents_mid_walk():
    crowd = random_walk_crowd(seed=6, n_agents=6, steps=40)
    out = degrade(crowd, "freeze", seed=0, fraction=1.0)
    P = out.positions
    # stop times land in the middle half of the run
    assert np.allclose(P[:, :10], crowd.positions[:, :10])
    assert np.all(P[:, 30:] == P[:, 30:31])
    # an untouched degrade keeps everyone moving
    out0 = degrade(crowd, "freeze", seed=0, fraction=0.0)
    assert np.allclose(out0.positions, crowd.positions)


def test_degrade_rejects_unknown_mode_and_params():
    crowd = random_walk_crowd(seed=0)
    with pytest.raises(ValueError, match="unknown degrade mode"):
        degrade(crowd, "melt")
    with pytest.raises(ValueError, match="unexpected parameters"):
        degrade(crowd, "no-avoidance", amplitude=0.5)
    with pytest.raises(ValueError, match="fraction"):
        degrade(crowd, "freeze", fraction=1.5)


def test_build_training_set_targets_and_labels():
    golden = [straight_crowd(steps=12)]
    degraded = [random_walk_crowd(seed=0, n_agents=2, steps=12),
                (random_walk_crowd(seed=1, n_agents=2, steps=12), 0.25)]
    examples = build_training_set(golden, degraded)
    assert [ex.target for ex in examples] == [1.0, 0.0, 0.25]
    assert [ex.label for ex in examples] == ["golden-0", "degraded-0", "degraded-1"]
    assert all(set(ex.features) == set(FEATURE_CODES) for ex in examples)
    with pytest.raises(DataError, match="at least one golden"):
        build_training_set([], degraded)
    with pytest.raises(ValueError, match="target"):
        TrainingExample(features=examples[0].features, target=1.5, label="x")


def synth_example(seed, overrides):
    rng = np.random.default_rng(seed)
    features = {
        code: rng.uniform(0.0, 1.0, size=3) for code in FEATURE_CODES
    }
    for code, value in overrides.items():
        features[code] = np.full(3, float(value))
    return TrainingExample(features=features, target=1.0, label=f"s{seed}")


def test_check_correlations_flags_duplicates_and_marks_degenerates():
    examples = [
        synth_example(k, {"AWS": k, "DGD": k, "INE": -float(k), "LEN": 5.0})
        for k in range(5)
    ]
    pairs = {(p.code_a, p.code_b): p for p in check_correlations(examples)}
    assert len(pairs) == 21 * 20 // 2
    dup = pairs[("AWS", "DGD")]
    assert dup.rho == pytest.approx(1.0)
    assert dup.flagged and not dup.degenerate
    anti = pairs[("AWS", "INE")]
    assert anti.rho == pytest.approx(-1.0)
    assert anti.flagged
    const = pairs[("AWS", "LEN")]
    assert const.degenerate and not const.flagged and const.rho == 0.0
    with pytest.raises(ValueError, match="at least 2"):
        check_correlations(examples[:1])


def test_example_cost_matrix_shapes_and_errors():
    stats = unit_stats()
    examples = [synth_example(0, {}), synth_example(1, {})]
    costs, targets = example_cost_matrix(examples, stats)
    assert costs.shape == (2, 21)
    assert np.all((costs >= 0.0) & (costs <= 1.0))
    assert np.array_equal(targets, [1.0, 1.0])
    with pytest.raises(DataError, match="no training examples"):
        example_cost_matrix([], stats)
    broken = synth_example(2, {})
    del broken.features["COL"]
    with pytest.raises(ConfigError, match="missing features: COL"):
        example_cost_matrix([broken], stats)


def test_training_fitness_zero_weights_scores_golden_perfectly():
    rng = np.random.default_rng(0)
    costs = rng.uniform(0.0, 1.0, size=(4, 21))
    targets = np.ones(4)
    fitness = training_fitness(costs, targets)
    assert fitness(np.zeros((1, 21)))[0] == 0.0


def test_training_fitness_normalizes_oversized_weights():
    costs = np.ones((1, 21))
    fitness = training_fitness(costs, np.array([1.0]))
    # weights summing past 1 are rescaled, so all-ones zeroes the score
    assert fitness(np.ones((1, 21)))[0] == pytest.approx(1.0)
    assert fitness(np.full((1, 21), 0.5))[0] == pytest.approx(1.0)
    lone = np.zeros((1, 21))
    lone[0, 3] = 0.2
    assert fitness(lone)[0] == pytest.approx(0.2)


def test_batched_training_fitness_matches_per_genome_formula():
    rng = np.random.default_rng(4)
    costs = rng.uniform(0.0, 1.0, size=(12, 21))
    targets = np.r_[np.ones(4), np.zeros(6), 0.3, 0.7]
    weights = rng.uniform(0.0, 1.0, size=(40, 21))
    weights[:10] *= rng.uniform(0.0, 0.09, size=(10, 1))  # sums below 1
    weights[10] = 0.0
    weights[11] = 1.0 / 21.0
    sums = weights.sum(axis=1)
    assert np.any(sums > 1.0) and np.any(sums < 1.0)

    def per_genome(w):
        total = w.sum()
        if total > 1.0:
            w = w / total
        return float(np.mean(np.abs(targets - (1.0 - costs @ w))))

    batched = training_fitness(costs, targets)(weights)
    assert batched.shape == (40,)
    expected = np.array([per_genome(w) for w in weights])
    assert np.max(np.abs(batched - expected)) <= 1e-15


def planted_training_examples(planted="COL", n=3):
    offset = math.sqrt(2.0 * math.log(2.0))  # cost exactly 0.5 at mu=0 sigma=1
    examples = []
    for i in range(n):
        features = {code: np.full(4, offset) for code in FEATURE_CODES}
        features[planted] = np.zeros(4)
        examples.append(TrainingExample(features=features, target=1.0,
                                        label=f"golden-{i}"))
    for i in range(n):
        features = {code: np.full(4, offset) for code in FEATURE_CODES}
        features[planted] = np.full(4, 10.0)
        examples.append(TrainingExample(features=features, target=0.0,
                                        label=f"degraded-{i}"))
    return examples


def test_train_weights_concentrates_on_discriminating_feature():
    examples = planted_training_examples("COL")
    cfg = GaConfig(population_size=32, max_generations=60, seed=2,
                   plateau_generations=60)
    weights, result = train_weights(examples, unit_stats(), cfg)
    vec = weights.vector()
    share = vec[FEATURE_CODES.index("COL")] / vec.sum()
    assert share > 0.5
    assert result.best_fitness < 0.15
    assert all(a >= b for a, b in zip(result.history, result.history[1:]))


def test_train_weights_keeps_initial_in_first_generation():
    examples = planted_training_examples("AWS")
    stats = unit_stats()
    costs, targets = example_cost_matrix(examples, stats)
    start = np.zeros(21)
    start[FEATURE_CODES.index("AWS")] = 1.0
    start_fit = training_fitness(costs, targets)(start[None])[0]
    cfg = GaConfig(population_size=16, max_generations=3, seed=0,
                   plateau_generations=30)
    _, result = train_weights(examples, stats, cfg, initial=start)
    assert result.best_fitness <= start_fit
