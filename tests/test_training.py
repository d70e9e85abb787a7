"""Degrade modes, training-set assembly, correlation checks, weight training."""

import numpy as np
import pytest

from crowdscore.errors import ConfigError, DataError
from crowdscore.features import FEATURE_CODES, extract
from crowdscore.genetic import GaConfig
from crowdscore.quality import cost_vector
from crowdscore.training import (
    DEGRADE_MODES,
    build_training_set,
    check_correlations,
    degrade,
    train_weights,
    training_fitness,
)

from helpers import random_walk_crowd, straight_crowd


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
    with pytest.raises(ValueError, match=r"unexpected parameters \['factor'\]"):
        degrade(crowd, "jitter", amplitude=0.5, factor=2.0)
    with pytest.raises(ValueError, match="fraction"):
        degrade(crowd, "freeze", fraction=1.5)


def test_build_training_set_rows_and_targets(golden_crowds, golden_stats):
    golden = golden_crowds[:2]
    degraded = [degrade(golden_crowds[0], "no-avoidance")]
    costs, targets = build_training_set(golden, degraded, golden_stats)
    expected = [cost_vector(extract(c, golden_stats.fd_curve), golden_stats)
                for c in golden + degraded]
    assert np.array_equal(costs, expected)
    assert np.array_equal(targets, [1.0, 1.0, 0.0])
    with pytest.raises(DataError, match="at least one golden"):
        build_training_set([], degraded, golden_stats)


def synth_feature_map(seed, overrides):
    rng = np.random.default_rng(seed)
    features = {
        code: rng.uniform(0.0, 1.0, size=3) for code in FEATURE_CODES
    }
    for code, value in overrides.items():
        features[code] = np.full(3, float(value))
    return features


def test_check_correlations_flags_duplicates_and_marks_degenerates():
    feature_maps = [
        synth_feature_map(k, {"AWS": k, "DGD": k, "INE": -float(k), "LEN": 5.0})
        for k in range(5)
    ]
    pairs = {(p.code_a, p.code_b): p for p in check_correlations(feature_maps)}
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
        check_correlations(feature_maps[:1])


@pytest.mark.parametrize("costs, targets, error, match", [
    (np.zeros((0, 21)), np.zeros(0), DataError, "no training examples"),
    (np.zeros((2, 20)), np.ones(2), ConfigError, "shape"),
    (np.zeros(21), np.ones(1), ConfigError, "shape"),
    (np.zeros((1, 2, 21)), np.ones(1), ConfigError, "shape"),
    (np.full((2, 21), np.nan), np.ones(2), DataError, "not finite"),
    (np.r_[np.zeros((1, 21)), np.full((1, 21), np.inf)], np.ones(2), DataError, "not finite"),
    (np.zeros((2, 21)), np.ones(3), ValueError, "expected 2 targets"),
    (np.zeros((2, 21)), np.ones((2, 1)), ValueError, "expected 2 targets"),
    (np.zeros((2, 21)), np.array([1.0, 1.5]), ValueError, r"\[0,1\]"),
    (np.zeros((2, 21)), np.array([-0.1, 0.0]), ValueError, r"\[0,1\]"),
    (np.zeros((2, 21)), np.array([np.nan, 0.0]), ValueError, r"\[0,1\]"),
], ids=["empty", "20-columns", "1-d", "3-d", "nan-cost", "inf-cost", "too-many-targets",
        "column-targets", "target-above-1", "target-below-0", "nan-target"])
def test_train_weights_rejects_malformed_training_sets(costs, targets, error, match):
    with pytest.raises(error, match=match):
        train_weights(costs, targets, GaConfig(population_size=4, max_generations=1))


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


def planted_training_set(planted="COL", n=3):
    """Every cost is 0.5 except the planted feature's: 0 golden, 1 degraded."""
    costs = np.full((2 * n, len(FEATURE_CODES)), 0.5)
    costs[:n, FEATURE_CODES.index(planted)] = 0.0
    costs[n:, FEATURE_CODES.index(planted)] = 1.0
    return costs, np.r_[np.ones(n), np.zeros(n)]


def test_train_weights_concentrates_on_discriminating_feature():
    costs, targets = planted_training_set("COL")
    cfg = GaConfig(population_size=32, max_generations=60, seed=2,
                   plateau_generations=60)
    weights, result = train_weights(costs, targets, cfg)
    vec = weights.vector()
    share = vec[FEATURE_CODES.index("COL")] / vec.sum()
    assert share > 0.5
    assert result.best_fitness < 0.15
    assert all(a >= b for a, b in zip(result.history, result.history[1:]))


def test_train_weights_keeps_initial_in_first_generation():
    costs, targets = planted_training_set("AWS")
    start = np.zeros(21)
    start[FEATURE_CODES.index("AWS")] = 1.0
    start_fit = training_fitness(costs, targets)(start[None])[0]
    cfg = GaConfig(population_size=16, max_generations=3, seed=0,
                   plateau_generations=30)
    _, result = train_weights(costs, targets, cfg, initial=start)
    assert result.best_fitness <= start_fit
