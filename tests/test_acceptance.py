"""Acceptance suite: the eight shipped guarantees, one verdict line each.

Each test exercises one end-to-end guarantee and pushes a [PASS]/[FAIL] line
through the session log, reprinted under "acceptance criteria" at the end of
the run.  Timed budgets are asserted where responsiveness is part of the
guarantee.
"""

import math
import time
from pathlib import Path

import numpy as np

import crowdscore
from crowdscore.cli import run as cli_run
from crowdscore.features import FEATURE_CODES, TTC_HORIZON, extract, pairwise_arrays
from crowdscore.genetic import GaConfig
from crowdscore.quality import (
    combine,
    cost,
    load_weights,
    parse_reference_stats,
    score,
)
from crowdscore.simulator import Scenario, SocialForcesParams
from crowdscore.training import degrade, train_weights
from crowdscore.tuning import TuneConfig, tune

from conftest import GOLDEN_WINDOW
from helpers import pair_planes, random_walk_crowd, rigid_transform


def test_cost_anchor_points(acceptance_log):
    """Gaussian penalty hits its analytic anchors for any (mu, sigma)."""
    t0 = time.perf_counter()
    at_one_sigma = 1.0 - math.exp(-0.5)
    at_two_sigma = 1.0 - math.exp(-2.0)
    worst = 0.0
    for mu, sig in [(0.0, 1.0), (1.3, 0.4), (-2.5, 0.01), (7.0, 250.0)]:
        stats = parse_reference_stats("\n".join(
            f"{c}.mu = {mu!r}\n{c}.sigma = {sig!r}" for c in FEATURE_CODES))
        anchors = [
            (mu, 0.0),
            (mu + sig, at_one_sigma),
            (mu - sig, at_one_sigma),
            (mu + 2 * sig, at_two_sigma),
            (mu - 2 * sig, at_two_sigma),
        ]
        for value, expected in anchors:
            got = cost("AWS", np.array([value]), stats)
            worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    acceptance_log("cost-anchors", ok,
                   f"max anchor error {worst:.2e} (tol 1e-09), {elapsed:.2f}s")


def test_weight_table(acceptance_log):
    """The shipped weight file loads and sets the documented score floor."""
    path = Path(crowdscore.__file__).parent / "data" / "default_weights.txt"
    weights = load_weights(path)
    total = weights.total()
    floor = combine(np.ones(len(FEATURE_CODES)), weights).total
    largest = max(weights.omega, key=weights.omega.get)
    ok = (abs(total - 0.9998) <= 1e-4
          and abs(floor - 0.0002) <= 1e-4
          and largest == "AWS")
    acceptance_log("weight-table", ok,
                   f"sum {total:.4f}, worst-case score {floor:.4f}, "
                   f"largest weight {largest}")


def test_pair_prediction_against_dense_stepping(acceptance_log):
    """Closed-form TTC/TCA/DCA agree with brute-force 0.1 ms stepping."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 1000
    pos_a = rng.uniform(-10.0, 10.0, (n, 2))
    pos_b = rng.uniform(-10.0, 10.0, (n, 2))
    vel_a = rng.uniform(-2.0, 2.0, (n, 2))
    vel_b = rng.uniform(-2.0, 2.0, (n, 2))
    # near-identical velocities approach forever; resample them so every
    # closest approach happens inside the finite reference grid
    for _ in range(100):
        slow = np.linalg.norm(vel_a - vel_b, axis=1) < 0.4
        if not slow.any():
            break
        vel_a[slow] = rng.uniform(-2.0, 2.0, (int(slow.sum()), 2))
        vel_b[slow] = rng.uniform(-2.0, 2.0, (int(slow.sum()), 2))

    radius, horizon = 0.3, TTC_HORIZON
    dp = pos_b - pos_a
    dv = vel_b - vel_a
    _, ttc, tca, dca = pairwise_arrays(dp[:, 0].copy(), dp[:, 1].copy(), dv[:, 0].copy(),
                                       dv[:, 1].copy(), radius + radius, pair_planes((n,)))

    # dense reference: march the relative position on a 1e-4 s grid out to
    # 72 s (max start offset 28.3 m over min closing speed 0.4 m/s)
    dt = 1e-4
    steps = int(round(72.0 / dt)) + 1
    contact2 = (2 * radius) ** 2
    best_d2 = np.full(n, np.inf)
    best_t = np.zeros(n)
    dense_ttc = np.full(n, horizon)
    have_ttc = np.zeros(n, dtype=bool)
    block = 10000
    for start in range(0, steps, block):
        t = (start + np.arange(min(block, steps - start))) * dt
        dx = dp[:, :1] + dv[:, :1] * t[None, :]
        dy = dp[:, 1:] + dv[:, 1:] * t[None, :]
        d2 = dx * dx + dy * dy
        idx = np.argmin(d2, axis=1)
        val = d2[np.arange(n), idx]
        better = val < best_d2
        best_d2[better] = val[better]
        best_t[better] = t[idx[better]]
        in_horizon = t <= horizon
        if in_horizon.any():
            touching = d2[:, in_horizon] <= contact2
            rows = touching.any(axis=1) & ~have_ttc
            if rows.any():
                first = np.argmax(touching[rows], axis=1)
                dense_ttc[rows] = t[in_horizon][first]
                have_ttc[rows] = True

    err_tca = float(np.abs(tca - best_t).max())
    err_dca = float(np.abs(dca - np.sqrt(best_d2)).max())
    err_ttc = float(np.abs(ttc - dense_ttc).max())
    elapsed = time.perf_counter() - t0
    ok = max(err_tca, err_dca, err_ttc) <= 1e-3 and elapsed < 30.0
    acceptance_log("pair-prediction", ok,
                   f"1000 pairs, max error tca {err_tca:.1e} s, dca {err_dca:.1e} m, "
                   f"ttc {err_ttc:.1e} s (tol 1e-03), {elapsed:.1f}s")


def test_golden_outscores_degraded(acceptance_log, golden_crowds,
                                   heldout_crowds, golden_stats, table_weights):
    """Held-out golden runs beat their degraded variants by a clear margin."""
    t0 = time.perf_counter()
    col_max = max(float(extract(c)["COL"].max())
                  for c in golden_crowds + heldout_crowds)
    recipes = (("no-avoidance", {}), ("jitter", {}),
               ("speed-scale", {"factor": 2.0}))
    margins = []
    per_recipe = {mode: [] for mode, _ in recipes}  # s_gold - s_deg per crowd
    pointwise_ok = True
    for crowd in heldout_crowds:
        s_gold = score(crowd, golden_stats, table_weights,
                       window=GOLDEN_WINDOW).total
        damaged = []
        for mode, kwargs in recipes:
            s_deg = score(degrade(crowd, mode, seed=7, **kwargs), golden_stats,
                          table_weights, window=GOLDEN_WINDOW).total
            damaged.append(s_deg)
            per_recipe[mode].append(s_gold - s_deg)
            pointwise_ok = pointwise_ok and s_gold > s_deg
        margins.append(s_gold - float(np.mean(damaged)))
    elapsed = time.perf_counter() - t0
    ok = (col_max == 0.0 and pointwise_ok and min(margins) >= 0.15
          and elapsed < 300.0)
    recipe_ranges = ", ".join(f"{mode} {min(m):+.3f}..{max(m):+.3f}"
                              for mode, m in per_recipe.items())
    acceptance_log("golden-vs-degraded", ok,
                   "margins " + " ".join(f"{m:+.3f}" for m in margins)
                   + f" (need >= +0.150; per recipe {recipe_ranges}), "
                   f"contact max {col_max:g}, {elapsed:.1f}s")


def test_training_concentrates_weight(acceptance_log):
    """Weight training piles the mass onto the one discriminating feature."""
    t0 = time.perf_counter()
    planted = "COL"
    costs = np.full((12, len(FEATURE_CODES)), 0.5)  # every other cost sits at 0.5
    costs[:6, FEATURE_CODES.index(planted)] = 0.0  # golden
    costs[6:, FEATURE_CODES.index(planted)] = 1.0  # degraded
    targets = np.r_[np.ones(6), np.zeros(6)]
    cfg = GaConfig(population_size=48, max_generations=150, seed=0,
                   plateau_generations=150)
    weights, result = train_weights(costs, targets, cfg)
    vec = weights.vector()
    share = float(vec[FEATURE_CODES.index(planted)] / vec.sum())
    non_increasing = all(a >= b for a, b in zip(result.history,
                                                result.history[1:]))
    elapsed = time.perf_counter() - t0
    ok = (share >= 0.9 and result.best_fitness < 0.05 and non_increasing
          and elapsed < 120.0)
    acceptance_log("weight-training", ok,
                   f"planted share {share:.3f} (need >= 0.900), final fitness "
                   f"{result.best_fitness:.4f}, {result.generations} generations, "
                   f"{elapsed:.1f}s")


def test_tuning_climbs_from_poor_start(acceptance_log, golden_stats,
                                       table_weights):
    """Tuning a 20-agent circle recovers from a deliberately bad seed."""
    t0 = time.perf_counter()
    scenario = Scenario(kind="circle", agent_count=20, radius=7.0, seed=42)
    drunk_walker = SocialForcesParams(relaxation_time=2.0,
                                      repulsion_strength=0.0,
                                      repulsion_range=0.05, max_speed=4.0,
                                      noise_amplitude=1.5)
    config = TuneConfig(
        scenario=scenario,
        mode="single",
        duration=11.0,
        ga=GaConfig(population_size=32, max_generations=150,
                    plateau_generations=60, seed=0),
        initial_params=drunk_walker,
    )
    result = tune(config, golden_stats, table_weights)
    history = result.best_score_history
    gain = history[-1] - history[0]
    non_decreasing = all(b >= a for a, b in zip(history, history[1:]))
    elapsed = time.perf_counter() - t0
    ok = (gain >= 0.3 and non_decreasing and len(history) <= 150
          and elapsed < 600.0)
    acceptance_log("parameter-tuning", ok,
                   f"score {history[0]:.3f} -> {history[-1]:.3f} "
                   f"(gain {gain:+.3f}, need >= +0.300), "
                   f"{len(history)} generations, {elapsed:.0f}s")


def test_cli_byte_reproducibility(acceptance_log, tmp_path, monkeypatch):
    """Re-running every subcommand reproduces each output byte for byte."""
    t0 = time.perf_counter()

    def pipeline(root, threads):
        root.mkdir()
        monkeypatch.chdir(root)
        (root / "golden").mkdir()
        commands = [
            ["simulate", "--kind", "circle", "--agents", "5", "--radius", "4.0",
             "--duration", "3.0", "--seed", "0", "--out", "golden/run0.csv"],
            ["simulate", "--kind", "circle", "--agents", "5", "--radius", "4.0",
             "--duration", "3.0", "--seed", "1", "--out", "golden/run1.csv"],
            ["fit-reference", "--golden", "golden", "--out", "stats.txt"],
            ["score", "--trajectory", "golden/run0.csv", "--stats", "stats.txt",
             "--breakdown", "breakdown.csv"],
            ["features", "--trajectory", "golden/run0.csv",
             "--out", "features.csv"],
            ["degrade", "--trajectory", "golden/run0.csv", "--mode", "jitter",
             "--seed", "3", "--out", "jittered.csv"],
            ["train-weights", "--golden", "golden", "--auto-degrade",
             "--stats", "stats.txt", "--population", "8", "--generations", "2",
             "--threads", str(threads), "--out", "weights.txt"],
            ["tune", "--kind", "circle", "--agents", "4", "--radius", "3.0",
             "--duration", "2.0", "--stats", "stats.txt", "--population", "4",
             "--generations", "2", "--threads", str(threads),
             "--out", "params.txt"],
        ]
        for argv in commands:
            assert cli_run(argv) == 0, argv
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    first = pipeline(tmp_path / "a", threads=1)
    second = pipeline(tmp_path / "b", threads=1)
    threaded = pipeline(tmp_path / "c", threads=2)

    rerun_ok = (set(first) == set(second)
                and all(first[k] == second[k] for k in first))
    # the manifest records the differing --threads flag, so compare the rest
    payload = [k for k in first if not k.endswith(".manifest.txt")]
    threads_ok = (set(first) == set(threaded)
                  and all(first[k] == threaded[k] for k in payload))
    elapsed = time.perf_counter() - t0
    ok = rerun_ok and threads_ok
    acceptance_log("cli-reproducibility", ok,
                   f"{len(first)} files identical across reruns, "
                   f"{len(payload)} identical with --threads 2, {elapsed:.1f}s")


def test_score_invariances(acceptance_log, golden_crowds, golden_stats,
                           table_weights):
    """Rigid motions, cost monotonicity and the [0, 1] score range."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)

    subjects = [golden_crowds[0]] + [
        random_walk_crowd(seed=k, n_agents=4, steps=30) for k in range(9)
    ]
    rigid_dev = 0.0
    for k, crowd in enumerate(subjects):
        angle = 0.31 + 0.61 * k
        shift = tuple(rng.uniform(-5.0, 5.0, 2))
        moved = rigid_transform(crowd, angle, shift)
        s_orig = score(crowd, golden_stats, table_weights).total
        s_moved = score(moved, golden_stats, table_weights).total
        rigid_dev = max(rigid_dev, abs(s_moved - s_orig))
    rigid_ok = rigid_dev <= 1e-8

    mono_ok = True
    for _ in range(50):
        base = rng.uniform(0.0, 1.0, len(FEATURE_CODES))
        i = int(rng.integers(len(FEATURE_CODES)))
        bumped = base.copy()
        bumped[i] = min(1.0, bumped[i] + float(rng.uniform(0.05, 0.5)))
        mono_ok = mono_ok and (combine(bumped, table_weights).total
                               <= combine(base, table_weights).total + 1e-12)
    perfect = combine(np.zeros(len(FEATURE_CODES)), table_weights).total

    scores = [score(random_walk_crowd(seed=1000 + k, n_agents=3, steps=25),
                    golden_stats, table_weights).total for k in range(100)]
    range_ok = all(0.0 <= s <= 1.0 for s in scores)
    clamped = sum(1 for s in scores if s == 0.0)
    elapsed = time.perf_counter() - t0
    ok = rigid_ok and mono_ok and range_ok and perfect == 1.0
    acceptance_log("score-invariances", ok,
                   f"rigid-motion dev {rigid_dev:.1e} (tol 1e-08), 50/50 cost "
                   f"bumps monotone, 100 random crowds in [0,1] "
                   f"({clamped} clamped at 0), {elapsed:.1f}s")
