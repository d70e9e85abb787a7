import math

import numpy as np
import pytest

from crowdscore import quality
from crowdscore.errors import ConfigError, DataError
from crowdscore.features import (
    FD_BIN_WIDTH,
    FEATURE_CODES,
    FundamentalDiagramCurve,
    extract,
    fundamental_diagram_curve,
)
from crowdscore.quality import (
    SIGMA_FLOOR,
    ReferenceStats,
    WeightVector,
    combine,
    cost,
    cost_vector,
    default_weights,
    fit_reference,
    fit_reference_from_crowds,
    load_reference_stats,
    load_weights,
    parse_reference_stats,
    parse_weights,
    save_reference_stats,
    save_weights,
    score,
)
from crowdscore.simulator import parse_params

from helpers import (
    colliding_crowd,
    crowd_arrays,
    crowd_from_positions,
    random_walk_crowd,
    straight_crowd,
)


def samples_of(values):
    return np.asarray(values, dtype=float)


def stats_for(mu, sigma):
    return ReferenceStats(
        mu={c: mu for c in FEATURE_CODES},
        sigma={c: sigma for c in FEATURE_CODES},
        fd_curve=FundamentalDiagramCurve(
            densities=np.array([0.25]), speeds=np.array([mu])
        ),
    )


FLAT_CURVE = FundamentalDiagramCurve(densities=np.array([0.25]), speeds=np.array([1.0]))


def full_sample_map(value, n=8):
    return {c: np.full(n, value) for c in FEATURE_CODES}


# --- Gaussian penalty ---


def test_cost_analytic_values():
    st = stats_for(mu=2.0, sigma=0.5)
    assert cost("AWS", samples_of([2.0, 2.0]), st) == pytest.approx(0.0, abs=1e-15)
    assert cost("AWS", samples_of([2.5]), st) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
    assert cost("AWS", samples_of([1.5]), st) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
    assert cost("AWS", samples_of([3.0]), st) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)
    # half at mu, half at mu + 2 sigma
    mixed = cost("AWS", samples_of([2.0, 3.0]), st)
    assert mixed == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, abs=1e-12)


def test_cost_is_affine_invariant_and_order_free():
    rng = np.random.default_rng(2)
    vals = rng.normal(1.0, 0.4, size=300)
    st = stats_for(mu=1.0, sigma=0.4)
    base = cost("AWS", samples_of(vals), st)

    a, b = 2.5, -1.0
    st2 = stats_for(mu=a * 1.0 + b, sigma=a * 0.4)
    assert cost("AWS", samples_of(a * vals + b), st2) == pytest.approx(base, abs=1e-12)

    assert cost("AWS", samples_of(vals[::-1]), st) == pytest.approx(base, abs=1e-15)


def test_cost_rejects_empty_and_missing():
    st = stats_for(1.0, 0.5)
    with pytest.raises(ValueError):
        cost("AWS", samples_of([]), st)
    del st.mu["AWS"]
    with pytest.raises(ConfigError):
        cost("AWS", samples_of([1.0]), st)


# --- reference fitting ---


def test_fit_reference_recovers_gaussian_parameters():
    rng = np.random.default_rng(0)
    draws = rng.normal(1.4, 0.2, size=10000)
    sample_map = full_sample_map(0.0)
    sample_map["AWS"] = draws
    sample_map["LDN"] = np.abs(draws)
    st = fit_reference(sample_map, FLAT_CURVE)
    assert st.fd_curve is FLAT_CURVE
    assert st.mu["AWS"] == pytest.approx(1.4, abs=0.02)
    assert st.sigma["AWS"] == pytest.approx(0.2, abs=0.02)
    assert st.mu["AWS"] == pytest.approx(float(np.mean(draws)), abs=1e-12)
    assert st.sigma["AWS"] == pytest.approx(float(np.std(draws)), abs=1e-12)


def test_fit_reference_population_sigma_and_floor():
    sample_map = full_sample_map(5.0)
    st = fit_reference(sample_map, FLAT_CURVE)
    assert st.sigma["DGD"] == SIGMA_FLOOR  # constant samples hit the floor
    assert st.mu["DGD"] == pytest.approx(5.0)

    sample_map["AWS"] = np.array([0.0, 2.0])
    sample_map["LDN"] = np.array([0.1, 0.1])
    st2 = fit_reference(sample_map, FLAT_CURVE)
    assert st2.mu["AWS"] == pytest.approx(1.0)
    assert st2.sigma["AWS"] == pytest.approx(1.0)  # population, not sample, std


def test_fit_reference_needs_two_samples_per_feature():
    sample_map = full_sample_map(1.0)
    sample_map["TTC"] = np.array([10.0])
    with pytest.raises(DataError, match="TTC"):
        fit_reference(sample_map, FLAT_CURVE)
    del sample_map["TTC"]
    with pytest.raises(DataError, match="TTC"):
        fit_reference(sample_map, FLAT_CURVE)


# --- weights ---


def test_weight_vector_invariants():
    w = default_weights()
    assert w.total() == pytest.approx(0.9998, abs=1e-4)
    assert len(w.omega) == 21
    assert all(v >= 0 for v in w.omega.values())

    with pytest.raises(ConfigError):
        WeightVector(omega={c: -0.1 if c == "AWS" else 0.05 for c in FEATURE_CODES})
    with pytest.raises(ConfigError):
        WeightVector(omega={c: 0.01 for c in FEATURE_CODES if c != "AWS"})
    bad = {c: 0.01 for c in FEATURE_CODES}
    bad["XXX"] = 0.01
    with pytest.raises(ConfigError):
        WeightVector(omega=bad)
    with pytest.raises(ConfigError):
        WeightVector(omega={c: math.nan for c in FEATURE_CODES})


def test_weight_vector_normalizes_oversized_sums():
    w = WeightVector(omega={c: 1.0 for c in FEATURE_CODES})
    assert w.total() == pytest.approx(1.0)
    assert w.omega["AWS"] == pytest.approx(1.0 / 21.0)

    # a sum below 1 is left alone
    w2 = WeightVector(omega={c: 0.01 for c in FEATURE_CODES})
    assert w2.total() == pytest.approx(0.21)


def test_combine_known_value_and_clamping():
    w = default_weights()
    s = combine(np.ones(21), w)
    assert s.total == pytest.approx(0.0002, abs=1e-4)

    zero = combine(np.zeros(21), w)
    assert zero.total == 1.0

    # over-unity sum clamps at 0
    w_full = WeightVector(omega={c: 1.0 for c in FEATURE_CODES})
    assert combine(np.ones(21), w_full).total == 0.0

    with pytest.raises(ConfigError):
        combine(np.ones(20), w)
    with pytest.raises(ConfigError):
        combine(np.ones((21, 1)), w)


def test_quality_decreases_when_any_cost_rises():
    rng = np.random.default_rng(4)
    w = default_weights()
    costs = rng.uniform(0.0, 0.5, size=21)
    base = combine(costs, w).total
    for i in range(21):
        bumped = costs.copy()
        bumped[i] += 0.3
        assert combine(bumped, w).total <= base + 1e-15


@pytest.mark.parametrize("bin_width", [FD_BIN_WIDTH, 0.3])
def test_one_pass_fit_matches_two_pass_fit(monkeypatch, golden_crowds, bin_width):
    # crowds of different lengths, so a mix-up of per-crowd FDG samples shows
    crowds = [golden_crowds[0], golden_crowds[1].window(10, 80), golden_crowds[2].window(25, 90)]

    # two passes: fit the curve on self-fitted extractions, then re-extract
    first = [extract(c) for c in crowds]
    pairs = np.concatenate(
        [np.column_stack([np.ravel(m["LDN"]), np.ravel(m["AWS"])]) for m in first]
    )
    curve = fundamental_diagram_curve(pairs, bin_width)
    second = [extract(c, curve) for c in crowds]
    merged = {c: np.concatenate([np.ravel(m[c]) for m in second]) for c in FEATURE_CODES}
    expected = fit_reference(merged, fd_curve=curve)

    calls = []

    def counting_extract(crowd, *args, **kwargs):
        calls.append(crowd)
        return extract(crowd, *args, **kwargs)

    monkeypatch.setattr(quality, "extract", counting_extract)
    got = fit_reference_from_crowds(crowds, fd_bin_width=bin_width)
    assert len(calls) == len(crowds)
    assert all(a is b for a, b in zip(calls, crowds))
    assert got.mu == expected.mu
    assert got.sigma == expected.sigma
    assert np.array_equal(got.fd_curve.densities, expected.fd_curve.densities)
    assert np.array_equal(got.fd_curve.speeds, expected.fd_curve.speeds)


def test_fit_reference_from_crowds_pools_samples():
    crowds = [random_walk_crowd(1, n_agents=2, steps=10),
              random_walk_crowd(2, n_agents=3, steps=12)]
    maps = [extract(c) for c in crowds]
    stats = fit_reference_from_crowds(crowds)
    for code in FEATURE_CODES:
        if code == "FDG":  # measured against the pooled curve, not each crowd's own
            continue
        pooled = np.concatenate([np.ravel(m[code]) for m in maps])
        assert pooled.shape == {"GLR": (5,), "LEN": (5,), "VAR": (22,)}.get(code, (56,))
        assert stats.mu[code] == float(np.mean(pooled)), code
        assert stats.sigma[code] == max(float(np.std(pooled)), SIGMA_FLOOR), code


# --- end-to-end scoring ---


def test_constant_crowd_scores_exactly_one():
    # every feature of the straight parallel walk is constant, so fitting on
    # it makes every sample sit exactly at mu
    crowd = straight_crowd(speed=1.4, steps=20, n_agents=2, spacing=50.0)
    stats = fit_reference_from_crowds([crowd])
    result = score(crowd, stats)
    assert result.total == 1.0
    assert all(v == pytest.approx(0.0, abs=1e-15) for v in result.per_feature_cost.values())


def test_score_window_selects_timesteps(golden_crowds, golden_stats):
    crowd = golden_crowds[0]
    full = score(crowd, golden_stats)
    windowed = score(crowd, golden_stats, window=(2.5, 9.0))
    assert windowed.total != full.total
    assert 0.0 <= windowed.total <= 1.0
    with pytest.raises(DataError):
        score(crowd, golden_stats, window=(5.0, 5.05))


def test_score_is_invariant_to_agent_order(golden_stats, table_weights):
    from dataclasses import replace

    rng = np.random.default_rng(7)
    crowd = colliding_crowd()
    radii = rng.uniform(0.2, 0.35, crowd.n_agents)
    crowd = replace(crowd, body_radii=radii, personal_radii=radii + 0.2)
    assert extract(crowd)["COL"].any()

    perm = rng.permutation(crowd.n_agents)
    permuted = replace(crowd, **{name: value[perm]
                                 for name, value in crowd_arrays(crowd).items()})
    assert not np.array_equal(permuted.agent_ids, crowd.agent_ids)
    expected = score(crowd, golden_stats, table_weights).total
    assert abs(score(permuted, golden_stats, table_weights).total - expected) <= 1e-12


@pytest.mark.parametrize("shift", [3.7, 1234.5, -2.0])
def test_shifting_t0_leaves_the_score_unchanged(golden_crowds, golden_stats, shift):
    from dataclasses import replace

    from crowdscore.trajectory import resample

    canonical = golden_crowds[0]
    # positions only at dt 0.05 s, so scoring takes the resampling path
    fine = crowd_from_positions(resample(canonical, 0.05).positions, dt=0.05)

    def same(a, b):
        return a.total == b.total and a.per_feature_cost == b.per_feature_cost

    for crowd in (canonical, fine):
        moved = replace(crowd, t0=crowd.t0 + shift)
        assert same(score(moved, golden_stats), score(crowd, golden_stats))
    start, stop = 2.5, 9.0
    moved = replace(canonical, t0=canonical.t0 + shift)
    assert same(score(moved, golden_stats, window=(start + shift, stop + shift)),
                score(canonical, golden_stats, window=(start, stop)))


def _adversaries(crowd):
    """Crowds that break a golden recording in ways a mean cost could dilute."""
    P, T = crowd.positions, crowd.n_steps
    teleported = P.copy()
    teleported[:, T // 2:] = crowd.goals[:, None]
    yield "overlapping", crowd.with_positions(np.repeat(P[:1], crowd.n_agents, axis=0), crowd.dt)
    yield "teleporting", crowd.with_positions(teleported, crowd.dt)
    yield "frozen", crowd.with_positions(np.repeat(P[:, :1], T, axis=1), crowd.dt)
    yield "parked", crowd.with_positions(np.repeat(crowd.goals[:, None], T, axis=1), crowd.dt)
    yield "single", crowd_from_positions(P[:1], crowd.dt, goals=crowd.goals[:1],
                                         comfort_speeds=crowd.comfort_speeds[:1])


def test_adversarial_crowds_score_below_their_source(heldout_crowds, golden_stats):
    # Measured drops from the source: 0.097 to 0.328 over these 5 crowds.
    for crowd in heldout_crowds:
        source = score(crowd, golden_stats).total
        for name, fake in _adversaries(crowd):
            assert score(fake, golden_stats).total < source - 0.05, name


@pytest.mark.parametrize("flavour", ["full", "positions"])
def test_subsampled_recording_scores_like_the_fine_one(tmp_path, golden_stats, flavour):
    """A dt 0.05 s recording and its every-other-row 0.1 s subsample, both read
    from CSV and put on the canonical grid, score alike.  Measured over 5
    seeds: full columns differ by at most 7e-16 in the total and 9e-15 in a
    feature cost; positions only, where each file infers its own comfort
    speeds (up to 0.024 m/s apart), by at most 8e-5 in the total."""
    from conftest import GOLDEN_AGENTS, GOLDEN_DURATION, GOLDEN_PARAMS, GOLDEN_RADIUS

    from crowdscore.csvio import load_trajectory_csv
    from crowdscore.simulator import Scenario, simulate
    from crowdscore.trajectory import to_canonical

    def recording(crowd, every):
        header = "agent_id,t,x,y" + (",goal_x,goal_y,comfort_speed,radius"
                                     if flavour == "full" else "")
        lines = [header]
        for i in range(crowd.n_agents):
            per_agent = (*crowd.goals[i], crowd.comfort_speeds[i], crowd.body_radii[i])
            for k in range(0, crowd.n_steps, every):
                row = [k * crowd.dt, *crowd.positions[i, k]]
                if flavour == "full":
                    row += per_agent
                lines.append(",".join([str(i)] + [repr(float(v)) for v in row]))
        path = tmp_path / f"every{every}.csv"
        path.write_text("\n".join(lines) + "\n")
        return to_canonical(load_trajectory_csv(path))

    for seed in (500, 501):
        scenario = Scenario(kind="circle", agent_count=GOLDEN_AGENTS,
                            radius=GOLDEN_RADIUS, seed=seed)
        fine = simulate(scenario, GOLDEN_PARAMS, GOLDEN_DURATION, 0.05)
        a, b = recording(fine, 1), recording(fine, 2)
        assert a.n_steps == b.n_steps
        assert np.allclose(a.positions, b.positions, rtol=0.0, atol=1e-12)
        sa, sb = score(a, golden_stats), score(b, golden_stats)
        if flavour == "full":
            assert sa.total == pytest.approx(sb.total, rel=0.0, abs=1e-12)
            for code in FEATURE_CODES:
                assert sa.per_feature_cost[code] == pytest.approx(
                    sb.per_feature_cost[code], rel=0.0, abs=1e-12), code
        else:
            assert not np.array_equal(a.comfort_speeds, b.comfort_speeds)
            assert sa.total == pytest.approx(sb.total, rel=0.0, abs=5e-4)


def test_score_matches_csv_round_trip(tmp_path, golden_crowds, golden_stats):
    from crowdscore.csvio import load_trajectory_csv, save_trajectory_csv

    crowd = golden_crowds[1]
    direct = score(crowd, golden_stats)
    path = tmp_path / "c.csv"
    save_trajectory_csv(crowd, path)
    loaded = score(load_trajectory_csv(path), golden_stats)
    assert loaded.total == direct.total  # bit-identical, not just close


# --- stats and weights files ---


def test_stats_file_round_trip(tmp_path, golden_stats):
    path = tmp_path / "stats.txt"
    save_reference_stats(golden_stats, path)
    back = load_reference_stats(path)
    assert back.mu == golden_stats.mu
    assert back.sigma == golden_stats.sigma
    assert np.array_equal(back.fd_curve.densities, golden_stats.fd_curve.densities)
    assert np.array_equal(back.fd_curve.speeds, golden_stats.fd_curve.speeds)


def test_weights_file_round_trip(tmp_path):
    w = default_weights()
    path = tmp_path / "w.txt"
    save_weights(w, path)
    back = load_weights(path)
    assert back.omega == w.omega


def test_stats_grammar_errors():
    with pytest.raises(DataError, match="unknown key"):
        parse_reference_stats("XYZ.mu = 1.0\n")
    with pytest.raises(DataError, match="unknown key"):
        parse_reference_stats("AWS.median = 1.0\n")
    with pytest.raises(DataError, match="not a number"):
        parse_reference_stats("AWS.mu = abc\n")
    with pytest.raises(DataError):
        parse_reference_stats("AWS.mu 1.0\n")  # missing equals
    with pytest.raises(DataError, match="sigma"):
        parse_reference_stats(
            "\n".join(f"{c}.mu = 1.0\n{c}.sigma = -1.0" for c in FEATURE_CODES)
        )
    # missing a feature entirely
    text = "\n".join(
        f"{c}.mu = 1.0\n{c}.sigma = 0.5" for c in FEATURE_CODES if c != "VAR"
    )
    with pytest.raises(DataError, match="VAR"):
        parse_reference_stats(text)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_key_values_rejected(bad):
    stats = "\n".join(f"{c}.mu = 1.0\n{c}.sigma = 0.5" for c in FEATURE_CODES)
    with pytest.raises(DataError, match="not finite"):
        parse_reference_stats(stats.replace("AWS.sigma = 0.5", f"AWS.sigma = {bad}"))
    with pytest.raises(DataError, match="not finite"):
        parse_reference_stats(stats.replace("VAR.mu = 1.0", f"VAR.mu = {bad}"))
    with pytest.raises(DataError, match="non-finite"):
        parse_reference_stats(stats + f"\nFDG.curve = 0.25:1.4,0.75:{bad}")
    weights = "".join(f"{c}.omega = 0.01\n" for c in FEATURE_CODES)
    with pytest.raises(DataError, match="not finite"):
        parse_weights(weights.replace("DTA.omega = 0.01", f"DTA.omega = {bad}"))
    with pytest.raises(DataError, match="not finite"):
        parse_params(f"relaxation_time = {bad}\n")


def test_stats_sigma_is_floored_on_load():
    text = "\n".join(f"{c}.mu = 1.0\n{c}.sigma = 0.0" for c in FEATURE_CODES)
    st = parse_reference_stats(text)
    assert all(s == SIGMA_FLOOR for s in st.sigma.values())


def test_combined_stats_and_weights_files_tolerated():
    # one file carrying both stats and weights keys parses as either
    lines = []
    for c in FEATURE_CODES:
        lines += [f"{c}.mu = 1.0", f"{c}.sigma = 0.5", f"{c}.omega = 0.04"]
    lines.append("FDG.curve = 0.25:1.4,0.75:1.0")
    text = "\n".join(lines)
    st = parse_reference_stats(text)
    assert st.mu["AWS"] == 1.0
    w = parse_weights(text)
    assert w.omega["AWS"] == pytest.approx(0.04)


def test_weights_grammar_errors():
    with pytest.raises(DataError, match="unknown key"):
        parse_weights("ZZZ.omega = 0.5\n")
    with pytest.raises(ConfigError):
        # valid grammar, invalid semantics: negative weight
        parse_weights("\n".join(f"{c}.omega = -0.01" for c in FEATURE_CODES))
    with pytest.raises(DataError, match="VAR"):
        parse_weights("\n".join(f"{c}.omega = 0.01" for c in FEATURE_CODES[:-1]))


def test_curve_only_on_fdg():
    with pytest.raises(DataError):
        parse_reference_stats("AWS.curve = 0.25:1.4\n")
