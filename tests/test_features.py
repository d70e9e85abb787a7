import math

import numpy as np
import pytest

from crowdscore import features
from crowdscore.errors import DataError
from crowdscore.features import (
    FEATURE_CODES,
    GRANULARITY,
    FeatureParams,
    FeatureSamples,
    FundamentalDiagramCurve,
    extract,
    fundamental_diagram_curve,
    merge_flat_samples,
)
from crowdscore.geometry import predict_pair, time_to_collision

from helpers import (
    crowd_from_positions,
    linear_pair,
    random_walk_crowd,
    rigid_transform,
    straight_crowd,
)


def test_feature_table_is_complete():
    assert len(FEATURE_CODES) == 21
    assert len(set(FEATURE_CODES)) == 21
    assert set(GRANULARITY) == set(FEATURE_CODES)
    assert {c for c, g in GRANULARITY.items() if g == "per-agent"} == {"GLR", "LEN"}
    assert {c for c, g in GRANULARITY.items() if g == "per-time"} == {"FDG", "VAR"}


def test_granularity_shapes_and_sample_counts():
    crowd = random_walk_crowd(1, n_agents=5, steps=30)
    feats = extract(crowd)
    assert set(feats) == set(FEATURE_CODES)
    for code, fs in feats.items():
        if GRANULARITY[code] == "per-agent":
            assert fs.values.shape == (5,)
        elif GRANULARITY[code] == "per-time":
            assert fs.values.shape == (30,)
        else:
            assert fs.values.shape == (5, 30)
        assert fs.flat().ndim == 1


def test_straight_walker_is_featureless():
    crowd = straight_crowd(speed=1.4, steps=20)
    f = extract(crowd)
    assert np.allclose(f["AWS"].values, 1.4)
    assert np.allclose(f["DCS"].values, 0.0)
    assert np.allclose(f["DGD"].values, 0.0)
    assert np.allclose(f["AVL"].values, 0.0)
    assert np.allclose(f["INE"].values, 0.0)
    assert np.allclose(f["FDR"].values, 0.0)
    assert np.allclose(f["FSP"].values, 0.0)
    assert f["GLR"].values[0] == pytest.approx(1.0)
    assert f["LEN"].values[0] == pytest.approx(1.0)
    assert np.allclose(f["FDG"].values, 0.0)  # self-fitted curve
    assert np.allclose(f["VAR"].values, 0.0)
    # single agent: pairwise features emit neutral values
    assert np.all(f["DTA"].values == 30.0)
    assert np.all(f["TTC"].values == 10.0)
    assert np.all(f["TCA"].values == 10.0)
    assert np.all(f["DCA"].values == 30.0)
    assert np.all(f["IST"].values == 0.0)
    assert np.all(f["LDN"].values == 0.0)
    assert np.all(f["COL"].values == 0.0)
    assert np.all(f["OVP"].values == 0.0)
    assert np.all(f["IAN"].values == 0.0)
    assert np.all(f["EDN"].values == 1.0)


def test_static_pair_contact_features():
    # two standing agents 0.5 m apart: bodies overlap the whole time
    crowd = linear_pair((0, 0), (0, 0), (0.5, 0), (0, 0), steps=12)
    f = extract(crowd)
    assert np.all(f["COL"].values == 1.0)
    assert np.all(f["TTC"].values == 0.0)  # overlapping discs
    assert np.all(f["IST"].values == 1.0)  # exp(-0/tau)
    assert np.allclose(f["OVP"].values, 0.5)  # personal discs 0.5 + 0.5 - 0.5
    assert np.allclose(f["DTA"].values, 0.5)
    assert np.allclose(f["AWS"].values, 0.0)
    assert np.allclose(f["VAR"].values, 0.0)  # zero mean speed convention


def test_personal_space_overlap_without_contact():
    crowd = linear_pair((0, 0), (0, 0), (0.8, 0), (0, 0), steps=10)
    f = extract(crowd)
    assert np.all(f["COL"].values == 0.0)  # 0.8 > 0.3 + 0.3
    assert np.allclose(f["OVP"].values, 0.2)  # 1.0 - 0.8
    assert np.all(f["TTC"].values == 10.0)  # static, not overlapping
    assert np.all(f["IST"].values == 0.0)
    # static pair: closest approach is the current gap, at time zero
    assert np.allclose(f["TCA"].values, 0.0)
    assert np.allclose(f["DCA"].values, 0.8)


def test_crossing_pair_closest_approach():
    crowd = linear_pair((0, 0), (1, 0), (5, -5), (0, 1), steps=3)
    f = extract(crowd)
    assert f["TCA"].values[0, 0] == pytest.approx(5.0)
    assert f["TCA"].values[1, 0] == pytest.approx(5.0)
    assert f["DCA"].values[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_interaction_horizon_masks_far_pairs():
    # approaching head-on from 40 m: collision is predicted at 9.85 s, but
    # the pair only becomes an interaction once within 30 m
    crowd = linear_pair((0, 0), (2, 0), (40, 0), (-2, 0), steps=30)
    f = extract(crowd)
    assert f["TTC"].values[0, 0] == 10.0
    assert f["IST"].values[0, 0] == 0.0
    assert f["LDN"].values[0, 0] == 0.0
    assert f["DTA"].values[0, 0] == 30.0  # capped at the horizon
    # by step 26 the gap is 29.6 m and the prediction appears
    expected = (29.6 - 0.6) / 4.0
    assert f["TTC"].values[0, 26] == pytest.approx(expected)
    assert f["IST"].values[0, 26] == pytest.approx(math.exp(-expected / 2.0))


def test_local_density_counts_neighbours_in_disc():
    # three agents in a row, 1.5 m apart: middle one has both in its 2 m disc
    pos = np.zeros((3, 5, 2))
    pos[0, :, 0] = 0.0
    pos[1, :, 0] = 1.5
    pos[2, :, 0] = 3.0
    f = extract(crowd_from_positions(pos))
    area = math.pi * 4.0
    assert np.allclose(f["LDN"].values[1], 2.0 / area)
    assert np.allclose(f["LDN"].values[0], 1.0 / area)


def test_heading_flicker_saturates_on_zigzag():
    # step direction alternates +-0.1 rad: every step flips the turn sign
    steps, speed, dt = 30, 1.4, 0.1
    theta = 0.1 * np.where(np.arange(steps - 1) % 2 == 0, 1.0, -1.0)
    deltas = speed * dt * np.column_stack([np.cos(theta), np.sin(theta)])
    pos = np.vstack([[0.0, 0.0], np.cumsum(deltas, axis=0)])[None]
    f = extract(crowd_from_positions(pos))
    # the final step repeats the backward difference, so stop one short
    assert np.allclose(f["FDR"].values[0, 12:-1], 1.0)
    assert np.all(f["FSP"].values == 0.0)  # speed is constant throughout
    assert np.allclose(f["AVL"].values[0, 1:-1], 2.0)  # 0.2 rad per 0.1 s
    assert f["AVL"].values[0, -1] == 0.0


def test_speed_flicker_counts_alternations():
    # speed alternates 1.0 / 1.3 each step while heading stays fixed
    steps = 30
    speed = np.where(np.arange(steps - 1) % 2 == 0, 1.0, 1.3)
    x = np.concatenate([[0.0], np.cumsum(speed * 0.1)])
    pos = np.zeros((1, steps, 2))
    pos[0, :, 0] = x
    f = extract(crowd_from_positions(pos))
    assert np.allclose(f["FSP"].values[0, 12:-1], 1.0)
    assert np.all(f["FDR"].values == 0.0)


def test_goal_reach_and_length_ratio():
    # stops halfway to the goal
    pos = np.zeros((1, 11, 2))
    pos[0, :, 0] = np.minimum(np.arange(11) * 0.1, 0.5)
    f = extract(crowd_from_positions(pos, goals=[[1.0, 0.0]], comfort_speeds=1.0))
    assert f["GLR"].values[0] == pytest.approx(0.5)

    # detour doubles the path
    pos2 = np.zeros((1, 21, 2))
    pos2[0, :11, 1] = np.arange(11) * 0.1  # up 1 m
    pos2[0, 11:, 1] = 1.0
    pos2[0, 11:, 0] = np.arange(1, 11) * 0.1  # right 1 m
    f2 = extract(crowd_from_positions(pos2))
    assert f2["LEN"].values[0] == pytest.approx(2.0 / math.sqrt(2.0))


def test_anticipation_records_ttc_at_maneuver_onset():
    # head-on pair; agent 0 starts a gentle arc at step 20 and clears the
    # collision, agent 1 never reacts
    steps, dt = 40, 0.1
    p0 = np.zeros((steps, 2))
    heading = 0.0
    xy = np.array([0.0, 0.0])
    for k in range(1, steps):
        if k - 1 >= 20:
            heading = 0.04 * (k - 20)  # 0.4 rad/s turn rate
        xy = xy + dt * np.array([math.cos(heading), math.sin(heading)])
        p0[k] = xy
    t = np.arange(steps)[:, None] * dt
    p1 = np.array([12.0, 0.0]) + t * np.array([-1.0, 0.0])
    crowd = crowd_from_positions(np.stack([p0, p1]))
    f = extract(crowd)

    ian = f["IAN"].values
    assert ian[0, 0] > 0.0  # reaction recorded at episode onset
    assert np.all(ian[0, 1:] == 0.0)
    assert np.all(ian[1] == 0.0)  # the oblivious agent never maneuvers

    # the stored value is the ttc at the maneuver step: the forward
    # difference puts the first rotated velocity at step 20
    P, V = crowd.positions, crowd.velocities
    expected = time_to_collision(P[0, 20], V[0, 20], 0.3, P[1, 20], V[1, 20], 0.3)
    assert ian[0, 0] == pytest.approx(expected)


def test_anticipation_zero_when_nobody_reacts():
    crowd = linear_pair((0, 0), (1, 0), (12, 0), (-1, 0), steps=40)
    f = extract(crowd)
    assert np.all(f["IAN"].values == 0.0)


def test_nearest_neighbour_spacing_two_agent_value():
    crowd = linear_pair((0, 0), (0, 0), (2.0, 0), (0, 0), steps=6)
    f = extract(crowd)
    # segment hull inflated by 1 m: area 2*2*1 + pi
    lam = 2.0 / (4.0 + math.pi)
    assert np.allclose(f["EDN"].values, 2.0 * 2.0 * math.sqrt(lam))


def test_speed_variation_across_agents():
    # two far-apart agents at 1 and 2 m/s
    pos = np.zeros((2, 10, 2))
    pos[0, :, 0] = np.arange(10) * 0.1
    pos[1, :, 0] = np.arange(10) * 0.2
    pos[1, :, 1] = 100.0
    f = extract(crowd_from_positions(pos))
    assert np.allclose(f["VAR"].values, np.std([1.0, 2.0]) / 1.5)


def test_fundamental_diagram_curve_queries():
    curve = FundamentalDiagramCurve(
        densities=np.array([0.25, 0.75]), speeds=np.array([1.4, 1.0])
    )
    assert curve.query(0.3) == pytest.approx(1.4)
    assert curve.query(0.6) == pytest.approx(1.0)
    assert curve.query(0.5) == pytest.approx(1.0)  # tie goes to the denser bin
    assert curve.query(0.0) == pytest.approx(1.4)
    assert curve.query(2.0) == pytest.approx(1.0)  # beyond the last bin
    assert np.allclose(curve.query([0.3, 0.6]), [1.4, 1.0])


def test_fundamental_diagram_curve_fitting_and_round_trip():
    pairs = [(0.1, 1.5), (0.2, 1.3), (0.6, 1.0), (0.7, 0.8)]
    curve = fundamental_diagram_curve(pairs, bin_width=0.5)
    assert np.allclose(curve.densities, [0.25, 0.75])
    assert np.allclose(curve.speeds, [1.4, 0.9])

    back = FundamentalDiagramCurve.deserialize(curve.serialize())
    assert np.array_equal(back.densities, curve.densities)
    assert np.array_equal(back.speeds, curve.speeds)

    with pytest.raises(ValueError):
        fundamental_diagram_curve([], bin_width=0.5)
    with pytest.raises(DataError):
        FundamentalDiagramCurve.deserialize("")
    with pytest.raises(DataError):
        FundamentalDiagramCurve.deserialize("0.25;1.4")


@pytest.mark.parametrize("text", ["0.25:nan,0.75:1.0", "inf:1.4", "0.25:-inf"])
def test_fundamental_diagram_curve_rejects_non_finite(text):
    with pytest.raises(DataError, match="non-finite"):
        FundamentalDiagramCurve.deserialize(text)


def test_reference_curve_changes_fdg():
    crowd = straight_crowd(speed=1.0, steps=10)
    slow = FundamentalDiagramCurve(densities=np.array([0.25]), speeds=np.array([1.4]))
    f = extract(crowd, FeatureParams(fd_curve=slow))
    assert np.allclose(f["FDG"].values, 1.0 - 1.4)


def test_rigid_motion_invariance():
    crowd = random_walk_crowd(17, n_agents=5, steps=35)
    moved = rigid_transform(crowd, angle=0.7, shift=(3.0, -2.0))
    f0 = extract(crowd)
    f1 = extract(moved)
    for code in FEATURE_CODES:
        assert np.allclose(f0[code].values, f1[code].values, atol=1e-8), code


def test_nonnegativity_and_collision_is_binary():
    for seed in range(5):
        crowd = random_walk_crowd(seed, n_agents=4, steps=30)
        f = extract(crowd)
        for code in FEATURE_CODES:
            if code != "FDG":  # FDG is a signed gap
                assert np.all(f[code].values >= 0.0), code
        assert set(np.unique(f["COL"].values)) <= {0.0, 1.0}
        assert np.all(f["TTC"].values <= 10.0)
        assert np.all(f["IST"].values <= 1.0)


def test_extract_rejects_single_step():
    from dataclasses import replace

    crowd = straight_crowd(steps=5)
    short = replace(crowd, positions=crowd.positions[:, :1],
                    velocities=crowd.velocities[:, :1],
                    headings=crowd.headings[:, :1], speeds=crowd.speeds[:, :1])
    with pytest.raises(DataError):
        extract(short)


def test_merge_flat_samples_concatenates():
    a = extract(random_walk_crowd(1, n_agents=2, steps=10))
    b = extract(random_walk_crowd(2, n_agents=3, steps=12))
    merged = merge_flat_samples([a, b])
    assert merged["AWS"].shape == (2 * 10 + 3 * 12,)
    assert merged["GLR"].shape == (5,)
    assert merged["VAR"].shape == (22,)
    assert np.array_equal(merged["AWS"][:20], a["AWS"].flat())


def contact_crowd(seed=3, n_agents=9, steps=40):
    """Random walkers packed into a 3 m square, so bodies touch now and then."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(-1.5, 1.5, size=(n_agents, 1, 2))
    steps_xy = rng.normal(0.0, 0.12, size=(n_agents, steps - 1, 2))
    return crowd_from_positions(
        np.concatenate([start, start + np.cumsum(steps_xy, axis=1)], axis=1)
    )


def test_pairwise_chunking_is_exact(monkeypatch):
    crowd = contact_crowd()
    n, steps = crowd.n_agents, crowd.n_steps
    results = []
    # chunks of 1 step, of 7 (a ragged last chunk) and of the whole recording
    for budget in (1, 7 * n * n, steps * n * n):
        monkeypatch.setattr(features, "_PAIR_BUDGET", budget)
        results.append(extract(crowd))
    assert np.any(results[0]["COL"].values == 1.0)  # the crowd has contacts
    for other in results[1:]:
        for code in FEATURE_CODES:
            assert np.array_equal(results[0][code].values, other[code].values), code


def test_pairwise_minima_match_scalar_predictions():
    crowd = contact_crowd(seed=5)
    p = FeatureParams()
    f = extract(crowd, p)
    P, V, r = crowd.positions, crowd.velocities, crowd.body_radii
    N, T = crowd.n_agents, crowd.n_steps
    ttc = np.full((N, T), p.ttc_horizon)
    tca = np.full((N, T), p.ttc_horizon)
    dca = np.empty((N, T))
    for t in range(T):
        for i in range(N):
            gaps = {j: np.linalg.norm(P[j, t] - P[i, t]) for j in range(N) if j != i}
            dca[i, t] = min(min(gaps.values()), p.interaction_horizon)  # nothing ahead
            best = math.inf
            for j, gap in gaps.items():
                if gap > p.interaction_horizon:
                    continue
                pred = predict_pair(P[i, t], V[i, t], r[i], P[j, t], V[j, t], r[j],
                                    p.ttc_horizon)
                ttc[i, t] = min(ttc[i, t], pred.ttc)
                if pred.tca < p.ttc_horizon and pred.dca < best:
                    best = pred.dca
                    tca[i, t], dca[i, t] = pred.tca, pred.dca
    assert np.any(ttc < p.ttc_horizon) and np.any(tca < p.ttc_horizon)
    for code, expected in (("TTC", ttc), ("TCA", tca), ("DCA", dca)):
        np.testing.assert_allclose(f[code].values, expected, rtol=1e-12, atol=1e-12,
                                   err_msg=code)


@pytest.mark.parametrize(
    "points,area,perimeter",
    [
        # square with interior points and a point on an edge
        ([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (0.5, 1.5), (1, 0)], 4.0, 8.0),
        # collinear: a segment, counted on both sides
        ([(0, 0), (3, 0), (1, 0), (2, 0)], 0.0, 6.0),
        # a 3-4-5 triangle with every corner repeated
        ([(0, 0), (4, 0), (0, 3), (4, 0), (0, 0), (0, 3)], 6.0, 12.0),
        ([(1.5, -2.0), (1.5, -2.0)], 0.0, 0.0),
        ([(1.5, -2.0)], 0.0, 0.0),
        ([(0, 0), (3, 4)], 0.0, 10.0),
    ],
)
def test_hull_of_known_shapes(points, area, perimeter):
    assert features._hull_area_perimeter(np.array(points, dtype=float)) == (area, perimeter)


def brute_force_hull(pts):
    """Area and perimeter from the edges that keep every point on their left."""
    area = perimeter = 0.0
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            if i == j:
                continue
            cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            if np.all(cross >= 0.0):
                area += 0.5 * (a[0] * b[1] - b[0] * a[1])
                perimeter += math.hypot(*(b - a))
    return area, perimeter


@pytest.mark.parametrize("seed", range(5))
def test_hull_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, 3.0, size=(int(rng.integers(3, 40)), 2))
    area, perimeter = features._hull_area_perimeter(pts)
    ref_area, ref_perimeter = brute_force_hull(pts)
    assert area == pytest.approx(ref_area, rel=1e-12)
    assert perimeter == pytest.approx(ref_perimeter, rel=1e-12)
