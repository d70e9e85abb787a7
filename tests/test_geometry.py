import numpy as np
import pytest

from crowdscore.geometry import (
    TTC_HORIZON,
    closest_approach,
    pairwise_arrays,
    predict_pair,
    time_to_collision,
)


def rel(p_a, v_a, p_b, v_b):
    return (np.asarray(p_b, float) - np.asarray(p_a, float),
            np.asarray(v_b, float) - np.asarray(v_a, float))


def test_perpendicular_crossing_example():
    tca, dca = closest_approach((0, 0), (1, 0), (5, -5), (0, 1))
    assert tca == pytest.approx(5.0)
    assert dca == pytest.approx(0.0, abs=1e-12)


def test_head_on_collision_time():
    # 10 m apart, closing at 2 m/s, bodies 0.3 m each: contact at 4.7 s
    ttc = time_to_collision((0, 0), (1, 0), 0.3, (10, 0), (-1, 0), 0.3)
    assert ttc == pytest.approx(4.7)


def test_static_and_receding_pairs():
    # same velocity: no relative motion
    tca, dca = closest_approach((0, 0), (1, 1), (3, 4), (1, 1))
    assert tca == 0.0
    assert dca == pytest.approx(5.0)
    assert time_to_collision((0, 0), (1, 1), 0.3, (3, 4), (1, 1), 0.3) == TTC_HORIZON

    # receding: closest approach is now
    tca, dca = closest_approach((0, 0), (-1, 0), (2, 0), (1, 0))
    assert tca == 0.0
    assert dca == pytest.approx(2.0)

    # already overlapping discs
    assert time_to_collision((0, 0), (1, 0), 0.3, (0.5, 0), (0, 0), 0.3) == 0.0


def test_near_miss_gives_horizon():
    # passes 1 m off axis with 0.6 m combined radius: never touches
    ttc = time_to_collision((0, 0), (1, 0), 0.3, (10, 1.0), (-1, 0), 0.3)
    assert ttc == TTC_HORIZON


def test_pair_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p_a, p_b = rng.uniform(-5, 5, (2, 2))
        v_a, v_b = rng.uniform(-2, 2, (2, 2))
        ab = predict_pair(p_a, v_a, 0.3, p_b, v_b, 0.3)
        ba = predict_pair(p_b, v_b, 0.3, p_a, v_a, 0.3)
        assert ab.tca == pytest.approx(ba.tca, abs=1e-12)
        assert ab.dca == pytest.approx(ba.dca, abs=1e-12)
        assert ab.ttc == pytest.approx(ba.ttc, abs=1e-12)


def test_prediction_invariants():
    rng = np.random.default_rng(23)
    for _ in range(500):
        p_a, p_b = rng.uniform(-8, 8, (2, 2))
        v_a, v_b = rng.uniform(-2, 2, (2, 2))
        dp, dv = rel(p_a, v_a, p_b, v_b)
        pred = predict_pair(p_a, v_a, 0.3, p_b, v_b, 0.3)

        assert 0.0 <= pred.tca
        assert pred.dca <= np.linalg.norm(dp) + 1e-12  # approach never worsens
        assert 0.0 <= pred.ttc <= TTC_HORIZON
        if pred.ttc < TTC_HORIZON and np.linalg.norm(dp) > 0.6:
            # touching precedes the closest approach
            assert pred.ttc <= pred.tca + 1e-9
            # the discs really touch at the reported time
            gap = np.linalg.norm(dp + pred.ttc * dv)
            assert gap == pytest.approx(0.6, abs=1e-9)


def test_matches_dense_time_stepping():
    # coarse version of the acceptance oracle: sample the distance curve
    rng = np.random.default_rng(7)
    t = np.arange(0.0, 12.0, 1e-3)
    for _ in range(100):
        p_a, p_b = rng.uniform(-8, 8, (2, 2))
        v_a, v_b = rng.uniform(-2, 2, (2, 2))
        dp, dv = rel(p_a, v_a, p_b, v_b)
        d = np.linalg.norm(dp[None] + t[:, None] * dv[None], axis=1)
        pred = predict_pair(p_a, v_a, 0.3, p_b, v_b, 0.3)

        k = int(np.argmin(d))
        if k < t.size - 1:  # closest approach inside the sampled range
            if k > 0:
                assert pred.tca == pytest.approx(t[k], abs=2e-3)
            assert pred.dca == pytest.approx(d.min(), abs=1e-4)

        crossing = np.flatnonzero(d <= 0.6)
        grid_ttc = min(t[crossing[0]] if crossing.size else np.inf, TTC_HORIZON)
        if d.min() < 0.59 or d.min() > 0.61:  # skip grazing tangency
            assert pred.ttc == pytest.approx(grid_ttc, abs=2e-3)


def test_array_api_matches_scalar_api():
    rng = np.random.default_rng(5)
    dp = rng.uniform(-6, 6, (2, 4, 3, 3))
    dv = rng.uniform(-2, 2, (2, 4, 3, 3))
    # edge pairs in the last row: overlapping discs (c < 0), no relative
    # motion, a grazing pair (disc == 0: contact at t = 4), a diverging pair
    # and touching discs moving apart (c == 0)
    edges = [((0.3, 0.2), (1.0, -0.5)), ((3.0, 4.0), (0.0, 0.0)),
             ((4.0, 0.5), (-1.0, 0.0)), ((2.0, 0.0), (1.0, 0.0)),
             ((0.5, 0.0), (1.0, 0.0))]
    for k, (p, v) in enumerate(edges):
        dp[:, 3, k % 3, k // 3] = p
        dv[:, 3, k % 3, k // 3] = v
    dist, ttc, tca, dca = pairwise_arrays(dp[0], dp[1], dv[0], dv[1], 0.5)
    assert ttc.shape == tca.shape == dca.shape == dist.shape == (4, 3, 3)
    for idx in np.ndindex(4, 3, 3):
        p_b, v_b = dp[(slice(None),) + idx], dv[(slice(None),) + idx]
        pred = predict_pair((0, 0), (0, 0), 0.25, p_b, v_b, 0.25)
        assert (ttc[idx], tca[idx], dca[idx]) == (pred.ttc, pred.tca, pred.dca), idx
        assert dist[idx] == np.sqrt(p_b[0] * p_b[0] + p_b[1] * p_b[1])
    # the edge pairs, in order
    cases = [(3, 0, 0), (3, 1, 0), (3, 2, 0), (3, 0, 1), (3, 1, 1)]
    assert ttc[cases[0]] == ttc[cases[4]] == 0.0
    assert (ttc[cases[1]], tca[cases[1]], dca[cases[1]]) == (TTC_HORIZON, 0.0, 5.0)
    assert (ttc[cases[2]], tca[cases[2]], dca[cases[2]]) == (4.0, 4.0, 0.5)
    assert (ttc[cases[3]], tca[cases[3]], dca[cases[3]]) == (TTC_HORIZON, 0.0, 2.0)
