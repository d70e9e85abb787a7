import numpy as np
import pytest

from crowdscore.features import TTC_HORIZON, pairwise_arrays

from helpers import pair_planes, predict_pair


def rel(p_a, v_a, p_b, v_b):
    return (np.asarray(p_b, float) - np.asarray(p_a, float),
            np.asarray(v_b, float) - np.asarray(v_a, float))


def test_perpendicular_crossing_example():
    _, tca, dca = predict_pair((0, 0), (1, 0), 0.0, (5, -5), (0, 1), 0.0)
    assert tca == pytest.approx(5.0)
    assert dca == pytest.approx(0.0, abs=1e-12)


def test_head_on_collision_time():
    # 10 m apart, closing at 2 m/s, bodies 0.3 m each: contact at 4.7 s
    ttc, _, _ = predict_pair((0, 0), (1, 0), 0.3, (10, 0), (-1, 0), 0.3)
    assert ttc == pytest.approx(4.7)


def test_static_and_receding_pairs():
    # same velocity: no relative motion
    ttc, tca, dca = predict_pair((0, 0), (1, 1), 0.3, (3, 4), (1, 1), 0.3)
    assert tca == 0.0
    assert dca == pytest.approx(5.0)
    assert ttc == TTC_HORIZON

    # receding: closest approach is now
    _, tca, dca = predict_pair((0, 0), (-1, 0), 0.0, (2, 0), (1, 0), 0.0)
    assert tca == 0.0
    assert dca == pytest.approx(2.0)

    # already overlapping discs
    assert predict_pair((0, 0), (1, 0), 0.3, (0.5, 0), (0, 0), 0.3)[0] == 0.0


def test_near_miss_gives_horizon():
    # passes 1 m off axis with 0.6 m combined radius: never touches
    ttc, _, _ = predict_pair((0, 0), (1, 0), 0.3, (10, 1.0), (-1, 0), 0.3)
    assert ttc == TTC_HORIZON


def test_pair_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p_a, p_b = rng.uniform(-5, 5, (2, 2))
        v_a, v_b = rng.uniform(-2, 2, (2, 2))
        ab = predict_pair(p_a, v_a, 0.3, p_b, v_b, 0.3)
        ba = predict_pair(p_b, v_b, 0.3, p_a, v_a, 0.3)
        assert ab == pytest.approx(ba, abs=1e-12)  # ttc, tca and dca


def test_prediction_invariants():
    rng = np.random.default_rng(23)
    for _ in range(500):
        p_a, p_b = rng.uniform(-8, 8, (2, 2))
        v_a, v_b = rng.uniform(-2, 2, (2, 2))
        dp, dv = rel(p_a, v_a, p_b, v_b)
        ttc, tca, dca = predict_pair(p_a, v_a, 0.3, p_b, v_b, 0.3)

        assert 0.0 <= tca
        assert dca <= np.linalg.norm(dp) + 1e-12  # approach never worsens
        assert 0.0 <= ttc <= TTC_HORIZON
        if ttc < TTC_HORIZON and np.linalg.norm(dp) > 0.6:
            # touching precedes the closest approach
            assert ttc <= tca + 1e-9
            # the discs really touch at the reported time
            gap = np.linalg.norm(dp + ttc * dv)
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
        ttc, tca, dca = predict_pair(p_a, v_a, 0.3, p_b, v_b, 0.3)

        k = int(np.argmin(d))
        if k < t.size - 1:  # closest approach inside the sampled range
            if k > 0:
                assert tca == pytest.approx(t[k], abs=2e-3)
            assert dca == pytest.approx(d.min(), abs=1e-4)

        crossing = np.flatnonzero(d <= 0.6)
        grid_ttc = min(t[crossing[0]] if crossing.size else np.inf, TTC_HORIZON)
        if d.min() < 0.59 or d.min() > 0.61:  # skip grazing tangency
            assert ttc == pytest.approx(grid_ttc, abs=2e-3)


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
    dist, ttc, tca, dca = pairwise_arrays(dp[0].copy(), dp[1].copy(), dv[0].copy(),
                                          dv[1].copy(), 0.5, pair_planes((4, 3, 3)))
    assert ttc.shape == tca.shape == dca.shape == dist.shape == (4, 3, 3)
    for idx in np.ndindex(4, 3, 3):
        p_b, v_b = dp[(slice(None),) + idx], dv[(slice(None),) + idx]
        pair = predict_pair((0, 0), (0, 0), 0.25, p_b, v_b, 0.25)
        assert (ttc[idx], tca[idx], dca[idx]) == pair, idx
        assert dist[idx] == np.sqrt(p_b[0] * p_b[0] + p_b[1] * p_b[1])
    # the edge pairs, in order
    cases = [(3, 0, 0), (3, 1, 0), (3, 2, 0), (3, 0, 1), (3, 1, 1)]
    assert ttc[cases[0]] == ttc[cases[4]] == 0.0
    assert (ttc[cases[1]], tca[cases[1]], dca[cases[1]]) == (TTC_HORIZON, 0.0, 5.0)
    assert (ttc[cases[2]], tca[cases[2]], dca[cases[2]]) == (4.0, 4.0, 0.5)
    assert (ttc[cases[3]], tca[cases[3]], dca[cases[3]]) == (TTC_HORIZON, 0.0, 2.0)
