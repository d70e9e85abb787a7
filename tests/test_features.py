import itertools
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from crowdscore import features
from crowdscore.errors import DataError
from crowdscore.features import (
    FEATURE_CODES,
    GRANULARITY,
    INTERACTION_HORIZON,
    TTC_HORIZON,
    FundamentalDiagramCurve,
    extract,
    fundamental_diagram_curve,
)

from helpers import (
    assert_no_child_and_affinity,
    colliding_crowd,
    crowd_from_positions,
    linear_pair,
    predict_pair,
    random_walk_crowd,
    rigid_transform,
    straight_crowd,
)

# Every test here must leave no child process and the CPU affinity it found.
pytestmark = pytest.mark.usefixtures("affinity")


def test_feature_table_is_complete():
    assert len(FEATURE_CODES) == 21
    assert len(set(FEATURE_CODES)) == 21
    assert set(GRANULARITY) == set(FEATURE_CODES)
    assert {c for c, g in GRANULARITY.items() if g == "per-agent"} == {"GLR", "LEN"}
    assert {c for c, g in GRANULARITY.items() if g == "per-time"} == {"FDG", "VAR"}


def test_granularity_shapes_and_sample_counts():
    crowd = random_walk_crowd(1, n_agents=5, steps=30)
    feats = extract(crowd)
    assert list(feats) == list(FEATURE_CODES)
    for code, values in feats.items():
        if GRANULARITY[code] == "per-agent":
            assert values.shape == (5,)
        elif GRANULARITY[code] == "per-time":
            assert values.shape == (30,)
        else:
            assert values.shape == (5, 30)


def test_straight_walker_is_featureless():
    crowd = straight_crowd(speed=1.4, steps=20)
    f = extract(crowd)
    assert np.allclose(f["AWS"], 1.4)
    assert np.allclose(f["DCS"], 0.0)
    assert np.allclose(f["DGD"], 0.0)
    assert np.allclose(f["AVL"], 0.0)
    assert np.allclose(f["INE"], 0.0)
    assert np.allclose(f["FDR"], 0.0)
    assert np.allclose(f["FSP"], 0.0)
    assert f["GLR"][0] == pytest.approx(1.0)
    assert f["LEN"][0] == pytest.approx(1.0)
    assert np.allclose(f["FDG"], 0.0)  # self-fitted curve
    assert np.allclose(f["VAR"], 0.0)
    # single agent: pairwise features emit neutral values
    assert np.all(f["DTA"] == 30.0)
    assert np.all(f["TTC"] == 10.0)
    assert np.all(f["TCA"] == 10.0)
    assert np.all(f["DCA"] == 30.0)
    assert np.all(f["IST"] == 0.0)
    assert np.all(f["LDN"] == 0.0)
    assert np.all(f["COL"] == 0.0)
    assert np.all(f["OVP"] == 0.0)
    assert np.all(f["IAN"] == 0.0)
    assert np.all(f["EDN"] == 1.0)


def test_static_pair_contact_features():
    # two standing agents 0.5 m apart: bodies overlap the whole time
    crowd = linear_pair((0, 0), (0, 0), (0.5, 0), (0, 0), steps=12)
    f = extract(crowd)
    assert np.all(f["COL"] == 1.0)
    assert np.all(f["TTC"] == 0.0)  # overlapping discs
    assert np.all(f["IST"] == 1.0)  # exp(-0/tau)
    assert np.allclose(f["OVP"], 0.5)  # personal discs 0.5 + 0.5 - 0.5
    assert np.allclose(f["DTA"], 0.5)
    assert np.allclose(f["AWS"], 0.0)
    assert np.allclose(f["VAR"], 0.0)  # zero mean speed convention


def test_personal_space_overlap_without_contact():
    crowd = linear_pair((0, 0), (0, 0), (0.8, 0), (0, 0), steps=10)
    f = extract(crowd)
    assert np.all(f["COL"] == 0.0)  # 0.8 > 0.3 + 0.3
    assert np.allclose(f["OVP"], 0.2)  # 1.0 - 0.8
    assert np.all(f["TTC"] == 10.0)  # static, not overlapping
    assert np.all(f["IST"] == 0.0)
    # static pair: closest approach is the current gap, at time zero
    assert np.allclose(f["TCA"], 0.0)
    assert np.allclose(f["DCA"], 0.8)


def test_crossing_pair_closest_approach():
    crowd = linear_pair((0, 0), (1, 0), (5, -5), (0, 1), steps=3)
    f = extract(crowd)
    assert f["TCA"][0, 0] == pytest.approx(5.0)
    assert f["TCA"][1, 0] == pytest.approx(5.0)
    assert f["DCA"][0, 0] == pytest.approx(0.0, abs=1e-9)


def test_interaction_horizon_masks_far_pairs():
    # approaching head-on from 40 m: collision is predicted at 9.85 s, but
    # the pair only becomes an interaction once within 30 m
    crowd = linear_pair((0, 0), (2, 0), (40, 0), (-2, 0), steps=30)
    f = extract(crowd)
    assert f["TTC"][0, 0] == 10.0
    assert f["IST"][0, 0] == 0.0
    assert f["LDN"][0, 0] == 0.0
    assert f["DTA"][0, 0] == 30.0  # capped at the horizon
    # by step 26 the gap is 29.6 m and the prediction appears
    expected = (29.6 - 0.6) / 4.0
    assert f["TTC"][0, 26] == pytest.approx(expected)
    assert f["IST"][0, 26] == pytest.approx(math.exp(-expected / 2.0))


def test_local_density_counts_neighbours_in_disc():
    # three agents in a row, 1.5 m apart: middle one has both in its 2 m disc
    pos = np.zeros((3, 5, 2))
    pos[0, :, 0] = 0.0
    pos[1, :, 0] = 1.5
    pos[2, :, 0] = 3.0
    f = extract(crowd_from_positions(pos))
    area = math.pi * 4.0
    assert np.allclose(f["LDN"][1], 2.0 / area)
    assert np.allclose(f["LDN"][0], 1.0 / area)


def test_heading_flicker_saturates_on_zigzag():
    # step direction alternates +-0.1 rad: every step flips the turn sign
    steps, speed, dt = 30, 1.4, 0.1
    theta = 0.1 * np.where(np.arange(steps - 1) % 2 == 0, 1.0, -1.0)
    deltas = speed * dt * np.column_stack([np.cos(theta), np.sin(theta)])
    pos = np.vstack([[0.0, 0.0], np.cumsum(deltas, axis=0)])[None]
    f = extract(crowd_from_positions(pos))
    # the final step repeats the backward difference, so stop one short
    assert np.allclose(f["FDR"][0, 12:-1], 1.0)
    assert np.all(f["FSP"] == 0.0)  # speed is constant throughout
    assert np.allclose(f["AVL"][0, 1:-1], 2.0)  # 0.2 rad per 0.1 s
    assert f["AVL"][0, -1] == 0.0


def test_speed_flicker_counts_alternations():
    # speed alternates 1.0 / 1.3 each step while heading stays fixed
    steps = 30
    speed = np.where(np.arange(steps - 1) % 2 == 0, 1.0, 1.3)
    x = np.concatenate([[0.0], np.cumsum(speed * 0.1)])
    pos = np.zeros((1, steps, 2))
    pos[0, :, 0] = x
    f = extract(crowd_from_positions(pos))
    assert np.allclose(f["FSP"][0, 12:-1], 1.0)
    assert np.all(f["FDR"] == 0.0)


def test_goal_reach_and_length_ratio():
    # stops halfway to the goal
    pos = np.zeros((1, 11, 2))
    pos[0, :, 0] = np.minimum(np.arange(11) * 0.1, 0.5)
    f = extract(crowd_from_positions(pos, goals=[[1.0, 0.0]], comfort_speeds=1.0))
    assert f["GLR"][0] == pytest.approx(0.5)

    # detour doubles the path
    pos2 = np.zeros((1, 21, 2))
    pos2[0, :11, 1] = np.arange(11) * 0.1  # up 1 m
    pos2[0, 11:, 1] = 1.0
    pos2[0, 11:, 0] = np.arange(1, 11) * 0.1  # right 1 m
    f2 = extract(crowd_from_positions(pos2))
    assert f2["LEN"][0] == pytest.approx(2.0 / math.sqrt(2.0))


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

    ian = f["IAN"]
    assert ian[0, 0] > 0.0  # reaction recorded at episode onset
    assert np.all(ian[0, 1:] == 0.0)
    assert np.all(ian[1] == 0.0)  # the oblivious agent never maneuvers

    # the stored value is the ttc at the maneuver step: the forward
    # difference puts the first rotated velocity at step 20
    P, V = crowd.positions, crowd.velocities
    expected, _, _ = predict_pair(P[0, 20], V[0, 20], 0.3, P[1, 20], V[1, 20], 0.3)
    assert ian[0, 0] == pytest.approx(expected)


def test_anticipation_zero_when_nobody_reacts():
    crowd = linear_pair((0, 0), (1, 0), (12, 0), (-1, 0), steps=40)
    f = extract(crowd)
    assert np.all(f["IAN"] == 0.0)


def test_nearest_neighbour_spacing_two_agent_value():
    crowd = linear_pair((0, 0), (0, 0), (2.0, 0), (0, 0), steps=6)
    f = extract(crowd)
    # segment hull inflated by 1 m: area 2*2*1 + pi
    lam = 2.0 / (4.0 + math.pi)
    assert np.allclose(f["EDN"], 2.0 * 2.0 * math.sqrt(lam))


def test_speed_variation_across_agents():
    # two far-apart agents at 1 and 2 m/s
    pos = np.zeros((2, 10, 2))
    pos[0, :, 0] = np.arange(10) * 0.1
    pos[1, :, 0] = np.arange(10) * 0.2
    pos[1, :, 1] = 100.0
    f = extract(crowd_from_positions(pos))
    assert np.allclose(f["VAR"], np.std([1.0, 2.0]) / 1.5)


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
    for not_pairs in ([0.1, 1.5, 0.2, 1.3], [(0.1, 1.5, 2.0), (0.2, 1.3, 2.0)]):
        with pytest.raises(ValueError, match=r"\(M, 2\)"):
            fundamental_diagram_curve(not_pairs, bin_width=0.5)
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
    f = extract(crowd, curve=slow)
    assert np.allclose(f["FDG"], 1.0 - 1.4)


def test_rigid_motion_invariance():
    crowd = random_walk_crowd(17, n_agents=5, steps=35)
    moved = rigid_transform(crowd, angle=0.7, shift=(3.0, -2.0))
    f0 = extract(crowd)
    f1 = extract(moved)
    for code in FEATURE_CODES:
        assert np.allclose(f0[code], f1[code], atol=1e-8), code


def test_mirroring_leaves_every_feature_unchanged(golden_crowds):
    """y -> -y on positions and goals.  Measured: rounding moves AVL by up to
    9e-15 and EDN by up to 9e-16; the other 19 features are exact."""
    flip = np.array([1.0, -1.0])
    for crowd in (golden_crowds[0], colliding_crowd(), random_walk_crowd(3, n_agents=6)):
        mirrored = replace(crowd, goals=crowd.goals * flip)
        mirrored = mirrored.with_positions(crowd.positions * flip, crowd.dt)
        before, after = extract(crowd), extract(mirrored)
        for code in FEATURE_CODES:
            assert np.allclose(after[code], before[code], rtol=0.0, atol=1e-12), code


def test_time_reversal_with_swapped_goals_keeps_glr_and_len(golden_crowds):
    """Walked backwards from the goal it reached to its start, an agent reaches
    its new goal just as fully over the same path.  Measured on golden crowds:
    GLR is exact, LEN moves by at most 4.4e-16 relative (the path length sums
    its steps in the other order)."""
    for crowd in (golden_crowds[0], random_walk_crowd(3, n_agents=6)):
        P = crowd.positions
        forward = replace(crowd, goals=P[:, -1])
        backward = replace(crowd, goals=P[:, 0]).with_positions(P[:, ::-1], crowd.dt)
        before, after = extract(forward), extract(backward)
        assert np.array_equal(after["GLR"], before["GLR"])
        assert np.allclose(after["LEN"], before["LEN"], rtol=1e-12, atol=0.0)


def test_nonnegativity_and_collision_is_binary():
    for seed in range(5):
        crowd = random_walk_crowd(seed, n_agents=4, steps=30)
        f = extract(crowd)
        for code in FEATURE_CODES:
            if code != "FDG":  # FDG is a signed gap
                assert np.all(f[code] >= 0.0), code
        assert set(np.unique(f["COL"])) <= {0.0, 1.0}
        assert np.all(f["TTC"] <= 10.0)
        assert np.all(f["IST"] <= 1.0)


def test_extract_rejects_single_step():
    from dataclasses import replace

    crowd = straight_crowd(steps=5)
    short = replace(crowd, positions=crowd.positions[:, :1],
                    velocities=crowd.velocities[:, :1],
                    headings=crowd.headings[:, :1], speeds=crowd.speeds[:, :1])
    with pytest.raises(DataError):
        extract(short)


def contact_crowd(seed=3, n_agents=9, steps=40):
    """Random walkers packed into a 3 m square, so bodies touch now and then."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(-1.5, 1.5, size=(n_agents, 1, 2))
    steps_xy = rng.normal(0.0, 0.12, size=(n_agents, steps - 1, 2))
    return crowd_from_positions(
        np.concatenate([start, start + np.cumsum(steps_xy, axis=1)], axis=1)
    )


def one_block(monkeypatch, crowd):
    """extract on one slab that holds every pair of the crowd both ways."""
    with monkeypatch.context() as patch:
        patch.setattr(features, "_PAIR_BUDGET", crowd.n_agents**2 * crowd.n_steps)
        patch.setattr(features, "_BLOCK_ROWS", crowd.n_agents + 1)
        patch.setattr(features, "usable_cpus", lambda: 1)
        return extract(crowd)


def assert_bitwise(expected, got, *context):
    for code in FEATURE_CODES:
        assert got[code].tobytes() == expected[code].tobytes(), (*context, code)


def serial_shares(work, k):
    """Stands in for ``features.run_shares``: every share in this process."""
    for share in range(k):
        work(share)


def slab_shapes(monkeypatch):
    """The (j, t, i) shapes extract passes to the pair kernel, appended as it
    runs; its workers run in this process, so each of their slabs is seen."""
    shapes, kernel = [], features.pairwise_arrays

    def recording(*args):
        shapes.append(args[0].shape)
        return kernel(*args)

    monkeypatch.setattr(features, "pairwise_arrays", recording)
    monkeypatch.setattr(features, "run_shares", serial_shares)
    return shapes


def test_pairwise_chunking_is_exact(monkeypatch):
    crowd = contact_crowd()
    n, steps = crowd.n_agents, crowd.n_steps
    whole = one_block(monkeypatch, crowd)
    assert np.any(whole["COL"] == 1.0)  # the crowd has contacts
    # slabs of 1 row of 1 step, of 2 rows, of 6 or 7 steps (7 at most), and
    # then blocks of 1 to 4 rows (2 to 9 blocks) against the neighbours past
    # them, for budgets of 1 row to 5,000 pairs on 1 to 4 CPUs
    for budget in (1, 2 * n, 7 * n * n):
        monkeypatch.setattr(features, "_PAIR_BUDGET", budget)
        assert_bitwise(whole, extract(crowd), budget)
    for rows, budget, cpus in itertools.product(
        (1, 2, 4), (1, 13, 2 * n, 3 * n, 5000, 7 * n * n), (1, 2, 3, 4)
    ):
        monkeypatch.setattr(features, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(features, "_PAIR_BUDGET", budget)
        monkeypatch.setattr(features, "usable_cpus", lambda: cpus)
        assert_bitwise(whole, extract(crowd), rows, budget, cpus)


@pytest.mark.parametrize(
    "n_agents,steps,blocks",
    [
        (99, 6, [(99, 99)]),  # 58,806 pairs: one slab of them all
        (99, 8, [(99, 99)]),  # one block: under twice _BLOCK_ROWS agents
        (100, 8, [(100, 50), (50, 50)]),  # two blocks of 50 rows
        (150, 8, [(150, 50), (100, 50), (50, 50)]),
    ],
)
def test_row_blocks_start_at_twice_the_block_rows(monkeypatch, n_agents, steps, blocks):
    """Block m of rows i runs against neighbours j from its first row on, and
    no slab holds more pairs than the slab of whole steps a block of all N
    rows would have."""
    crowd = spread_crowd(n_agents, steps)
    whole = one_block(monkeypatch, crowd)
    shapes = slab_shapes(monkeypatch)
    step_slab = n_agents**2 * (features._PAIR_BUDGET // n_agents**2)
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(features, "usable_cpus", lambda: cpus)
        shapes.clear()
        assert_bitwise(whole, extract(crowd), cpus)
        assert sorted({(j, i) for j, _, i in shapes}, reverse=True) == blocks
        assert max(map(math.prod, shapes)) <= step_slab


def spread_crowd(n_agents, steps, seed=0):
    """Random walkers over a square that grows with the crowd: small crowds
    touch, and in the largest some pairs lie beyond the interaction horizon."""
    rng = np.random.default_rng(seed)
    half = 1.5 + 0.15 * n_agents
    start = rng.uniform(-half, half, size=(n_agents, 1, 2))
    steps_xy = rng.normal(0.0, 0.12, size=(n_agents, steps - 1, 2))
    return crowd_from_positions(
        np.concatenate([start, start + np.cumsum(steps_xy, axis=1)], axis=1)
    )


@pytest.mark.parametrize("n_agents", [1, 2, 12, 57, 150])
@pytest.mark.parametrize("steps", [2, 3, 110])
def test_threaded_pairwise_pass_is_bitwise_serial(monkeypatch, n_agents, steps, affinity):
    crowd = spread_crowd(n_agents, steps)
    # Five steps of pairs per slab: many slabs over 110 steps, one over 2 or
    # 3 steps.  One step a slab: fewer slabs than CPUs over 2 or 3 steps.
    # Then a quarter of a step's rows, three at least: from 12 agents up one
    # step does not fit a slab, and the workers split single steps into
    # blocks of rows, an odd count of them (15) for 57 agents over 3 steps.
    # Four CPUs are more than this host's cores: the forked workers are
    # pinned round the CPUs there are.  Each budget runs with the real block
    # rows (3 blocks of 150 agents) and with blocks of 3 rows, up to 50 of
    # them, against one serial block.
    budgets = (
        5 * n_agents * n_agents, n_agents * n_agents, max(3, n_agents // 4) * n_agents
    )
    serial = one_block(monkeypatch, crowd)
    for rows, budget, cpus in itertools.product(
        (features._BLOCK_ROWS, 3), budgets, (1, 2, 3, 4)
    ):
        monkeypatch.setattr(features, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(features, "_PAIR_BUDGET", budget)
        monkeypatch.setattr(features, "usable_cpus", lambda: cpus)
        forked = extract(crowd)
        assert_no_child_and_affinity(affinity)  # every worker reaped
        assert_bitwise(serial, forked, rows, budget, cpus)


def split_any_crowd(monkeypatch, cpus):
    """Let extract start a worker per slab of one agent row, on up to
    ``cpus`` CPUs."""
    monkeypatch.setattr(features, "_PAIR_BUDGET", 1)
    monkeypatch.setattr(features, "usable_cpus", lambda: cpus)


def test_forked_workers_compute_under_the_callers_error_state(monkeypatch):
    """The pair kernel overflows in the forked workers only, and records in
    shared memory whether that raised: it does under the caller's
    ``np.errstate(over="raise")`` and not under ``over="ignore"``."""
    caller, kernel = os.getpid(), features.pairwise_arrays
    raised = features.shared_empty(2, bool)  # [ignored, raised], any worker

    def overflowing(*args):
        if os.getpid() != caller:
            try:
                np.float64(1e308) * 10.0
            except FloatingPointError:
                raised[1] = True
            else:
                raised[0] = True
        return kernel(*args)

    split_any_crowd(monkeypatch, cpus=2)
    monkeypatch.setattr(features, "pairwise_arrays", overflowing)
    crowd = contact_crowd()
    for state, seen in (("ignore", [True, False]), ("raise", [False, True])):
        raised[:] = False
        with np.errstate(over=state):
            extract(crowd)
        assert raised.tolist() == seen, state


def test_an_exception_in_a_forked_worker_is_raised_in_the_caller(monkeypatch):
    """Worker 1 fails wherever it runs: its child exits, and the caller runs
    that share again and raises the error.  ``tries`` counts both runs."""
    run_shares = features.run_shares
    tries = features.shared_empty(1, np.intp)
    tries[0] = 0

    def failing_share(work, k):
        def share(s):
            if s == 1:
                tries[0] += 1
                raise RuntimeError("worker failed")
            work(s)

        run_shares(share, k)

    split_any_crowd(monkeypatch, cpus=4)
    monkeypatch.setattr(features, "run_shares", failing_share)
    with pytest.raises(RuntimeError, match="worker failed"):
        extract(contact_crowd())
    assert tries[0] == 2  # in its child, then in the caller


def test_without_cpu_affinity_one_cpu_is_counted_and_nothing_forks(monkeypatch):
    """Off Linux there is no CPU affinity: ``usable_cpus()`` reads 1, and
    shares that ``run_shares`` gets all the same run here, one by one."""
    monkeypatch.delattr(os, "sched_getaffinity")
    assert features.usable_cpus() == 1
    monkeypatch.delattr(os, "sched_setaffinity")

    def no_fork():
        raise AssertionError("os.fork called without CPU affinity")

    monkeypatch.setattr(os, "fork", no_fork)
    pids = []
    features.run_shares(lambda share: pids.append((share, os.getpid())), 3)
    assert pids == [(share, os.getpid()) for share in range(3)]


def test_workers_are_capped_by_cpus_steps_pairs_and_budget(monkeypatch):
    counts = []

    def counting_shares(work, k):
        counts.append(k)
        serial_shares(work, k)

    def workers(crowd):
        counts.clear()
        result = extract(crowd)
        assert len(counts) == 1
        return counts[0], result

    monkeypatch.setattr(features, "run_shares", counting_shares)
    small = contact_crowd()  # 9 agents over 40 steps: 3,240 pairs, one slab
    dense = spread_crowd(150, 40)  # 22,500 pairs a step: 20 slabs of 2 steps
    large = spread_crowd(300, 2)  # 90,000 pairs a step, more than the budget
    assert workers(small)[0] == 1  # too few pairs to share
    assert workers(dense)[0] <= features.usable_cpus()
    monkeypatch.setattr(features, "usable_cpus", lambda: 2)
    # six blocks of 50 rows in each step: a step need not fit a worker, but
    # a worker owns whole steps, so 2 steps keep 2 workers on 4 CPUs
    assert workers(large)[0] == 2
    monkeypatch.setattr(features, "usable_cpus", lambda: 4)
    assert workers(large)[0] == 2
    monkeypatch.setattr(features, "usable_cpus", lambda: 2)
    # A crowd that fills one slab keeps one worker: bench tune's 20 agents
    # over 110 steps (44,000 pairs); 28 agents (86,240 pairs) get two.
    assert workers(spread_crowd(20, 110))[0] == 1
    assert workers(spread_crowd(28, 110))[0] == 2
    # On 64 CPUs the cap of 8 workers holds.
    monkeypatch.setattr(features, "usable_cpus", lambda: 64)
    assert workers(dense)[0] == 8
    assert workers(small)[0] == 1
    serial = extract(small)
    # With one step a slab, the cap holds over 40 slabs, ...
    monkeypatch.setattr(features, "_PAIR_BUDGET", small.n_agents**2)
    count, capped = workers(small)
    assert count == 8
    for code in FEATURE_CODES:
        assert np.array_equal(capped[code], serial[code]), code
    monkeypatch.setattr(features, "usable_cpus", lambda: 3)
    assert workers(small)[0] == 3
    # ... and with 8 steps a slab the slabs cap the workers: 5 of them.
    monkeypatch.setattr(features, "usable_cpus", lambda: 64)
    monkeypatch.setattr(features, "_PAIR_BUDGET", 8 * small.n_agents**2)
    count, capped = workers(small)
    assert count == 5
    for code in FEATURE_CODES:
        assert np.array_equal(capped[code], serial[code]), code
    # ... or the steps do: 3 agents over 2 steps, at 8 pairs a slab on 64
    # CPUs, go in blocks of 1 and 2 rows, 3 slabs, but on 2 workers.
    tiny = spread_crowd(3, 2)
    serial = extract(tiny)
    monkeypatch.setattr(features, "_PAIR_BUDGET", 8)
    count, capped = workers(tiny)
    assert count == 2
    for code in FEATURE_CODES:
        assert np.array_equal(capped[code], serial[code]), code


def test_each_worker_gets_a_slab_of_the_whole_budget(monkeypatch):
    """On 2 CPUs, 150 agents over 12 steps go in 2 chunks of 6 steps, one a
    worker, each in 3 blocks of 50 rows: block 0's slab (j, t, i) holds
    45,000 pairs, as many as 2 whole steps, so a worker's slab is not cut to
    its share of the budget."""
    shapes = slab_shapes(monkeypatch)
    monkeypatch.setattr(features, "usable_cpus", lambda: 2)
    extract(spread_crowd(150, 12))
    assert sorted(shapes) == sorted([(150, 6, 50), (100, 6, 50), (50, 6, 50)] * 2)


def test_tca_and_dca_come_from_the_first_of_tied_neighbours(monkeypatch):
    """Agent 0 stands still; agents 1 and 2 pass it at 1 m/s, both 1 m off,
    so their DCA ties exactly at every step while agent 1 is 2 s later: TCA
    and DCA come from agent 1, the lower index, as argmin picks.  Agents 3
    and 4, over 150 m away, close at 2 m/s from 25 m: a closest approach
    over 10 s ahead is no candidate, so agent 3 has none at any step."""
    x = np.arange(3.0)  # 1 s steps: every value below is exact
    positions = np.zeros((5, 3, 2))
    positions[1, :, 0], positions[1, :, 1] = 4.0 - x, 1.0
    positions[2, :, 0], positions[2, :, 1] = 2.0 - x, -1.0
    positions[3, :, 0] = 200.0
    positions[4, :, 0], positions[4, :, 1] = 225.0 - 2.0 * x, 0.5
    n = len(positions)
    # The same crowd with the still agent last (4) and agent 3 at 2: in
    # blocks of one row, or of rows [0, 1), [1, 3) and [3, 5) at 2n pairs a
    # slab, agent 4 meets the tied agents 0 and 1 in two blocks, and the
    # earlier block must win.
    for order, still, far in (([0, 1, 2, 3, 4], 0, 3), ([1, 2, 3, 4, 0], 4, 2)):
        crowd = crowd_from_positions(positions[order], dt=1.0)
        # one slab on one worker; one row, two rows or one step a slab on
        # two; then blocks of 1 to 3 rows for one step a slab
        for budget, cpus, rows in (
            (features._PAIR_BUDGET, 1, features._BLOCK_ROWS),
            (1, 2, features._BLOCK_ROWS),
            (2 * n, 2, features._BLOCK_ROWS),
            (n * n, 2, features._BLOCK_ROWS),
            (n * n, 1, 1),
            (n * n, 2, 1),
            (3 * n, 1, 2),
            (n * n, 3, 1),
        ):
            monkeypatch.setattr(features, "_PAIR_BUDGET", budget)
            monkeypatch.setattr(features, "usable_cpus", lambda: cpus)
            monkeypatch.setattr(features, "_BLOCK_ROWS", rows)
            f = extract(crowd)
            setting = (order, budget, cpus, rows)
            assert f["TCA"][still].tolist() == [4.0, 3.0, 2.0], setting
            assert f["DCA"][still].tolist() == [1.0, 1.0, 1.0], setting
            assert f["TCA"][far].tolist() == [TTC_HORIZON] * 3, setting
            assert f["DCA"][far].tolist() == f["DTA"][far].tolist(), setting
            assert np.all(f["DTA"][far] < INTERACTION_HORIZON)


def test_a_nan_dca_gets_a_nan_tca(monkeypatch):
    """A NaN velocity, which only a blown-up crowd scored under
    np.errstate(all="ignore") reaches, makes that agent's pairs NaN candidates
    (TCA 0, DCA 0 * NaN + dx): the DCA of every agent near it stays NaN, and
    its TCA reads NaN whatever block held the NaN pair.  Other steps keep
    their values."""
    crowd = contact_crowd()
    velocities = crowd.velocities.copy()
    velocities[5, 7] = np.nan
    broken = replace(crowd, velocities=velocities)
    clean = extract(crowd)
    with np.errstate(all="ignore"):
        whole = one_block(monkeypatch, broken)
    assert np.all(np.isnan(whole["DCA"][:, 7])) and np.all(np.isnan(whole["TCA"][:, 7]))
    others = np.arange(crowd.n_steps) != 7
    for code in ("TCA", "DCA", "TTC"):
        assert np.array_equal(whole[code][:, others], clean[code][:, others]), code
    for rows, budget in itertools.product((1, 2, 4), (1, 13, 5000)):
        monkeypatch.setattr(features, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(features, "_PAIR_BUDGET", budget)
        with np.errstate(all="ignore"):
            blocked = extract(broken)
        for code in FEATURE_CODES:
            assert np.array_equal(blocked[code], whole[code], equal_nan=True), (rows, budget, code)


def test_pairwise_memory_stays_within_the_budget(monkeypatch):
    """A step of 256 agents is 128 slabs of two rows at a budget of 512 pairs,
    and extract holds one slab's planes, not a step's.  Most of the traced
    peak left is O(N^2), not O(T N^2): the (N, N) sums of the body and the
    personal-space radii.  At the real budget a step is one slab of
    _PAIR_BUDGET pairs, and each worker adds its planes, 60 bytes a pair, and
    numpy's cast buffers of its reductions, under 128 KiB: the caller to its
    own peak, and each forked worker to what it inherited, as it records in
    shared memory."""
    budget = features._PAIR_BUDGET
    worker = budget * 60 + 2**17
    crowd = spread_crowd(math.isqrt(budget), 5)  # 256 agents: a step fills a slab
    caller, run_shares, forked = os.getpid(), features.run_shares, []

    def traced_shares(work, k):
        grown = features.shared_empty(k, np.int64)
        grown[:] = -1

        def share(s):
            if os.getpid() == caller:
                return work(s)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            work(s)
            grown[s] = tracemalloc.get_traced_memory()[1] - start

        run_shares(share, k)
        forked.append(grown[1:].tolist())

    def traced_peak():
        tracemalloc.start()
        try:
            extract(crowd)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(features, "_PAIR_BUDGET", 2 * crowd.n_agents)
    fixed = traced_peak()
    assert fixed < 4 * 2**20
    monkeypatch.setattr(features, "_PAIR_BUDGET", budget)
    monkeypatch.setattr(features, "run_shares", traced_shares)
    for cpus in (1, 2, 4):
        monkeypatch.setattr(features, "usable_cpus", lambda: cpus)
        forked.clear()
        assert traced_peak() < fixed + worker, cpus
        assert len(forked) == 1 and len(forked[0]) == cpus - 1, cpus
        assert all(0 < grown < worker for grown in forked[0]), (cpus, forked)


def test_pairwise_minima_match_scalar_predictions():
    crowd = contact_crowd(seed=5)
    f = extract(crowd)
    P, V, r = crowd.positions, crowd.velocities, crowd.body_radii
    N, T = crowd.n_agents, crowd.n_steps
    ttc = np.full((N, T), TTC_HORIZON)
    tca = np.full((N, T), TTC_HORIZON)
    dca = np.empty((N, T))
    for t in range(T):
        for i in range(N):
            gaps = {j: np.linalg.norm(P[j, t] - P[i, t]) for j in range(N) if j != i}
            dca[i, t] = min(min(gaps.values()), INTERACTION_HORIZON)  # nothing ahead
            best = math.inf
            for j, gap in gaps.items():
                if gap > INTERACTION_HORIZON:
                    continue
                pair_ttc, pair_tca, pair_dca = predict_pair(P[i, t], V[i, t], r[i],
                                                            P[j, t], V[j, t], r[j])
                ttc[i, t] = min(ttc[i, t], pair_ttc)
                if pair_tca < TTC_HORIZON and pair_dca < best:
                    best = pair_dca
                    tca[i, t], dca[i, t] = pair_tca, pair_dca
    assert np.any(ttc < TTC_HORIZON) and np.any(tca < TTC_HORIZON)
    for code, expected in (("TTC", ttc), ("TCA", tca), ("DCA", dca)):
        np.testing.assert_allclose(f[code], expected, rtol=1e-12, atol=1e-12,
                                   err_msg=code)


def hull_of(points):
    """Area and perimeter of one point set, through the batched (T, N) call."""
    pts = np.asarray(points, dtype=float)
    area, perimeter = features._hull_area_perimeter(pts[None, :, 0], pts[None, :, 1])
    return area[0], perimeter[0]


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
    assert hull_of(points) == (area, perimeter)


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
    area, perimeter = hull_of(pts)
    ref_area, ref_perimeter = brute_force_hull(pts)
    assert area == pytest.approx(ref_area, rel=1e-12)
    assert perimeter == pytest.approx(ref_perimeter, rel=1e-12)


def _half_chain(pts):
    chain = []
    for p in pts:
        x, y = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def monotone_chain_hull(points):
    """Reference: Andrew's monotone chain on Python floats, one point set."""
    pts = sorted(set(map(tuple, points.tolist())))
    if len(pts) == 1:
        return 0.0, 0.0
    if len(pts) == 2:
        return 0.0, 2.0 * math.dist(pts[0], pts[1])
    hull = _half_chain(pts)[:-1] + _half_chain(reversed(pts))[:-1]
    if len(hull) < 3:  # collinear
        return 0.0, 2.0 * math.dist(pts[0], pts[-1])
    twice_area = 0.0
    perimeter = 0.0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x0 * y1 - x1 * y0
        perimeter += math.hypot(x1 - x0, y1 - y0)
    return 0.5 * abs(twice_area), perimeter


def point_family(rng, family, T, N):
    """(T, N, 2) fuzz point sets of one family."""
    if family == "gaussian":
        return rng.normal(0.0, 3.0, (T, N, 2))
    if family == "grid":  # rounded to 0.5, so duplicates and collinear runs
        return np.round(rng.normal(0.0, 1.5, (T, N, 2)) * 2.0) / 2.0
    if family == "near-line":
        along = rng.uniform(-5.0, 5.0, (T, N, 1))
        line = along * rng.normal(size=(T, 1, 2)) + rng.normal(size=(T, 1, 2))
        return line + rng.normal(0.0, 1e-12, (T, N, 2))
    if family == "ring":
        theta = rng.uniform(0.0, 2.0 * np.pi, (T, N))
        return 3.0 * np.stack([np.cos(theta), np.sin(theta)], axis=2) + rng.normal(size=(T, 1, 2))
    if family == "identical":
        return np.repeat(rng.normal(size=(T, 1, 2)), N, axis=1)
    assert family == "two-point"
    return rng.normal(size=(T, 2, 2))[:, rng.integers(0, 2, N)]


@pytest.mark.parametrize(
    "seed,family",
    enumerate(["gaussian", "grid", "near-line", "ring", "identical", "two-point"]),
)
def test_batched_hull_matches_monotone_chain(seed, family):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        T, N = int(rng.integers(1, 8)), int(rng.integers(1, 40))
        pts = point_family(rng, family, T, N)
        X, Y = np.ascontiguousarray(pts[..., 0]), np.ascontiguousarray(pts[..., 1])
        area, perimeter = features._hull_area_perimeter(X, Y)
        for t in range(T):
            ref_area, ref_perimeter = monotone_chain_hull(pts[t])
            span = np.ptp(pts[t], axis=0).max()
            assert abs(area[t] - ref_area) <= 1e-12 * max(ref_area, span**2), (family, t)
            assert perimeter[t] == pytest.approx(ref_perimeter, rel=1e-12, abs=0.0)
            # a row's result does not depend on the other rows of the batch
            row = features._hull_area_perimeter(X[t : t + 1], Y[t : t + 1])
            assert (row[0][0], row[1][0]) == (area[t], perimeter[t])


def anticipation_loop(ttc, maneuver, contact):
    """Reference: scan each run of ttc below TTC_HORIZON until it clears or touches."""
    N, T = ttc.shape
    out = np.zeros((N, T))
    below = ttc < TTC_HORIZON
    for n in range(N):
        for t0 in range(T):
            if not below[n, t0] or (t0 > 0 and below[n, t0 - 1]):
                continue
            end = t0
            while end < T and below[n, end] and not contact[n, end]:
                end += 1
            for s in range(t0, end):
                if maneuver[n, s]:
                    out[n, t0] = ttc[n, s]
                    break
    return out


def test_anticipation_matches_loop_on_random_masks():
    rng = np.random.default_rng(8)
    for _ in range(300):
        N, T = int(rng.integers(1, 6)), int(rng.integers(2, 40))
        ttc = np.where(rng.random((N, T)) < rng.uniform(0.2, 0.9),
                       rng.uniform(0.0, TTC_HORIZON, (N, T)), TTC_HORIZON)
        maneuver = rng.random((N, T)) < rng.uniform(0.0, 0.5)
        contact = rng.random((N, T)) < rng.uniform(0.0, 0.3)
        got = features._anticipation(ttc, maneuver, contact)
        assert np.array_equal(got, anticipation_loop(ttc, maneuver, contact))


@pytest.mark.parametrize(
    "below,maneuver,contact",
    [
        ("1100000", "0100000", "0000000"),  # run at t = 0
        ("0000111", "0000001", "0000000"),  # run ends at T - 1
        ("0011100", "0011100", "0010000"),  # contact on the run's first step
        ("0011100", "0100000", "0000000"),  # manoeuvre just before the run
        ("0111011", "0001010", "0000100"),  # second run after a clearance
        ("0111100", "0000100", "0010000"),  # contact cuts the run before it reacts
        ("11", "01", "00"),  # T = 2
        ("01", "01", "01"),  # T = 2, contact at onset
    ],
)
def test_anticipation_edge_cases(below, maneuver, contact):
    def mask(text):
        return np.array([[c == "1" for c in text]])

    T = len(below)
    ttc = np.where(mask(below), np.linspace(1.0, 2.0, T), TTC_HORIZON)
    args = (ttc, mask(maneuver), mask(contact))
    assert np.array_equal(features._anticipation(*args), anticipation_loop(*args))
