import math

import numpy as np
import pytest

from crowdscore.errors import DataError
from crowdscore.features import extract
from crowdscore.quality import fit_reference_from_crowds, score
from crowdscore.training import DEGRADE_MODES, degrade
from crowdscore.trajectory import (
    CANONICAL_DT,
    derive_kinematics,
    resample,
    to_canonical,
    validate,
)

from helpers import (
    colliding_crowd,
    crowd_arrays,
    crowd_from_positions,
    random_walk_crowd,
    straight_crowd,
)


def test_velocities_are_finite_differences():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(3, 25, 2))
    crowd = crowd_from_positions(pos, dt=0.1)
    vel = crowd.velocities
    assert np.array_equal(vel[:, :-1], (pos[:, 1:] - pos[:, :-1]) / 0.1)
    # last step reuses the backward difference
    assert np.array_equal(vel[:, -1], (pos[:, -1] - pos[:, -2]) / 0.1)
    assert np.allclose(crowd.speeds, np.linalg.norm(vel, axis=2))


def test_circle_walker_speed_is_chord_length_over_dt():
    k = np.arange(40)
    pos = np.stack([np.cos(0.1 * k), np.sin(0.1 * k)], axis=1)[None]
    crowd = crowd_from_positions(pos, dt=0.1)
    expected = 2.0 * math.sin(0.05) / 0.1  # chord of a 0.1 rad arc
    assert np.allclose(crowd.speeds, expected, atol=1e-12)


def test_heading_carried_through_standstill():
    # walk +x, stop for a while, walk again
    pos = np.zeros((1, 12, 2))
    pos[0, :4, 0] = [0.0, 0.2, 0.4, 0.6]
    pos[0, 4:9, 0] = 0.6
    pos[0, 9:, 0] = [0.8, 1.0, 1.2]
    crowd = crowd_from_positions(pos, dt=0.1)
    h = crowd.headings[0]
    assert np.allclose(h, 0.0)  # stalls inherit the last moving heading

    # stationary from the start: face the goal until motion begins
    pos2 = np.zeros((1, 8, 2))
    pos2[0, 5:, 1] = [0.3, 0.6, 0.9]
    crowd2 = crowd_from_positions(pos2, dt=0.1, goals=[[-3.0, 0.0]], comfort_speeds=1.0)
    h2 = crowd2.headings[0]
    assert h2[0] == pytest.approx(math.pi)  # toward the goal at -x
    assert h2[-1] == pytest.approx(math.pi / 2)


def test_defaults_goal_final_position_comfort_median_speed():
    pos = np.zeros((1, 6, 2))
    pos[0, :, 0] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    crowd = crowd_from_positions(pos, dt=0.1)
    assert np.array_equal(crowd.goals[0], pos[0, -1])
    assert crowd.comfort_speeds[0] == pytest.approx(1.0)


def test_derive_kinematics_input_errors():
    with pytest.raises(DataError, match="no agents"):
        derive_kinematics(np.zeros((0, 5, 2)), 0.1)
    with pytest.raises(DataError, match=r"\(N, T, 2\)"):
        derive_kinematics(np.zeros((5, 2)), 0.1)  # one agent without its agent axis
    with pytest.raises(DataError, match="at least 2 timesteps"):
        derive_kinematics(np.zeros((1, 1, 2)), 0.1)
    with pytest.raises(DataError, match=r"\(N, T, 2\)"):
        derive_kinematics(np.zeros((1, 5, 3)), 0.1)
    with pytest.raises(ValueError):
        derive_kinematics(np.zeros((1, 5, 2)), 0.0)


def test_personal_radius_defaults_to_body_plus_standoff():
    pos = np.zeros((3, 4, 2))
    crowd = crowd_from_positions(pos, body_radii=[0.25, 0.3, 0.4])
    assert crowd.personal_radii.tolist() == [0.25 + 0.2, 0.3 + 0.2, 0.4 + 0.2]
    assert crowd_from_positions(pos).personal_radii.tolist() == [0.5] * 3
    given = crowd_from_positions(pos, body_radii=0.25, personal_radii=0.9)
    assert given.personal_radii.tolist() == [0.9] * 3


def test_with_positions_keeps_t0_and_per_agent_arrays():
    crowd = crowd_from_positions(random_walk_crowd(2, n_agents=3).positions, t0=4.5,
                                 agent_ids=[7, 3, 9], goals=np.ones((3, 2)),
                                 comfort_speeds=[1.1, 1.2, 1.3], body_radii=0.25,
                                 personal_radii=[0.6, 0.7, 0.8])
    moved = crowd.with_positions(crowd.positions[:, ::2] + 1.0, 0.2)
    assert (moved.t0, moved.dt, moved.n_steps) == (4.5, 0.2, 20)
    for name in ("agent_ids", "goals", "comfort_speeds", "body_radii", "personal_radii"):
        assert np.array_equal(getattr(moved, name), getattr(crowd, name)), name
    expected = derive_kinematics(crowd.positions[:, ::2] + 1.0, 0.2, goals=crowd.goals)
    assert np.array_equal(moved.velocities, expected.velocities)
    assert np.array_equal(moved.headings, expected.headings)


def test_window_slices_states_and_shifts_t0():
    crowd = straight_crowd(steps=20)
    win = crowd.window(5, 15)
    assert win.n_steps == 10
    assert win.t0 == pytest.approx(crowd.t0 + 0.5)
    assert np.array_equal(win.positions, crowd.positions[:, 5:15])
    with pytest.raises(ValueError):
        crowd.window(8, 9)  # below the 2-step minimum
    with pytest.raises(ValueError):
        crowd.window(-1, 5)


def test_resample_halves_the_grid_exactly_on_linear_motion():
    crowd = straight_crowd(speed=1.0, steps=21)  # dt 0.1, 2 s span
    out = resample(crowd, 0.2)
    assert out.n_steps == 11
    assert out.dt == pytest.approx(0.2)
    # linear motion interpolates exactly
    assert np.allclose(out.positions[0, :, 0], np.arange(11) * 0.2)
    assert out.comfort_speeds[0] == pytest.approx(1.0)


# (0.04, 0.1, 16) ends on an old sample that the interpolation formula misses
# by an ulp, so np.interp's exact-hit rule decides the last step.
@pytest.mark.parametrize("dt_in,dt_out,steps",
                         [(0.05, 0.1, 23), (0.1, 0.03, 23), (0.07, 0.1, 23), (0.04, 0.1, 16)])
def test_resample_matches_np_interp_per_agent(dt_in, dt_out, steps):
    crowd = random_walk_crowd(5, n_agents=3, steps=steps, dt=dt_in)
    out = resample(crowd, dt_out)
    t_old = np.arange(crowd.n_steps) * dt_in
    t_new = np.arange(out.n_steps) * dt_out
    for i in range(crowd.n_agents):
        for axis in (0, 1):
            expected = np.interp(t_new, t_old, crowd.positions[i, :, axis])
            assert np.array_equal(out.positions[i, :, axis], expected)


def test_to_canonical_is_identity_on_canonical_grid():
    crowd = straight_crowd(steps=15)
    assert to_canonical(crowd) is crowd

    fine = resample(crowd, 0.05)
    back = to_canonical(fine)
    assert back.dt == pytest.approx(CANONICAL_DT)
    assert np.allclose(back.positions, crowd.positions)


def test_validate_reports_violations():
    crowd = straight_crowd(steps=8)
    assert validate(crowd) == []

    bad = crowd_from_positions(np.zeros((2, 8, 2)), dt=0.1)
    bad.positions[0, 3, 0] = np.nan
    assert validate(bad) == ["agent 0: non-finite position at timestep 3"]

    dup = crowd_from_positions(np.zeros((2, 8, 2)), dt=0.1)
    dup.agent_ids[1] = 0
    assert any("duplicate agent_id" in v for v in validate(dup))

    shrunk = crowd_from_positions(np.zeros((1, 8, 2)), dt=0.1)
    shrunk.body_radii[0], shrunk.personal_radii[0] = 0.4, 0.2
    assert any("personal_radius" in v for v in validate(shrunk))

    forged = straight_crowd(steps=8)
    forged.speeds[0, 2] += 0.5
    assert any("differs from |velocity|" in v for v in validate(forged))


def test_operations_leave_the_input_crowd_unchanged():
    crowd = colliding_crowd()
    before = {name: value.copy() for name, value in crowd_arrays(crowd).items()}
    assert len(before) == 9

    extract(crowd)
    score(crowd, fit_reference_from_crowds([crowd]))
    for mode in DEGRADE_MODES:
        degrade(crowd, mode, seed=1)
    resample(crowd, 0.05)
    crowd.window(2, 10).positions[:] = 99.0

    for name, value in crowd_arrays(crowd).items():
        assert np.array_equal(value, before[name]), name


def test_crowd_owns_its_arrays():
    history = np.random.default_rng(2).normal(size=(10, 3, 2))
    goals = np.zeros((3, 2))
    comfort = np.ones(3)
    crowd = derive_kinematics(history.transpose(1, 0, 2), 0.1, goals=goals,
                              comfort_speeds=comfort)
    assert crowd.positions.flags.c_contiguous and crowd.positions.dtype == np.float64
    before = {name: value.copy() for name, value in crowd_arrays(crowd).items()}

    history[:] = 0.0
    goals[:] = 5.0
    comfort[:] = 9.0
    for name, value in crowd_arrays(crowd).items():
        assert np.array_equal(value, before[name]), name
