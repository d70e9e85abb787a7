"""Social-forces simulator: scenarios, stepping physics, determinism, files."""

import math

import numpy as np
import pytest

from crowdscore import shares
from crowdscore.errors import ConfigError, DataError
from crowdscore.simulator import (
    COMFORT_RANGE,
    GOAL_RADIUS,
    PARAM_NAMES,
    TUNE_BOUNDS,
    CrowdSetup,
    Scenario,
    SocialForcesParams,
    genome_to_params,
    load_params,
    make_scenario,
    params_to_genome,
    parse_params,
    repulsion_forces,
    save_params,
    simulate,
    simulate_population,
    step,
)


def test_params_validation():
    SocialForcesParams(repulsion_strength=0.0)  # allowed: no-avoidance baseline
    with pytest.raises(ConfigError):
        SocialForcesParams(relaxation_time=0.0)
    with pytest.raises(ConfigError):
        SocialForcesParams(repulsion_strength=-0.1)
    with pytest.raises(ConfigError):
        SocialForcesParams(repulsion_range=0.0)
    with pytest.raises(ConfigError):
        SocialForcesParams(max_speed=0.0)
    with pytest.raises(ConfigError):
        SocialForcesParams(noise_amplitude=-0.2)


@pytest.mark.parametrize("name", PARAM_NAMES)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_params_are_rejected(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        SocialForcesParams(**{name: value})
    block = np.array([params_to_genome(SocialForcesParams())] * 2)
    block[1, PARAM_NAMES.index(name)] = value
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        next(simulate_population(Scenario(kind="circle", agent_count=4), block, duration=2.0))


def test_genome_round_trip():
    p = SocialForcesParams(relaxation_time=0.7, repulsion_strength=3.0,
                           repulsion_range=0.4, max_speed=3.0,
                           noise_amplitude=0.1)
    g = params_to_genome(p)
    assert g.shape == (len(PARAM_NAMES),)
    assert genome_to_params(g) == p
    with pytest.raises(ConfigError):
        genome_to_params(np.zeros(4))


def test_scenario_validation():
    with pytest.raises(ConfigError, match="unknown scenario kind"):
        Scenario(kind="maze", agent_count=4)
    with pytest.raises(ConfigError):
        Scenario(kind="circle", agent_count=0)
    with pytest.raises(ConfigError):
        Scenario(kind="circle", agent_count=4, radius=0.0)
    with pytest.raises(ConfigError):
        Scenario(kind="random", agent_count=4, area=(0.0, 5.0))
    with pytest.raises(ConfigError):
        Scenario(kind="circle", agent_count=4, density_target=-1.0)
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(kind="circle", radius=nan),
        dict(kind="circle", radius=inf),
        dict(kind="random", area=(5.0, nan)),
        dict(kind="random", area=(inf, 5.0)),
        dict(kind="crossing", angle_deg=nan),
        dict(kind="crossing", angle_deg=-inf),
        dict(kind="circle", density_target=nan),
        dict(kind="circle", density_target=inf),
    ):
        with pytest.raises(ConfigError, match="finite"):
            Scenario(agent_count=4, **bad)


def test_circle_spawns_on_rim_with_antipodal_goals():
    setup = make_scenario(Scenario(kind="circle", agent_count=2, radius=5.0))
    assert np.allclose(setup.positions[0], [5.0, 0.0])
    assert np.allclose(setup.positions[1], [-5.0, 0.0], atol=1e-12)
    assert np.array_equal(setup.goals, -setup.positions)
    setup8 = make_scenario(Scenario(kind="circle", agent_count=8, radius=3.0))
    assert np.allclose(np.linalg.norm(setup8.positions, axis=1), 3.0)


def test_circle_density_target_overrides_radius():
    density = 0.25
    setup = make_scenario(Scenario(kind="circle", agent_count=20, radius=99.0,
                                   density_target=density))
    expected = math.sqrt(20 / (math.pi * density))
    assert np.allclose(np.linalg.norm(setup.positions, axis=1), expected)


def test_crossing_flows_are_perpendicular():
    setup = make_scenario(Scenario(kind="crossing", agent_count=4, radius=6.0,
                                   angle_deg=90.0))
    travel = setup.goals - setup.positions
    # first half flows along +x, second half along +y
    for i in (0, 1):
        assert travel[i][1] == pytest.approx(0.0)
        assert travel[i][0] > 0
        assert setup.positions[i][0] == pytest.approx(-6.0)
    for i in (2, 3):
        assert travel[i][0] == pytest.approx(0.0)
        assert travel[i][1] > 0
        assert setup.positions[i][1] == pytest.approx(-6.0)


def test_random_spawns_keep_clearance_and_are_seeded():
    sc = Scenario(kind="random", agent_count=12, area=(10.0, 10.0), seed=5)
    setup = make_scenario(sc)
    d = np.linalg.norm(setup.positions[:, None] - setup.positions[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 0.6  # two body radii plus the clearance margin
    again = make_scenario(Scenario(kind="random", agent_count=12,
                                   area=(10.0, 10.0), seed=5))
    assert np.array_equal(setup.positions, again.positions)
    assert np.array_equal(setup.goals, again.goals)
    other = make_scenario(Scenario(kind="random", agent_count=12,
                                   area=(10.0, 10.0), seed=6))
    assert not np.array_equal(setup.positions, other.positions)


def test_random_density_target_sets_area():
    setup = make_scenario(Scenario(kind="random", agent_count=16,
                                   density_target=0.25, seed=0))
    side = math.sqrt(16 / 0.25)
    assert np.all(np.abs(setup.positions) <= side / 2)
    assert np.all(np.abs(setup.goals) <= side / 2)


def test_random_infeasible_packing_raises():
    with pytest.raises(ConfigError, match="cannot place"):
        make_scenario(Scenario(kind="random", agent_count=200, area=(2.0, 2.0)))


def test_comfort_speeds_are_clamped():
    setup = make_scenario(Scenario(kind="circle", agent_count=400, radius=100.0))
    assert np.all(setup.comfort_speeds >= COMFORT_RANGE[0])
    assert np.all(setup.comfort_speeds <= COMFORT_RANGE[1])
    assert abs(float(np.mean(setup.comfort_speeds)) - 1.4) < 0.05


def coefficients(block):
    """The (P, 1) coefficient arrays simulate_population builds for a (P, 5) block."""
    return tuple(np.ascontiguousarray(block.T).reshape(len(PARAM_NAMES), len(block), 1))


def planes(points):
    """(P, N, 2) points as the simulator's (2, P, N) x and y planes."""
    return np.ascontiguousarray(np.transpose(points, (2, 0, 1)))


def at_rest(setup):
    """(p, v, reached, setup) of one crowd standing on its spawn points."""
    n = len(setup.positions)
    return planes(setup.positions[None]), np.zeros((2, 1, n)), np.zeros((1, n), bool), setup


def one_agent_state(position, goal, comfort=1.3):
    return at_rest(CrowdSetup(
        positions=np.array([position], dtype=float),
        goals=np.array([goal], dtype=float),
        comfort_speeds=np.array([comfort]),
        body_radii=np.array([0.25]),
    ))


def run_steps(state, params, count, dt=0.1):
    """Step one crowd ``count`` times, yielding its (N, 2) p, v and (N,) reached."""
    p, v, reached, setup = state
    coeffs = coefficients(params_to_genome(params)[None])
    rng = np.random.default_rng(0)
    for _ in range(count):
        p, v, reached = step(p, v, reached, setup, coeffs, dt, rng)
        yield p[:, 0].T, v[:, 0].T, reached[0]


def test_first_step_accelerates_from_rest():
    state = one_agent_state([0.0, 0.0], [10.0, 0.0], comfort=1.3)
    params = SocialForcesParams(relaxation_time=0.5)
    p, v, _ = next(run_steps(state, params, 1))
    # position lags by one step under explicit Euler; velocity picks up first
    assert np.array_equal(p, state[0][:, 0].T)
    assert v[0, 0] == pytest.approx(1.3 / 0.5 * 0.1)
    assert v[0, 1] == 0.0


def test_cruise_at_comfort_speed_is_an_equilibrium():
    state = one_agent_state([0.0, 0.0], [100.0, 0.0], comfort=1.3)
    state[1][:, 0, 0] = [1.3, 0.0]
    params = SocialForcesParams(relaxation_time=0.5)
    p, v, _ = next(run_steps(state, params, 1))
    assert np.allclose(v, [[1.3, 0.0]])
    assert np.allclose(p, [[0.13, 0.0]])


def test_head_on_pair_stays_mirror_symmetric_and_separated():
    params = SocialForcesParams(relaxation_time=0.5, repulsion_strength=8.0,
                                repulsion_range=0.8)
    state = at_rest(CrowdSetup(
        positions=np.array([[4.0, 0.0], [-4.0, 0.0]]),
        goals=np.array([[-4.0, 0.0], [4.0, 0.0]]),
        comfort_speeds=np.array([1.3, 1.3]),
        body_radii=np.array([0.25, 0.25]),
    ))
    min_gap = np.inf
    for p, _, _ in run_steps(state, params, 200):
        assert np.allclose(p[0], -p[1], atol=1e-12)
        min_gap = min(min_gap, float(np.linalg.norm(p[0] - p[1])))
    assert min_gap > 0.5  # strong repulsion keeps the discs apart


def test_speed_cap_limits_velocity():
    state = one_agent_state([0.0, 0.0], [50.0, 0.0], comfort=2.0)
    params = SocialForcesParams(relaxation_time=0.1, max_speed=1.0)
    for _, v, _ in run_steps(state, params, 30):
        assert np.linalg.norm(v[0]) <= 1.0 + 1e-12
    assert np.linalg.norm(v[0]) == pytest.approx(1.0)


def test_goal_hold_latches():
    state = one_agent_state([0.0, 0.0], [0.2, 0.0])  # already inside goal radius
    assert 0.2 < GOAL_RADIUS
    p, v, reached = next(run_steps(state, SocialForcesParams(), 1))
    assert np.array_equal(p, state[0][:, 0].T)
    assert np.all(v == 0.0)
    assert reached[0]


def test_simulated_walker_arrives_and_holds():
    crowd = simulate(Scenario(kind="circle", agent_count=1, radius=1.0, seed=3),
                     duration=5.0)
    P = crowd.positions[0]
    goal = crowd.goals[0]
    assert np.linalg.norm(P[-1] - goal) < GOAL_RADIUS + 0.05
    assert np.all(P[-5:] == P[-1])


def test_step_count_is_ceiling_of_duration():
    crowd = simulate(Scenario(kind="circle", agent_count=2, radius=4.0),
                     duration=1.25)
    assert crowd.n_steps == 13
    with pytest.raises(ConfigError):
        simulate(Scenario(kind="circle", agent_count=2, radius=4.0), duration=0.1)
    with pytest.raises(ConfigError):
        simulate(Scenario(kind="circle", agent_count=2, radius=4.0), duration=-1.0)
    nan, inf = float("nan"), float("inf")
    for bad in (dict(duration=nan), dict(duration=inf), dict(dt=nan), dict(dt=inf)):
        with pytest.raises(ConfigError, match="finite"):
            simulate(Scenario(kind="circle", agent_count=2, radius=4.0), **bad)


def test_simulate_is_deterministic_even_with_noise():
    sc = Scenario(kind="circle", agent_count=6, radius=4.0, seed=11)
    params = SocialForcesParams(noise_amplitude=0.5)
    a = simulate(sc, params, duration=4.0)
    b = simulate(sc, params, duration=4.0)
    assert np.array_equal(a.positions, b.positions)
    c = simulate(Scenario(kind="circle", agent_count=6, radius=4.0, seed=12),
                 params, duration=4.0)
    assert not np.array_equal(a.positions, c.positions)


def test_simulate_rejects_cap_below_comfort():
    with pytest.raises(ConfigError, match="below the largest comfort speed"):
        simulate(Scenario(kind="circle", agent_count=8, radius=4.0),
                 params=SocialForcesParams(max_speed=0.5), duration=3.0)


def test_simulate_records_setup_in_trajectory():
    sc = Scenario(kind="circle", agent_count=5, radius=4.0, seed=7)
    crowd = simulate(sc, duration=3.0)
    setup = make_scenario(sc)
    assert np.array_equal(crowd.goals, setup.goals)
    assert np.array_equal(crowd.comfort_speeds, setup.comfort_speeds)
    assert crowd.agent_ids.tolist() == list(range(5))
    P = crowd.positions
    assert np.allclose(crowd.velocities[:, 0], (P[:, 1] - P[:, 0]) / crowd.dt)


def test_repulsion_forces_pairwise():
    A, B = 2.0, 0.4
    params = SocialForcesParams(repulsion_strength=A, repulsion_range=B)
    _, strength, reach, _, _ = coefficients(params_to_genome(params)[None])
    gap = 1.0
    positions = planes([[[0.0, 0.0], [gap + 0.5, 0.0]]])
    radii = np.array([0.25, 0.25])
    forces = repulsion_forces(positions, radii, strength, reach)[:, 0].T
    expected = A * math.exp(-gap / B)
    assert forces[0, 0] == pytest.approx(-expected)
    assert forces[1, 0] == pytest.approx(expected)
    assert np.allclose(forces[:, 1], 0.0)
    assert np.allclose(forces[0], -forces[1])
    # zero strength or a single agent produce no force
    assert np.all(repulsion_forces(positions, radii, 0.0 * strength, reach) == 0.0)
    assert np.all(repulsion_forces(positions[..., :1], radii[:1], strength, reach) == 0.0)


def reference_repulsion_forces(p, radii, strength, reach):
    """Reference: the (P, N, 2) kernel with (P, 1, 1) coefficients that the planes replaced."""
    n = p.shape[1]
    active = np.count_nonzero(strength)
    if n < 2 or active == 0:
        return np.zeros_like(p)
    dp = p[:, :, None, :] - p[:, None, :, :]  # points from j to i
    dist = np.linalg.norm(dp, axis=-1)
    diagonal = np.arange(n)
    dist[:, diagonal, diagonal] = np.inf
    r_sum = radii[:, None] + radii[None, :]
    magnitude = strength * np.exp((r_sum - dist) / reach)
    direction = dp / np.maximum(dist, 1e-9)[..., None]
    forces = np.sum(magnitude[..., None] * direction, axis=-2)
    if active == strength.size:
        return forces
    return np.where(strength > 0.0, forces, 0.0)


def repulsion_instance(rng):
    """Seeded crowds for the kernel: P in 1..16, N in 2..40, distinct radii, some overlaps."""
    P, N = int(rng.integers(1, 17)), int(rng.integers(2, 41))
    side = rng.uniform(0.5, 1.5) * math.sqrt(N)  # m; the tighter boxes overlap discs
    points = rng.uniform(-side / 2, side / 2, size=(P, N, 2))
    radii = rng.uniform(0.15, 0.35, N)
    block = np.array([params_to_genome(SocialForcesParams())] * P)
    for col in (1, 2):  # repulsion_strength, repulsion_range
        block[:, col] = rng.uniform(*TUNE_BOUNDS[col], P)
    block[rng.random(P) < 0.25, 1] = 0.0
    return points, radii, coefficients(block)


@pytest.mark.parametrize("seed", range(4))
def test_plane_kernel_matches_reference_kernel(seed):
    # The planes sum over j in another order, so forces agree to rounding only.
    rng = np.random.default_rng(seed)
    for _ in range(60):
        points, radii, (_, strength, reach, _, _) = repulsion_instance(rng)
        forces = repulsion_forces(planes(points), radii, strength, reach)
        reference = reference_repulsion_forces(points, radii, strength[..., None], reach[..., None])
        np.testing.assert_allclose(planes(reference), forces, rtol=1e-12, atol=1e-12)
        assert np.all(forces[:, strength[:, 0] == 0.0] == 0.0)


def test_repulsion_row_blocks_are_exact(monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(40):
        points, radii, (_, strength, reach, _, _) = repulsion_instance(rng)
        p = planes(points)
        whole = repulsion_forces(p, radii, strength, reach)
        P, N = len(points), len(radii)
        for rows in (1, 3, N - 1):  # blocks of one row, ragged blocks, one short block
            monkeypatch.setattr(shares, "PAIR_BUDGET", rows * P * N)
            assert np.array_equal(repulsion_forces(p, radii, strength, reach), whole)
        monkeypatch.undo()


def test_params_file_round_trip(tmp_path):
    p = SocialForcesParams(relaxation_time=0.63, repulsion_strength=5.5,
                           repulsion_range=0.42, max_speed=3.1,
                           noise_amplitude=0.07)
    path = tmp_path / "params.txt"
    save_params(p, path)
    assert load_params(path) == p
    assert parse_params("") == SocialForcesParams()
    with pytest.raises(DataError, match="unknown parameter"):
        parse_params("gravity = 9.8\n")
    with pytest.raises(DataError, match="not a number"):
        parse_params("max_speed = fast\n")


MIXED_POPULATION = np.array([
    # relaxation_time, repulsion_strength, repulsion_range, max_speed, noise_amplitude
    [0.5, 2.1, 0.35, 2.5, 0.0],
    [0.8, 0.0, 0.2, 3.0, 0.7],
    [0.3, 5.0, 0.6, 2.2, 1.2],
    # relaxation shorter than dt overshoots comfort speed into the cap
    [0.04, 6.0, 0.9, 2.0, 0.0],
    [1.7, 0.0, 0.05, 4.0, 0.0],
])


@pytest.mark.parametrize("pairs_per_chunk", [None, 1, 2, 0.125, 0.625])
def test_population_matches_per_genome_simulate(monkeypatch, pairs_per_chunk):
    sc = Scenario(kind="circle", agent_count=8, radius=2.5, seed=3)
    separate = [simulate(sc, genome_to_params(g), duration=4.0) for g in MIXED_POPULATION]
    if pairs_per_chunk is not None:
        # budgets below P * N^2 split the population into chunks of 1 and 2 genomes;
        # below N^2 each crowd's repulsion also goes in blocks of 1 and 5 agent rows
        monkeypatch.setattr(shares, "PAIR_BUDGET", int(pairs_per_chunk * 64))
    together = list(simulate_population(sc, MIXED_POPULATION, duration=4.0))
    assert len(together) == len(MIXED_POPULATION)
    for one, batched in zip(separate, together):
        for name in ("positions", "velocities", "speeds", "headings", "goals",
                     "comfort_speeds", "body_radii"):
            assert np.array_equal(getattr(one, name), getattr(batched, name)), name
    capped = separate[3]
    assert capped.speeds.max() == pytest.approx(2.0)


def test_population_step_matches_per_genome_steps():
    sc = Scenario(kind="random", agent_count=6, area=(4.0, 4.0), seed=2)
    setup = make_scenario(sc)
    rng = np.random.default_rng(8)
    P = len(MIXED_POPULATION)
    p = planes(np.repeat(setup.positions[None], P, axis=0))
    v = planes(rng.normal(0.0, 1.0, size=(P, 6, 2)))
    reached = np.zeros((P, 6), bool)
    coeffs = coefficients(MIXED_POPULATION)
    out = step(p, v, reached, setup, coeffs, 0.1, np.random.default_rng(1))
    forces = repulsion_forces(p, setup.body_radii, coeffs[1], coeffs[2])
    for k in range(P):
        crowd = np.s_[..., k:k + 1, :]  # crowd k of a (P, N) or (2, P, N) array
        one = coefficients(MIXED_POPULATION[k:k + 1])
        expected = step(p[crowd].copy(), v[crowd].copy(), reached[crowd], setup, one,
                        0.1, np.random.default_rng(1))
        for batched, single in zip(out, expected):
            assert np.array_equal(batched[crowd], single)
        assert np.array_equal(forces[crowd],
                              repulsion_forces(p[crowd], setup.body_radii, one[1], one[2]))


def test_population_rejects_cap_below_comfort():
    sc = Scenario(kind="circle", agent_count=8, radius=4.0)
    slow = MIXED_POPULATION[:2].copy()
    slow[1, PARAM_NAMES.index("max_speed")] = 0.5
    with pytest.raises(ConfigError, match="max_speed 0.5 below the largest comfort speed"):
        list(simulate_population(sc, slow, duration=3.0))
    noisy = MIXED_POPULATION[:2].copy()
    noisy[1, PARAM_NAMES.index("noise_amplitude")] = -1.0
    with pytest.raises(ConfigError, match="noise_amplitude must be finite and >= 0, got -1.0"):
        list(simulate_population(sc, noisy, duration=3.0))
    with pytest.raises(ConfigError, match="parameter block"):
        list(simulate_population(sc, MIXED_POPULATION[:, :4], duration=3.0))
