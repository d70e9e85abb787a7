"""Session fixtures: a seeded golden simulation world shared across tests.

The golden world is a 12-agent antipodal circle run with strong, long-range
repulsion and a little acceleration noise.  Those runs are collision-free for
every seed used here (asserted in the acceptance suite) and give the reference
statistics that the scoring, training and tuning tests build on.
"""

import os

import pytest

from crowdscore.quality import default_weights, fit_reference_from_crowds
from crowdscore.simulator import Scenario, SocialForcesParams, simulate

from helpers import assert_no_child_and_affinity

GOLDEN_PARAMS = SocialForcesParams(
    relaxation_time=0.8,
    repulsion_strength=6.0,
    repulsion_range=1.2,
    noise_amplitude=0.2,
)
GOLDEN_AGENTS = 12
GOLDEN_RADIUS = 6.5
GOLDEN_DURATION = 11.0
GOLDEN_SEEDS = tuple(range(100, 120))
HELDOUT_SEEDS = tuple(range(500, 505))
# Scoring window in seconds: skips the standing-start ramp and the final
# goal-hold tail so the stats describe the cruising-and-crossing phase.
GOLDEN_WINDOW = (2.5, 9.0)


@pytest.fixture
def affinity():
    """The CPU affinity a test found; the test must leave no child process
    and that affinity again (modules that fork use it on every test)."""
    found = os.sched_getaffinity(0)
    yield found
    assert_no_child_and_affinity(found)


def golden_sim(seed):
    scenario = Scenario(kind="circle", agent_count=GOLDEN_AGENTS,
                        radius=GOLDEN_RADIUS, seed=seed)
    return simulate(scenario, GOLDEN_PARAMS, GOLDEN_DURATION)


@pytest.fixture(scope="session")
def golden_crowds():
    return [golden_sim(seed) for seed in GOLDEN_SEEDS]


@pytest.fixture(scope="session")
def heldout_crowds():
    return [golden_sim(seed) for seed in HELDOUT_SEEDS]


@pytest.fixture(scope="session")
def golden_stats(golden_crowds):
    lo = int(GOLDEN_WINDOW[0] * 10)
    hi = int(GOLDEN_WINDOW[1] * 10)
    return fit_reference_from_crowds([c.window(lo, hi) for c in golden_crowds])


@pytest.fixture(scope="session")
def table_weights():
    return default_weights()


# The acceptance tests push one verdict line apiece through this list; the
# terminal-summary hook reprints them after capture ends so the pass/fail
# lines are visible in plain `pytest` output.
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    def record(name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}" + (f": {detail}" if detail else "")
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
