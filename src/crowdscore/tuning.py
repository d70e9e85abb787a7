"""Simulator parameter tuning by score maximization.

The tuner runs the genetic engine over the social-forces parameter box
``TUNE_BOUNDS`` with fitness 1 - quality score of the simulated scenario.
Generic mode re-seeds the scenario every generation so the winning parameters
cannot overfit one spawn layout; the mutation scale shrinks by
``EXPLORATION_DECAY`` each generation, giving the shrinking exploration rate.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import features
from .errors import ConfigError
from .genetic import GaConfig, GaResult, ga_optimize
from .quality import ReferenceStats, WeightVector, score
from .simulator import (
    TUNE_BOUNDS,
    Scenario,
    SocialForcesParams,
    genome_to_params,
    params_to_genome,
    simulate_population,
)

TUNE_MODES = ("single", "generic")

QUARTILE_EDGES = (0.225, 0.45, 0.675)  # even split of the [0, 0.9) range

EXPLORATION_DECAY = 0.97  # per-generation factor on the GA's mutation scale


@dataclass
class TuneConfig:
    scenario: Scenario
    mode: str = "single"
    duration: float = 20.0
    ga: GaConfig = field(default_factory=GaConfig)
    initial_params: SocialForcesParams | None = None  # seeds the whole population

    def __post_init__(self) -> None:
        if self.mode not in TUNE_MODES:
            raise ConfigError(f"unknown tune mode {self.mode!r}, expected {TUNE_MODES}")
        if not 0 < self.duration < math.inf:
            raise ConfigError(f"duration must be finite and > 0, got {self.duration}")


@dataclass
class TuneResult:
    p_opt: SocialForcesParams
    best_score_history: list[float]  # non-decreasing, best score so far
    ga: GaResult


def tune(
    config: TuneConfig,
    stats: ReferenceStats,
    weights: WeightVector,
) -> TuneResult:
    """Search simulator parameters maximizing the quality score.

    All agents share one parameter set.  The new genomes of a generation are
    cut into contiguous shares, one per usable CPU (see ``_in_shares``); the
    genomes of a share are simulated together and their crowds scored one at
    a time.  Genomes producing non-finite scores (integration blow-ups) are
    assigned the worst fitness instead of aborting the search.
    """
    scenario = config.scenario

    def evaluate(population: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):  # a blow-up ends with the worst fitness
            values = 1.0 - np.array([
                score(crowd, stats, weights).total
                for crowd in simulate_population(scenario, population, config.duration)
            ])
        return np.where(np.isfinite(values), values, 1.0)

    on_generation = None
    if config.mode == "generic":

        def on_generation(gen: int) -> None:
            nonlocal scenario
            seed = np.random.default_rng([config.ga.seed, gen]).integers(0, 2**31, size=1)[0]
            scenario = replace(config.scenario, seed=int(seed))

    initial = None
    if config.initial_params is not None:
        # Tile the starting guess across the whole population; mutation alone
        # reintroduces diversity, so tuning degrades gracefully from any seed.
        initial = np.tile(
            params_to_genome(config.initial_params), (config.ga.population_size, 1)
        )

    result = ga_optimize(
        lambda population: _in_shares(evaluate, population),
        TUNE_BOUNDS,
        config.ga,
        mutation_decay=EXPLORATION_DECAY,
        initial=initial,
        on_generation=on_generation,
    )
    return TuneResult(
        p_opt=genome_to_params(result.best_genome),
        best_score_history=[1.0 - f for f in result.history],
        ga=result,
    )


def _cpus() -> list[int]:
    """The CPUs this thread may run on, in ascending order."""
    return sorted(os.sched_getaffinity(0))


def _in_shares(evaluate, population: np.ndarray) -> np.ndarray:
    """``evaluate(population)``, computed in k contiguous shares at once.

    k is the least of the rows, ``_cpus()`` and ``features._MAX_WORKERS``.
    Shares 1..k-1 each run in a forked child pinned to its own CPU; share 0
    runs here, pinned to the first CPU until the children are reaped, so each
    crowd's pairwise pass gets one worker and no CPU runs two.  With fewer
    than 2 rows, without ``os.fork`` or CPU affinity, or while another Python
    thread is alive (forking under it is unsafe), k is 1 and this is a plain
    call.  A child that fails or sends a short payload has its share run again
    here: ``evaluate`` is deterministic, so its error is raised here with a
    normal traceback.  If this caller raises, it kills its children first.
    Each crowd is ``simulate`` of its row bit for bit whatever share it lands
    in, so the values do not depend on k.  Forked, not spawned: a fresh
    interpreter's imports would cost more than a generation's scoring.
    """
    forkable = hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
    if len(population) < 2 or not forkable or threading.active_count() > 1:
        return evaluate(population)
    cpus = _cpus()[: min(len(population), features._MAX_WORKERS)]
    if len(cpus) < 2:
        return evaluate(population)

    shares = np.array_split(population, len(cpus))
    mask = os.sched_getaffinity(0)
    children = []  # (pid, read end of its pipe), in share order
    payloads, failed = [], []
    try:
        for cpu, share in zip(cpus[1:], shares[1:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(evaluate, share, cpu, write)
            os.close(write)
            children.append((pid, read))
        os.sched_setaffinity(0, {cpus[0]})
        values = [evaluate(shares[0])]
        for _, read in children:
            chunks = []
            while chunk := os.read(read, 1 << 16):
                chunks.append(chunk)
            payloads.append(b"".join(chunks))
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.sched_setaffinity(0, mask)
        for pid, read in children:
            os.close(read)
            failed.append(os.waitpid(pid, 0)[1] != 0)
    for share, payload, fail in zip(shares[1:], payloads, failed):
        if fail or len(payload) != 8 * len(share):
            values.append(evaluate(share))
        else:
            values.append(np.frombuffer(payload))
    return np.concatenate(values)


def _child(evaluate, share: np.ndarray, cpu: int, write: int) -> None:
    """Body of a forked share: pin to ``cpu``, write ``evaluate(share)`` as
    float64 bytes to the pipe end ``write`` and leave, exit status 0 only when
    all of it was written.  Nothing it raises reaches the caller's code."""
    status = 1
    try:
        os.sched_setaffinity(0, {cpu})
        payload = memoryview(np.asarray(evaluate(share), dtype=np.float64).tobytes())
        while payload:
            payload = payload[os.write(write, payload) :]
        status = 0
    finally:
        os._exit(status)


def quartile(score: float) -> str:
    """Quality quartile label Q1 (worst) .. Q4 (best), left-closed buckets."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0,1], got {score}")
    for label, edge in zip(("Q1", "Q2", "Q3"), QUARTILE_EDGES):
        if score < edge:
            return label
    return "Q4"
