"""Command-line interface.

One executable with subcommands covering the full pipeline: fit-reference,
train-weights, score, features, degrade, simulate and tune.  Exit codes:
0 success, 1 usage error, 2 data/validation error, 3 configuration error.
Every run writes a manifest recording the resolved invocation so results can
be reproduced bit-for-bit.
"""

from __future__ import annotations

import argparse
import functools
import shlex
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .csvio import load_trajectory_csv, save_trajectory_csv, write_csv
from .errors import ConfigError, DataError
from .features import FD_BIN_WIDTH, FEATURE_CODES, GRANULARITY, extract
from .genetic import ELITES, PLATEAU_EPSILON, GaConfig
from .keyvalue import write_keyvalue
from .quality import (
    default_weights,
    fit_reference_from_crowds,
    load_reference_stats,
    load_weights,
    save_reference_stats,
    save_weights,
    score,
)
from .simulator import (
    SCENARIO_KINDS,
    Scenario,
    SocialForcesParams,
    load_params,
    save_params,
    simulate,
)
from .training import (AUTO_DEGRADE_MODES, DEGRADE_MODES, build_training_set, degrade,
                       train_weights)
from .trajectory import CANONICAL_DT, to_canonical
from .tuning import TUNE_MODES, TuneConfig, quartile, tune


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=_int_at_least(0), default=0, help="random seed (default 0)")
    sp.add_argument(
        "--threads", type=_int_at_least(1), default=1,
        help="accepted for compatibility, at least 1, and recorded in the manifest "
        "only; tune's generations and the pairwise feature pass run one forked "
        "worker per CPU the process may use",
    )
    sp.add_argument(
        "--manifest", default=None, help="manifest path (default: <output>.manifest.txt)"
    )


def _add_ga_flags(sp: argparse.ArgumentParser) -> None:
    """The GA's budget; its breeding settings are constants of ``genetic``."""
    d = GaConfig()
    low = ELITES + 1
    sp.add_argument("--population", type=_int_at_least(low), default=d.population_size,
                    help=f"genomes per generation, at least {low} (default %(default)s)")
    sp.add_argument("--generations", type=_int_at_least(1), default=d.max_generations,
                    help="generation limit (default %(default)s)")
    sp.add_argument("--plateau", type=_int_at_least(1), default=d.plateau_generations,
                    help="stop when this many generations improve the best fitness by "
                    f"less than {PLATEAU_EPSILON:g} (default %(default)s)")


def _ga_config(args) -> GaConfig:
    return GaConfig(population_size=args.population, max_generations=args.generations,
                    seed=args.seed, plateau_generations=args.plateau)


def _add_scenario_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--kind", choices=SCENARIO_KINDS, default="circle")
    sp.add_argument("--agents", type=int, default=20)
    sp.add_argument("--radius", type=float, default=8.0,
                    help="circle radius / crossing approach distance (m)")
    sp.add_argument("--area", type=float, nargs=2, default=(12.0, 12.0),
                    metavar=("W", "H"), help="random-kind rectangle extents (m)")
    sp.add_argument("--angle", type=float, default=90.0,
                    help="crossing flows' direction difference (degrees)")
    sp.add_argument("--density", type=float, default=None,
                    help="target density (persons/m^2), overrides radius/area")


def _scenario(args, seed: int) -> Scenario:
    return Scenario(
        kind=args.kind,
        agent_count=args.agents,
        radius=args.radius,
        area=tuple(args.area),
        angle_deg=args.angle,
        density_target=args.density,
        seed=seed,
    )


# Default names of the CSVs this package writes that are not trajectories;
# score and features write theirs next to the trajectory they read, so a crowd
# directory skips them.
_NOT_TRAJECTORIES = (".breakdown.csv", ".features.csv", ".history.csv")
_SKIPPED = " (skips *.breakdown.csv, *.features.csv and *.history.csv)"


@functools.cache  # argparse only reads a parser, and a build costs about 1 ms
def build_parser() -> _Parser:
    parser = _Parser(prog="crowdscore",
                     description="Perceptual quality scoring of crowd trajectories.")
    parser.add_argument("--version", action="version", version=f"crowdscore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    sp = sub.add_parser("fit-reference", help="fit reference stats from golden CSVs")
    sp.add_argument("--golden", required=True,
                    help="directory of golden trajectory CSVs" + _SKIPPED)
    sp.add_argument("--out", required=True, help="output stats file")
    sp.add_argument("--bin-width", type=float, default=FD_BIN_WIDTH,
                    help="fundamental-diagram density bin width")
    _add_common(sp)
    sp.set_defaults(func=_cmd_fit_reference)

    sp = sub.add_parser("train-weights", help="train feature weights on labeled crowds")
    sp.add_argument("--golden", required=True,
                    help="directory of golden trajectory CSVs" + _SKIPPED)
    sp.add_argument("--degraded", default=None,
                    help="directory of degraded CSVs (target 0)" + _SKIPPED)
    sp.add_argument("--auto-degrade", action="store_true",
                    help="derive degraded examples from the golden crowds "
                    f"(modes: {', '.join(AUTO_DEGRADE_MODES)})")
    sp.add_argument("--stats", default=None,
                    help="reference stats file (default: fitted from the golden set)")
    sp.add_argument("--initial-weights", default=None,
                    help="weights file seeded into the first population")
    sp.add_argument("--out", required=True, help="output weights file")
    sp.add_argument("--history", default=None,
                    help="fitness history CSV (default: <out>.history.csv)")
    _add_ga_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_train_weights)

    sp = sub.add_parser("score", help="score a trajectory CSV")
    sp.add_argument("--trajectory", required=True)
    sp.add_argument("--stats", required=True, help="reference stats file")
    sp.add_argument("--weights", default=None, help="weights file (default: built-in)")
    sp.add_argument("--window", type=float, nargs=2, metavar=("START", "STOP"),
                    default=None, help="score only [START, STOP) seconds")
    sp.add_argument("--breakdown", default=None,
                    help="per-feature breakdown CSV (default: <trajectory>.breakdown.csv)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_score)

    sp = sub.add_parser("features", help="dump all feature samples as CSV")
    sp.add_argument("--trajectory", required=True)
    sp.add_argument("--stats", default=None,
                    help="stats file supplying the fundamental-diagram curve")
    sp.add_argument("--out", default=None,
                    help="output CSV (default: <trajectory>.features.csv)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_features)

    sp = sub.add_parser("degrade", help="write a deliberately damaged trajectory")
    sp.add_argument("--trajectory", required=True)
    sp.add_argument("--mode", required=True, choices=DEGRADE_MODES)
    sp.add_argument("--amplitude", type=float, default=None, help="jitter: rad per step")
    sp.add_argument("--factor", type=float, default=None, help="speed-scale: multiplier")
    sp.add_argument("--fraction", type=float, default=None, help="freeze: share of agents")
    sp.add_argument("--out", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_degrade)

    sp = sub.add_parser("simulate", help="run the social-forces simulator")
    _add_scenario_flags(sp)
    sp.add_argument("--params", default=None, help="simulator parameter file")
    sp.add_argument("--duration", type=float, default=20.0)
    sp.add_argument("--dt", type=float, default=0.1)
    sp.add_argument("--out", required=True, help="output trajectory CSV")
    _add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("tune", help="search simulator parameters maximizing the score")
    _add_scenario_flags(sp)
    sp.add_argument("--mode", choices=TUNE_MODES, default="single")
    sp.add_argument("--scenario-seed", type=_int_at_least(0), default=None,
                    help="scenario seed (default: --seed)")
    sp.add_argument("--stats", required=True)
    sp.add_argument("--weights", default=None, help="weights file (default: built-in)")
    sp.add_argument("--duration", type=float, default=20.0)
    sp.add_argument("--initial-params", default=None,
                    help="parameter file seeding the whole starting population")
    sp.add_argument("--out", required=True, help="output parameter file")
    sp.add_argument("--history", default=None,
                    help="score history CSV (default: <out>.history.csv)")
    sp.add_argument("--out-trajectory", default=None,
                    help="best trajectory CSV (default: <out>.best.csv)")
    _add_ga_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_tune)

    return parser


# --- output helpers ---


def _write_manifest(args, primary_out) -> None:
    path = args.manifest or f"{primary_out}.manifest.txt"
    items = [
        ("subcommand", args.command),
        ("argv", shlex.join(args.argv_full)),
        ("version", __version__),
    ]
    skip = {"func", "command", "argv_full", "manifest"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        items.append((f"flag.{key.replace('_', '-')}", str(value)))
    write_keyvalue(path, items)


def _write_history_csv(path, column: str, values) -> None:
    write_csv(path, ("generation", column),
              (f"{gen},{float(value)!r}" for gen, value in enumerate(values)))


def _simulate_finite(scenario: Scenario, params: SocialForcesParams, duration: float, dt: float):
    """``simulate``, with a ConfigError when the integration overflows."""
    with np.errstate(all="ignore"):  # a blow-up is rejected below
        crowd = simulate(scenario, params, duration, dt)
    if not np.isfinite(crowd.positions).all():
        raise ConfigError("simulated positions are not finite: the integration overflowed")
    return crowd


def _load_crowd_dir(directory, what: str):
    files = [f for f in sorted(Path(directory).glob("*.csv"))
             if not f.name.endswith(_NOT_TRAJECTORIES)]
    if not files:
        raise DataError(f"{directory}: no {what} trajectory CSVs found")
    return [to_canonical(load_trajectory_csv(f)) for f in files]


# --- subcommand handlers ---


def _cmd_fit_reference(args) -> None:
    crowds = _load_crowd_dir(args.golden, "golden")
    stats = fit_reference_from_crowds(crowds, fd_bin_width=args.bin_width)
    save_reference_stats(stats, args.out)
    _write_manifest(args, args.out)


def _cmd_train_weights(args) -> None:
    golden = _load_crowd_dir(args.golden, "golden")
    if args.stats:
        stats = load_reference_stats(args.stats)
    else:
        stats = fit_reference_from_crowds(golden)

    degraded = []
    if args.degraded:
        degraded.extend(_load_crowd_dir(args.degraded, "degraded"))
    if args.auto_degrade:
        for i, crowd in enumerate(golden):
            for m, mode in enumerate(AUTO_DEGRADE_MODES):
                degraded.append(degrade(crowd, mode, seed=args.seed + 97 * i + m))
    if not degraded:
        raise DataError(
            "no degraded examples: pass --degraded DIR or --auto-degrade "
            "(training on golden data alone collapses to all-zero weights)"
        )

    costs, targets = build_training_set(golden, degraded, stats)
    initial = load_weights(args.initial_weights).vector() if args.initial_weights else None
    weights, result = train_weights(costs, targets, _ga_config(args), initial=initial)
    save_weights(weights, args.out)
    history_path = args.history or f"{args.out}.history.csv"
    _write_history_csv(history_path, "best_fitness", result.history)
    _write_manifest(args, args.out)
    print(f"best_fitness={result.best_fitness:.4f}")


def _cmd_score(args) -> None:
    crowd = load_trajectory_csv(args.trajectory)
    stats = load_reference_stats(args.stats)
    weights = load_weights(args.weights) if args.weights else default_weights()
    window = tuple(args.window) if args.window else None
    quality = score(crowd, stats, weights, window=window)

    breakdown = args.breakdown or f"{args.trajectory}.breakdown.csv"
    write_csv(breakdown, ("feature", "cost", "weight", "contribution"),
              (f"{code},{quality.per_feature_cost[code]!r},{weights.omega[code]!r},"
               f"{quality.per_feature_contribution[code]!r}" for code in FEATURE_CODES))
    _write_manifest(args, breakdown)
    print(f"S_QF={quality.total:.4f}")


def _cmd_features(args) -> None:
    crowd = to_canonical(load_trajectory_csv(args.trajectory))
    curve = load_reference_stats(args.stats).fd_curve if args.stats else None
    sample_map = extract(crowd, curve)

    out = args.out or f"{args.trajectory}.features.csv"
    ids, times = crowd.agent_ids.tolist(), [repr(t) for t in crowd.times().tolist()]
    # The agent and time fields of each granularity, formatted once, in the
    # agent-major order of the raveled samples; empty where it has no such axis.
    keys = {"per-agent-time": [f"{a},{t}," for a in ids for t in times],
            "per-agent": [f"{a},," for a in ids], "per-time": [f",{t}," for t in times]}
    write_csv(out, ("feature", "agent_id", "t", "value"),
              (f"{code},{key}{value!r}" for code in FEATURE_CODES
               for key, value in zip(keys[GRANULARITY[code]], sample_map[code].ravel().tolist())))
    _write_manifest(args, out)


def _cmd_degrade(args) -> None:
    crowd = load_trajectory_csv(args.trajectory)
    damaged = degrade(crowd, args.mode, seed=args.seed, amplitude=args.amplitude,
                      factor=args.factor, fraction=args.fraction)
    save_trajectory_csv(damaged, args.out)
    _write_manifest(args, args.out)


def _cmd_simulate(args) -> None:
    params = load_params(args.params) if args.params else SocialForcesParams()
    crowd = _simulate_finite(_scenario(args, args.seed), params, args.duration, args.dt)
    save_trajectory_csv(crowd, args.out)
    _write_manifest(args, args.out)


def _cmd_tune(args) -> None:
    stats = load_reference_stats(args.stats)
    weights = load_weights(args.weights) if args.weights else default_weights()
    scenario_seed = args.scenario_seed if args.scenario_seed is not None else args.seed
    scenario = _scenario(args, scenario_seed)
    config = TuneConfig(
        scenario=scenario,
        mode=args.mode,
        duration=args.duration,
        ga=_ga_config(args),
        initial_params=load_params(args.initial_params) if args.initial_params else None,
    )
    result = tune(config, stats, weights)
    best = _simulate_finite(scenario, result.p_opt, args.duration, CANONICAL_DT)

    save_params(result.p_opt, args.out)
    history_path = args.history or f"{args.out}.history.csv"
    _write_history_csv(history_path, "best_score", result.best_score_history)
    save_trajectory_csv(best, args.out_trajectory or f"{args.out}.best.csv")
    _write_manifest(args, args.out)
    final = result.best_score_history[-1]
    print(f"S_QF={final:.4f}")
    print(f"quartile={quartile(final)}")


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv_full = argv
    try:
        # A float overflow, or an inf - inf or 0/0 it leads to, means the
        # input's values are too large to compute with; underflow is routine
        # (the Gaussian cost of a far-off sample).
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            args.func(args)
        return 0
    except FloatingPointError as exc:
        print(f"crowdscore: data error: values too large to compute with ({exc})",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"crowdscore: configuration error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ValueError, OSError) as exc:
        print(f"crowdscore: data error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(run())
