"""End-to-end command-line runs: exit codes, outputs, reproducibility."""

import argparse
import codecs
import csv
import errno
import io
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import crowdscore
from crowdscore import features
from crowdscore.cli import build_parser, run
from crowdscore.csvio import load_trajectory_csv
from crowdscore.features import FEATURE_CODES
from crowdscore.quality import default_weights, load_weights, save_weights
from crowdscore.simulator import SocialForcesParams, load_params, save_params
from crowdscore.training import AUTO_DEGRADE_MODES


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Golden dir with two small runs, fitted stats, and a sample CSV."""
    root = tmp_path_factory.mktemp("cli")
    golden = root / "golden"
    golden.mkdir()
    for seed in (0, 1):
        code = run(["simulate", "--kind", "circle", "--agents", "5",
                    "--radius", "4.0", "--duration", "3.0",
                    "--seed", str(seed), "--out", str(golden / f"run{seed}.csv")])
        assert code == 0
    stats = root / "stats.txt"
    assert run(["fit-reference", "--golden", str(golden),
                "--out", str(stats)]) == 0
    return {"root": root, "golden": golden, "stats": stats,
            "sample": golden / "run0.csv"}


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.startswith("crowdscore ")


def test_usage_errors_exit_1(capsys):
    assert run([]) == 1
    assert run(["simulate", "--no-such-flag"]) == 1
    assert run(["score"]) == 1  # missing required arguments
    capsys.readouterr()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(tmp_path, workspace, capsys, threads):
    assert run(["score", "--trajectory", str(workspace["sample"]),
                "--stats", str(workspace["stats"]), "--threads", threads,
                "--breakdown", str(tmp_path / "b.csv")]) == 1
    assert "--threads: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("command,flag", [
    ("fit-reference", "--seed"), ("train-weights", "--seed"), ("score", "--seed"),
    ("features", "--seed"), ("degrade", "--seed"), ("simulate", "--seed"),
    ("tune", "--seed"), ("tune", "--scenario-seed"),
])
def test_a_negative_seed_is_a_usage_error(tmp_path, workspace, capsys, command, flag):
    sample, stats = str(workspace["sample"]), str(workspace["stats"])
    argv = {
        "fit-reference": ["--golden", str(workspace["golden"])],
        "train-weights": ["--golden", str(workspace["golden"]), "--auto-degrade"],
        "score": ["--trajectory", sample, "--stats", stats,
                  "--breakdown", str(tmp_path / "b.csv")],
        "features": ["--trajectory", sample],
        "degrade": ["--trajectory", sample, "--mode", "jitter"],
        "simulate": ["--agents", "3", "--duration", "1.0"],
        "tune": ["--agents", "3", "--duration", "1.0", "--stats", stats,
                 "--population", "4", "--generations", "1"],
    }[command]
    if command != "score":
        argv += ["--out", str(tmp_path / "out.txt")]
    assert run([command, *argv, flag, "-1", "--manifest", str(tmp_path / "m.txt")]) == 1
    assert f"{flag}: must be at least 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _ga_argv(command, workspace, tmp_path):
    """A runnable train-weights or tune argv that writes only into tmp_path."""
    stats = str(workspace["stats"])
    argv = {"train-weights": ["--golden", str(workspace["golden"]), "--auto-degrade",
                              "--stats", stats],
            "tune": ["--agents", "3", "--duration", "1.0", "--stats", stats]}[command]
    return [command, *argv, "--population", "4", "--generations", "1",
            "--out", str(tmp_path / "out.txt")]


@pytest.mark.parametrize("command", ["train-weights", "tune"])
@pytest.mark.parametrize("flag,value,low", [
    ("--population", "2", 3), ("--generations", "0", 1), ("--plateau", "0", 1),
])
def test_ga_flags_below_their_bound_are_usage_errors(tmp_path, workspace, capsys,
                                                     command, flag, value, low):
    # --population must leave room for the genetic.ELITES = 2 elite genomes
    assert run(_ga_argv(command, workspace, tmp_path) + [flag, value]) == 1
    assert f"{flag}: must be at least {low}, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flag,value", [
    (command, flag, value) for command in ("train-weights", "tune")
    for flag, value in (("--crossover-rate", "0.5"), ("--mutation-rate", "0.2"),
                        ("--mutation-scale", "0.2"), ("--elitism", "1"),
                        ("--plateau-epsilon", "0.001"))
] + [("tune", "--decay", "0.9"), ("train-weights", "--degrade-modes", "jitter")])
def test_removed_ga_flags_are_unrecognized(tmp_path, workspace, capsys, command, flag, value):
    assert run(_ga_argv(command, workspace, tmp_path) + [flag, value]) == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_each_subcommand_has_its_pinned_options():
    """A flag added or removed anywhere must come with an edit here."""
    common = {"--help", "--seed", "--threads", "--manifest"}
    scenario = {"--kind", "--agents", "--radius", "--area", "--angle", "--density"}
    ga = {"--population", "--generations", "--plateau"}
    expected = {
        "fit-reference": common | {"--golden", "--out", "--bin-width"},
        "train-weights": common | ga | {"--golden", "--degraded", "--auto-degrade", "--stats",
                                        "--initial-weights", "--out", "--history"},
        "score": common | {"--trajectory", "--stats", "--weights", "--window", "--breakdown"},
        "features": common | {"--trajectory", "--stats", "--out"},
        "degrade": common | {"--trajectory", "--mode", "--amplitude", "--factor", "--fraction",
                             "--out"},
        "simulate": common | scenario | {"--params", "--duration", "--dt", "--out"},
        "tune": common | scenario | ga | {"--mode", "--scenario-seed", "--stats", "--weights",
                                          "--duration", "--initial-params", "--out",
                                          "--history", "--out-trajectory"},
    }
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    found = {name: {option for action in sp._actions for option in action.option_strings
                    if option.startswith("--")}
             for name, sp in subparsers.choices.items()}
    assert found == expected


def test_worker_count_changes_no_output(tmp_path, monkeypatch, capsys):
    """Every subcommand that extracts features writes the same bytes on one
    CPU and on two: on 60-agent crowds whose pairwise pass takes 3 chunks on
    one worker and 4 on two, and with a budget of half a step, where it takes
    blocks of 30 agent rows; and on 150-agent crowds at the real budget, in
    10 chunks of 2 steps."""

    def pipeline(cpus, budget=features._PAIR_BUDGET, agents=60, radius=6.0, duration=4.0):
        monkeypatch.setattr(features, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(features, "_PAIR_BUDGET", budget)
        root = tmp_path / f"cpus{cpus}-pairs{budget}-agents{agents}"
        (root / "golden").mkdir(parents=True)
        monkeypatch.chdir(root)
        circle = ["--kind", "circle", "--agents", str(agents), "--radius", str(radius),
                  "--duration", str(duration)]
        commands = [
            ["simulate", *circle, "--seed", "0", "--out", "golden/run0.csv"],
            ["simulate", *circle, "--seed", "1", "--out", "golden/run1.csv"],
            ["fit-reference", "--golden", "golden", "--out", "stats.txt"],
            ["score", "--trajectory", "golden/run0.csv", "--stats", "stats.txt",
             "--breakdown", "breakdown.csv"],
            ["features", "--trajectory", "golden/run1.csv", "--stats", "stats.txt",
             "--out", "features.csv"],
            ["train-weights", "--golden", "golden", "--auto-degrade", "--population", "8",
             "--generations", "2", "--out", "weights.txt"],
            ["tune", *circle, "--stats", "stats.txt", "--population", "4",
             "--generations", "2", "--out", "params.txt"],
        ]
        for argv in commands:
            assert run(argv) == 0, argv
        files = {p.relative_to(root).as_posix(): p.read_bytes()
                 for p in sorted(root.rglob("*")) if p.is_file()}
        return files, capsys.readouterr()

    dense = {"agents": 150, "radius": 20.0, "duration": 2.0}
    for serial, others in (
        (pipeline(1), [pipeline(2), pipeline(2, budget=30 * 60)]),
        (pipeline(1, **dense), [pipeline(2, **dense)]),
    ):
        assert len(serial[0]) == 17
        for other in others:
            assert set(other[0]) == set(serial[0])
            for name, data in serial[0].items():
                assert other[0][name] == data, name
            assert other[1] == serial[1]  # stdout and stderr


def test_a_refused_fork_runs_its_share_in_the_caller(tmp_path, workspace, monkeypatch, capsys,
                                                     affinity):
    """With ``os.fork`` refusing every call (EAGAIN, as when the process limit
    is reached), tune on 2 CPUs runs each share of its generations and of its
    60-agent pairwise passes in the calling process: it exits 0 and writes
    the bytes of a run whose forks succeed.  The refusing fork starts no
    process."""
    monkeypatch.setattr(features, "usable_cpus", lambda: 2)

    def tune(name):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert run(["tune", "--kind", "circle", "--agents", "60", "--radius", "6.0",
                    "--duration", "4.0", "--stats", str(workspace["stats"]),
                    "--population", "4", "--generations", "2", "--out", "params.txt"]) == 0
        files = {p.name: p.read_bytes() for p in sorted(Path().iterdir())}
        return files, capsys.readouterr()

    forked = tune("forked")
    refused = []

    def refusing_fork():
        refused.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", refusing_fork)
    assert tune("refused") == forked
    assert len(forked[0]) == 4  # params, history, best CSV, manifest
    assert refused


def _sample_with_x(workspace, path, value):
    """The workspace sample with the x of one row replaced by ``value``."""
    lines = workspace["sample"].read_text().splitlines()
    fields = lines[5].split(",")
    fields[2] = value  # the x column
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return path


def test_non_finite_trajectory_exits_2(tmp_path, workspace, capsys):
    bad = _sample_with_x(workspace, tmp_path / "nan.csv", "nan")
    assert run(["score", "--trajectory", str(bad), "--stats", str(workspace["stats"]),
                "--breakdown", str(tmp_path / "b.csv")]) == 2
    captured = capsys.readouterr()
    assert "non-finite 'x'" in captured.err
    assert "S_QF" not in captured.out


INPUT_OPTIONS = ["--trajectory", "--stats", "--weights", "--params"]


def _input_file(option, workspace, tmp_path):
    """A valid file for the input ``option``."""
    if option == "--weights":
        save_weights(default_weights(), tmp_path / "weights.txt")
        return tmp_path / "weights.txt"
    if option == "--params":
        save_params(SocialForcesParams(), tmp_path / "params.txt")
        return tmp_path / "params.txt"
    return {"--trajectory": workspace["sample"], "--stats": workspace["stats"]}[option]


def _input_argv(option, path, workspace, out):
    """A run that reads ``path`` through ``option`` and writes ``out``."""
    if option == "--params":
        return ["simulate", "--params", str(path), "--agents", "3", "--duration", "0.5",
                "--out", str(out)]
    inputs = {"--trajectory": workspace["sample"], "--stats": workspace["stats"], option: path}
    return ["score", *(str(a) for item in inputs.items() for a in item), "--breakdown", str(out)]


@pytest.mark.parametrize("end", [b"\n", b"\r"], ids=["LF", "CR"])
@pytest.mark.parametrize("line", [1, 2])
@pytest.mark.parametrize("option", INPUT_OPTIONS)
def test_non_utf8_input_names_file_and_line(tmp_path, workspace, capsys, option, line, end):
    lines = _input_file(option, workspace, tmp_path).read_bytes().splitlines()
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(end.join(lines) + end)
    assert run(_input_argv(option, bad, workspace, tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert f"data error: {bad}:{line}: not valid UTF-8 (byte 0xff)" in captured.err
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", INPUT_OPTIONS)
def test_a_leading_bom_is_ignored(tmp_path, workspace, capsys, option):
    plain = _input_file(option, workspace, tmp_path)
    bom = tmp_path / "bom.txt"
    bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    outputs = []
    for path in (plain, bom):
        out = tmp_path / f"out-{path.name}"
        assert run(_input_argv(option, path, workspace, out)) == 0
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]


def test_non_finite_simulate_radius_exits_3(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--kind", "circle", "--agents", "4", "--radius", "nan",
                "--duration", "2.0", "--out", str(out)]) == 3
    assert "radius must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_non_finite_bin_width_exits_2(tmp_path, workspace, capsys):
    out = tmp_path / "stats.txt"
    assert run(["fit-reference", "--golden", str(workspace["golden"]),
                "--bin-width", "nan", "--out", str(out)]) == 2
    assert "bin_width must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("window", [("0", "inf"), ("nan", "5"), ("-1", "nan")])
def test_non_finite_score_window_exits_2(tmp_path, workspace, capsys, window):
    assert run(["score", "--trajectory", str(workspace["sample"]),
                "--stats", str(workspace["stats"]), "--window", *window,
                "--breakdown", str(tmp_path / "b.csv")]) == 2
    captured = capsys.readouterr()
    assert "data error: scoring window [" in captured.err
    assert "non-finite bound" in captured.err
    assert "S_QF" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode,flag,value", [("speed-scale", "--factor", "nan"),
                                             ("speed-scale", "--factor", "inf"),
                                             ("jitter", "--amplitude", "inf"),
                                             ("jitter", "--amplitude", "nan")])
def test_non_finite_degrade_parameter_exits_2(tmp_path, workspace, capsys, mode, flag, value):
    assert run(["degrade", "--trajectory", str(workspace["sample"]), "--mode", mode,
                flag, value, "--out", str(tmp_path / "bad.csv")]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_degrade_overflow_exits_2(tmp_path, workspace, capsys):
    # a finite factor whose scaled displacements overflow to inf
    assert run(["degrade", "--trajectory", str(workspace["sample"]), "--mode",
                "speed-scale", "--factor", "1e308", "--out", str(tmp_path / "bad.csv")]) == 2
    assert "degraded positions are not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,code,message", [
    (["simulate", "--agents", "3", "--duration", "1e308", "--dt", "1e-300"], 3,
     "yields inf steps"),
    (["tune", "--agents", "3", "--duration", "1e308", "--population", "4",
      "--generations", "1"], 3, "yields inf steps"),
    (["score", "--window", "1e308", "1e308"], 2, "covers fewer than 2 steps"),
    (["simulate", "--agents", "3", "--duration", "1", "--radius", "1e308"], 3,
     "simulated positions are not finite"),
    (["simulate", "--kind", "crossing", "--agents", "3", "--duration", "1", "--radius", "1e308"],
     3, "simulated positions are not finite"),
    (["simulate", "--kind", "random", "--agents", "3", "--duration", "1", "--density", "1e-308"],
     3, "spawn area overflows"),
    (["fit-reference", "--bin-width", "1e-308"], 2, "bin_width 1e-308 is too small"),
    (["tune", "--agents", "3", "--radius", "1e308", "--duration", "1", "--population", "4",
      "--generations", "2"], 3, "simulated positions are not finite"),
    (["simulate", "--agents", "3", "--duration", "1e12"], 3, "yields 10000000000000 steps"),
    (["tune", "--agents", "3", "--duration", "1e12", "--population", "4",
      "--generations", "1"], 3, "yields 10000000000000 steps"),
], ids=["simulate-steps", "tune-steps", "score-window", "circle-radius", "crossing-radius",
        "random-density", "bin-width", "tune-radius", "simulate-history", "tune-history"])
def test_overflowing_values_exit_cleanly(tmp_path, workspace, capsys, argv, code, message):
    # each run's inputs come from the workspace; every output path is in tmp_path.
    # A 1e12 s duration is 1e13 steps, whose history exceeds the 128 TiB address
    # space, so it is refused without ever being allocated.
    inputs = {"score": ["--trajectory", str(workspace["sample"]), "--stats",
                        str(workspace["stats"]), "--breakdown", str(tmp_path / "b.csv")],
              "tune": ["--stats", str(workspace["stats"]), "--out", str(tmp_path / "p.txt")],
              "fit-reference": ["--golden", str(workspace["golden"]),
                                "--out", str(tmp_path / "stats.txt")],
              "simulate": ["--out", str(tmp_path / "sim.csv")]}
    assert run(argv + inputs[argv[0]]) == code
    err = capsys.readouterr().err
    kind = "data error: " if code == 2 else "configuration error: "
    assert kind in err and message in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["1e200", "7.7e139"])
def test_overflowing_trajectory_value_exits_2(tmp_path, workspace, capsys, value):
    # finite in the file, but squared or differenced it overflows float64
    bad = _sample_with_x(workspace, tmp_path / "big.csv", value)
    assert run(["score", "--trajectory", str(bad), "--stats", str(workspace["stats"]),
                "--breakdown", str(tmp_path / "b.csv")]) == 2
    captured = capsys.readouterr()
    assert "data error: values too large to compute with" in captured.err
    assert "Traceback" not in captured.err and "S_QF" not in captured.out
    assert not (tmp_path / "b.csv").exists()


def _small_csv(flavour):
    """Three walkers over 1.2 s: full columns at dt 0.1 or positions at dt 0.05."""
    dt = 0.1 if flavour == "full" else 0.05
    steps = round(1.2 / dt) + 1
    header = ["agent_id", "t", "x", "y"]
    if flavour == "full":
        header += ["goal_x", "goal_y", "comfort_speed", "radius"]
    rows = [",".join(header)]
    for a in range(3):
        for k in range(steps):
            t = k * dt
            row = [str(a + 1), repr(t), repr(1.3 * t - 2.0 + 0.1 * a), repr(1.5 * a - 0.02 * t)]
            if flavour == "full":
                row += ["4.0", repr(1.5 * a), "1.3", "0.27"]
            rows.append(",".join(row))
    return ("\n".join(rows) + "\n").encode()


_FUZZ_BYTES = b"0123456789.-+eE,\n \tnaif\x00\xff"


def _mutate(data, rng):
    """One to three seeded byte edits: replace, delete, insert, digit -> e,
    or drop a line."""
    b = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(5))
        k = int(rng.integers(len(b))) if b else 0
        if kind == 0 and b:
            b[k] = _FUZZ_BYTES[rng.integers(len(_FUZZ_BYTES))]
        elif kind == 1 and b:
            del b[k]
        elif kind == 2:
            b.insert(k, _FUZZ_BYTES[rng.integers(len(_FUZZ_BYTES))])
        elif kind == 3:
            digits = [i for i, c in enumerate(b) if 48 <= c <= 57]
            if digits:
                b[digits[int(rng.integers(len(digits)))]] = ord("e")
        else:
            lines = bytes(b).split(b"\n")
            del lines[int(rng.integers(len(lines)))]
            b = bytearray(b"\n".join(lines))
    return bytes(b)


@pytest.mark.parametrize("flavour", ["full", "positions"])
def test_mutated_csv_scores_or_exits_2(tmp_path, workspace, capsys, flavour):
    """Every mutation ends in a finite score in [0, 1] with a clean stderr, or
    in exit 2 with a data error: never a traceback, a warning or another code."""
    rng = np.random.default_rng(["full", "positions"].index(flavour))
    valid = _small_csv(flavour)
    path, breakdown = tmp_path / "m.csv", tmp_path / "b.csv"
    argv = ["score", "--trajectory", str(path), "--stats", str(workspace["stats"]),
            "--breakdown", str(breakdown)]
    path.write_bytes(valid)
    assert run(argv) == 0
    capsys.readouterr()
    outcomes = []
    for _ in range(150):
        data = _mutate(valid, rng)
        # unlink first: replacing an existing file can stall on its flush
        for stale in (path, breakdown):
            stale.unlink(missing_ok=True)
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        out, err = capsys.readouterr()
        if code == 0:
            value = float(out.split("S_QF=")[1])
            assert math.isfinite(value) and 0.0 <= value <= 1.0 and err == "", data
        else:
            assert code == 2 and err.startswith("crowdscore: data error: "), (data, err)
        outcomes.append(code)
    assert 0 in outcomes and 2 in outcomes  # the mutations reach both ends


def test_simulate_writes_trajectory_and_manifest(tmp_path, workspace):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--kind", "circle", "--agents", "4",
                "--radius", "3.0", "--duration", "2.0", "--out", str(out)]) == 0
    crowd = load_trajectory_csv(out)
    assert crowd.n_agents == 4
    assert crowd.n_steps == 20
    manifest = tmp_path / "sim.csv.manifest.txt"
    text = manifest.read_text()
    assert "subcommand" in text and "simulate" in text
    assert "flag.agents" in text


def test_simulate_reruns_are_byte_identical(tmp_path):
    args = ["simulate", "--kind", "random", "--agents", "6", "--area",
            "8.0", "8.0", "--duration", "2.0", "--seed", "3"]
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(["simulate", "--kind", "random", "--agents", "6", "--area",
                "8.0", "8.0", "--duration", "2.0", "--seed", "4",
                "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_score_prints_total_and_writes_breakdown(tmp_path, workspace, capsys):
    breakdown = tmp_path / "breakdown.csv"
    code = run(["score", "--trajectory", str(workspace["sample"]),
                "--stats", str(workspace["stats"]),
                "--breakdown", str(breakdown)])
    assert code == 0
    out = capsys.readouterr().out
    assert "S_QF=" in out
    value = float(out.split("S_QF=")[1].split()[0])
    assert 0.0 <= value <= 1.0
    with open(breakdown) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature", "cost", "weight", "contribution"]
    assert [r[0] for r in rows[1:]] == list(FEATURE_CODES)


def test_score_window_changes_result(tmp_path, workspace, capsys):
    base = ["score", "--trajectory", str(workspace["sample"]),
            "--stats", str(workspace["stats"])]
    assert run(base + ["--breakdown", str(tmp_path / "full.csv")]) == 0
    full = capsys.readouterr().out
    assert run(base + ["--window", "0.0", "1.0",
                       "--breakdown", str(tmp_path / "win.csv")]) == 0
    windowed = capsys.readouterr().out
    assert full.startswith("S_QF=") and windowed.startswith("S_QF=")
    assert (tmp_path / "win.csv").read_bytes() != (tmp_path / "full.csv").read_bytes()


def test_missing_trajectory_exits_2(tmp_path, workspace, capsys):
    assert run(["score", "--trajectory", str(tmp_path / "nope.csv"),
                "--stats", str(workspace["stats"])]) == 2
    assert "data error" in capsys.readouterr().err


def test_empty_golden_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["fit-reference", "--golden", str(empty),
                "--out", str(tmp_path / "stats.txt")]) == 2
    assert "no golden trajectory CSVs" in capsys.readouterr().err


def test_outputs_written_into_a_crowd_directory_are_skipped(tmp_path, workspace, capsys):
    """score, features and train-weights write their default outputs next to
    their inputs; fit-reference and train-weights on that directory still
    read only its trajectories."""
    golden = tmp_path / "golden"
    shutil.copytree(workspace["golden"], golden)
    before, after = tmp_path / "before.txt", tmp_path / "after.txt"
    assert run(["fit-reference", "--golden", str(golden), "--out", str(before)]) == 0
    stats = str(workspace["stats"])
    assert run(["score", "--trajectory", str(golden / "run0.csv"), "--stats", stats]) == 0
    assert run(["features", "--trajectory", str(golden / "run1.csv")]) == 0
    assert run(["train-weights", "--golden", str(golden), "--auto-degrade",
                "--population", "4", "--generations", "1",
                "--out", str(golden / "weights.txt")]) == 0
    assert sorted(p.name for p in golden.glob("*.csv")) == [
        "run0.csv", "run0.csv.breakdown.csv", "run1.csv", "run1.csv.features.csv",
        "weights.txt.history.csv",
    ]
    assert run(["fit-reference", "--golden", str(golden), "--out", str(after)]) == 0
    assert after.read_bytes() == before.read_bytes()
    capsys.readouterr()


def test_negative_weight_file_exits_3(tmp_path, workspace, capsys):
    bad = tmp_path / "weights.txt"
    bad.write_text("".join(f"{c}.omega = 0.01\n" for c in FEATURE_CODES[:-1])
                   + "VAR.omega = -0.5\n")
    assert run(["score", "--trajectory", str(workspace["sample"]),
                "--stats", str(workspace["stats"]),
                "--weights", str(bad),
                "--breakdown", str(tmp_path / "b.csv")]) == 3
    assert "configuration error" in capsys.readouterr().err


def test_train_weights_requires_degraded_examples(tmp_path, workspace, capsys):
    assert run(["train-weights", "--golden", str(workspace["golden"]),
                "--out", str(tmp_path / "w.txt")]) == 2
    assert "no degraded examples" in capsys.readouterr().err


def test_train_weights_auto_degrade(tmp_path, workspace, capsys):
    out = tmp_path / "weights.txt"
    code = run(["train-weights", "--golden", str(workspace["golden"]),
                "--auto-degrade", "--stats", str(workspace["stats"]),
                "--population", "8", "--generations", "3",
                "--threads", "2", "--out", str(out)])
    assert code == 0
    assert "best_fitness=" in capsys.readouterr().out
    weights = load_weights(out)
    assert sum(weights.omega.values()) <= 1.0 + 1e-9
    with open(f"{out}.history.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["generation", "best_fitness"]
    fits = [float(r[1]) for r in rows[1:]]
    assert fits == sorted(fits, reverse=True) or all(
        b <= a for a, b in zip(fits, fits[1:])
    )


def test_auto_degrade_is_the_degrade_subcommand_at_the_same_seeds(tmp_path, workspace):
    """--auto-degrade trains on what `degrade --mode M --seed S + 97 i + m`
    writes for the i-th golden file and the m-th of its modes, in that order."""
    degraded = tmp_path / "degraded"
    degraded.mkdir()
    seed = 5
    golden = sorted(workspace["golden"].glob("*.csv"))
    for i, path in enumerate(golden):
        for m, mode in enumerate(AUTO_DEGRADE_MODES):
            assert run(["degrade", "--trajectory", str(path), "--mode", mode,
                        "--seed", str(seed + 97 * i + m),
                        "--out", str(degraded / f"{i:03d}-{m}.csv")]) == 0
    budget = ["--golden", str(workspace["golden"]), "--stats", str(workspace["stats"]),
              "--population", "6", "--generations", "3", "--seed", str(seed)]
    auto, given = tmp_path / "auto.txt", tmp_path / "given.txt"
    assert run(["train-weights", *budget, "--auto-degrade", "--out", str(auto)]) == 0
    assert run(["train-weights", *budget, "--degraded", str(degraded), "--out", str(given)]) == 0
    assert auto.read_bytes() == given.read_bytes()
    assert (Path(f"{auto}.history.csv").read_bytes()
            == Path(f"{given}.history.csv").read_bytes())


def test_degrade_cli_scales_speeds(tmp_path, workspace):
    out = tmp_path / "fast.csv"
    assert run(["degrade", "--trajectory", str(workspace["sample"]),
                "--mode", "speed-scale", "--factor", "2.0",
                "--out", str(out)]) == 0
    original = load_trajectory_csv(workspace["sample"])
    scaled = load_trajectory_csv(out)
    assert np.allclose(scaled.speeds, 2.0 * original.speeds, atol=1e-9)


def test_degrade_cli_is_deterministic(tmp_path, workspace):
    args = ["degrade", "--trajectory", str(workspace["sample"]),
            "--mode", "jitter", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_degrade_cli_rejects_wrong_parameter(tmp_path, workspace, capsys):
    assert run(["degrade", "--trajectory", str(workspace["sample"]),
                "--mode", "no-avoidance", "--factor", "2.0",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert "unexpected parameters" in capsys.readouterr().err


def test_features_dump_covers_all_codes(tmp_path, workspace):
    out = tmp_path / "features.csv"
    assert run(["features", "--trajectory", str(workspace["sample"]),
                "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature", "agent_id", "t", "value"]
    assert {r[0] for r in rows[1:]} == set(FEATURE_CODES)


def test_tune_cli_smoke(tmp_path, workspace, capsys):
    out = tmp_path / "params.txt"
    code = run(["tune", "--kind", "circle", "--agents", "4", "--radius", "3.0",
                "--duration", "2.0", "--stats", str(workspace["stats"]),
                "--population", "4", "--generations", "2",
                "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "S_QF=" in printed and "quartile=Q" in printed
    load_params(out)  # parses cleanly
    assert (tmp_path / "params.txt.history.csv").exists()
    assert (tmp_path / "params.txt.best.csv").exists()
    load_trajectory_csv(tmp_path / "params.txt.best.csv")


# --- output files ---


def _score_argv(workspace, breakdown, *extra):
    return ["score", "--trajectory", str(workspace["sample"]),
            "--stats", str(workspace["stats"]), "--breakdown", str(breakdown), *extra]


@pytest.mark.parametrize("where", ["missing directory", "a directory", "disk full"])
def test_unwritable_output_exits_2_naming_it(tmp_path, workspace, capsys, where):
    if where == "disk full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    out = {"missing directory": tmp_path / "missing" / "b.csv",
           "a directory": tmp_path,
           "disk full": Path("/dev/full")}[where]
    assert run(_score_argv(workspace, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("crowdscore: data error: ")
    assert ("No space left on device" if where == "disk full" else str(out)) in err


def _csv_writer_bytes(data: bytes) -> bytes:
    """What ``csv.writer`` writes for the rows ``csv.reader`` reads from ``data``."""
    out = io.StringIO(newline="")
    csv.writer(out).writerows(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("output", ["breakdown", "train history", "tune history",
                                    "features", "features with stats"])
def test_each_csv_is_the_bytes_of_csv_writer(tmp_path, workspace, output):
    sample, stats = str(workspace["sample"]), str(workspace["stats"])
    out = tmp_path / "out.csv"
    argv = {
        "breakdown": _score_argv(workspace, out),
        "train history": ["train-weights", "--golden", str(workspace["golden"]),
                          "--auto-degrade", "--stats", stats, "--population", "6",
                          "--generations", "3", "--out", str(tmp_path / "w.txt"),
                          "--history", str(out)],
        "tune history": ["tune", "--agents", "4", "--radius", "3.0", "--duration", "2.0",
                         "--stats", stats, "--population", "4", "--generations", "2",
                         "--out", str(tmp_path / "p.txt"), "--history", str(out)],
        "features": ["features", "--trajectory", sample, "--out", str(out)],
        "features with stats": ["features", "--trajectory", sample, "--stats", stats,
                                "--out", str(out)],
    }[output]
    assert run(argv) == 0
    data = out.read_bytes()
    assert data.count(b"\n") > 2
    assert data == _csv_writer_bytes(data)
    if output.startswith("features"):  # per-time and per-agent rows have an empty field
        rows = list(csv.reader(io.StringIO(data.decode())))
        assert any(row[1] == "" for row in rows) and any(row[2] == "" for row in rows)


def test_symlinked_breakdown_is_written_through(tmp_path, workspace):
    target = tmp_path / "target.csv"
    target.write_bytes(b"stale\n" * 1000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert run(_score_argv(workspace, link)) == 0
    assert link.is_symlink()
    fresh = tmp_path / "fresh.csv"
    assert run(_score_argv(workspace, fresh)) == 0
    assert target.read_bytes() == fresh.read_bytes()


def test_manifest_to_dev_null_exits_0(tmp_path, workspace):
    assert run(_score_argv(workspace, tmp_path / "b.csv", "--manifest", os.devnull)) == 0
    assert (tmp_path / "b.csv").stat().st_size > 0


def _output_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("command", ["score", "train", "tune"])
def test_outputs_do_not_depend_on_existing_files(tmp_path, workspace, capsys, command):
    """A rerun over longer stale outputs, and over the call's own outputs,
    writes the same bytes as a call into fresh paths."""
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "score": _score_argv(workspace, out / "b.csv"),
        "train": ["train-weights", "--golden", str(workspace["golden"]), "--auto-degrade",
                  "--stats", str(workspace["stats"]), "--population", "6",
                  "--generations", "3", "--out", str(out / "w.txt")],
        "tune": ["tune", "--kind", "circle", "--agents", "4", "--radius", "3.0",
                 "--duration", "2.0", "--stats", str(workspace["stats"]),
                 "--population", "4", "--generations", "2", "--out", str(out / "p.txt")],
    }[command] + ["--seed", "0"]
    assert run(argv) == 0
    fresh = _output_bytes(out)
    assert len(fresh) >= 2
    assert run(argv) == 0
    assert _output_bytes(out) == fresh
    for name, data in fresh.items():
        (out / name).write_bytes(b"#" * (len(data) + 4096))
    assert run(argv) == 0
    assert _output_bytes(out) == fresh


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_project():
    """The `[project]` table of the repo's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def test_console_script_runs(tmp_path):
    """The declared `crowdscore` script starts and reports the package version.

    Runs what pip's generated wrapper runs, so no install is needed: import
    the `module:function` target named in `[project.scripts]` and exit with
    its return value.  The child imports the same copy of `crowdscore` as
    this process, whether that is `src/` or an installed package.
    """
    project = _declared_project()
    module, func = project["scripts"]["crowdscore"].split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'crowdscore'\n"
        f"sys.exit({func}())\n"
    )
    package_root = str(Path(crowdscore.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    # cwd=tmp_path: `-c` puts the working directory first on sys.path.
    proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"crowdscore {project['version']}\n", proc.stderr


@pytest.mark.skipif(shutil.which("crowdscore") is None,
                    reason="crowdscore command not on PATH (package not installed)")
def test_installed_console_script_runs():
    proc = subprocess.run(["crowdscore", "--version"], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("crowdscore "), proc.stderr
