"""End-to-end command-line runs: exit codes, outputs, reproducibility."""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crowdscore
from crowdscore.cli import run
from crowdscore.csvio import load_trajectory_csv
from crowdscore.features import FEATURE_CODES
from crowdscore.quality import load_weights
from crowdscore.simulator import load_params


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


def test_non_finite_trajectory_exits_2(tmp_path, workspace, capsys):
    lines = workspace["sample"].read_text().splitlines()
    fields = lines[5].split(",")
    fields[2] = "nan"  # the x column
    lines[5] = ",".join(fields)
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["score", "--trajectory", str(bad), "--stats", str(workspace["stats"]),
                "--breakdown", str(tmp_path / "b.csv")]) == 2
    captured = capsys.readouterr()
    assert "non-finite 'x'" in captured.err
    assert "S_QF" not in captured.out


def test_non_utf8_trajectory_names_file_and_line(tmp_path, workspace, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"agent_id,t,x,y\n0,0,\xff,0\n")
    assert run(["score", "--trajectory", str(bad), "--stats", str(workspace["stats"]),
                "--breakdown", str(tmp_path / "b.csv")]) == 2
    captured = capsys.readouterr()
    assert f"data error: {bad}:2: not valid UTF-8" in captured.err
    assert "S_QF" not in captured.out


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
