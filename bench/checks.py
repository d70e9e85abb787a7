"""Output checks for each benchmarked CLI operation.

Each check returns the operation's result value (used to verify that repeated
operations on one input agree, and against the stored expected values) or
raises ``CheckFailed``.  Files written by the CLI are parsed here with plain
Python, not with the package's own readers.
"""

from __future__ import annotations

import csv
import math
import re

SCORE_LINE = re.compile(r"S_QF=(\d+\.\d{4})")
FITNESS_LINE = re.compile(r"best_fitness=(\S+)")
N_FEATURES = 21
PRINTED_HALF_ULP = 0.5e-4  # the CLI prints totals with 4 decimals
SUM_TOLERANCE = 1e-9


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _keyvalue(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    return out


def _history(path, generations):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    values = [float(r[1]) for r in rows[1:]]
    _require(len(values) == generations,
             f"history has {len(values)} generations, expected {generations}")
    _require(all(math.isfinite(v) for v in values), "history has non-finite values")
    return values


def _printed(pattern, stdout, what):
    match = pattern.search(stdout)
    _require(match is not None, f"no {what} line in output {stdout!r}")
    return match.group(1)


def check_score(code, stdout, breakdown_path):
    """Exit 0, S_QF finite in [0, 1], 21 breakdown rows consistent with it."""
    _require(code == 0, f"exit code {code}")
    printed = _printed(SCORE_LINE, stdout, "S_QF")
    total = float(printed)
    _require(math.isfinite(total) and 0.0 <= total <= 1.0, f"S_QF {printed} outside [0, 1]")
    with open(breakdown_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == N_FEATURES, f"breakdown has {len(rows)} rows")
    _require(len({r["feature"] for r in rows}) == N_FEATURES, "breakdown repeats a feature")
    contributions = []
    for r in rows:
        cost, weight, contrib = float(r["cost"]), float(r["weight"]), float(r["contribution"])
        _require(0.0 <= cost <= 1.0 and weight >= 0.0, f"{r['feature']}: cost/weight out of range")
        _require(contrib == weight * cost, f"{r['feature']}: contribution != weight * cost")
        contributions.append(contrib)
    unclamped = 1.0 - math.fsum(contributions)
    if 0.0 < unclamped < 1.0:
        _require(abs(unclamped - total) <= PRINTED_HALF_ULP + SUM_TOLERANCE,
                 f"1 - sum(contribution) = {unclamped!r} but S_QF={printed}")
    else:
        _require(total == min(1.0, max(0.0, unclamped)), f"clamped S_QF={printed} wrong")
    return printed


def check_train(code, stdout, weights_path, history_path, generations):
    """Non-increasing history and 21 non-negative weights summing to <= 1."""
    _require(code == 0, f"exit code {code}")
    history = _history(history_path, generations)
    _require(all(b <= a for a, b in zip(history, history[1:])), "history increases")
    printed = _printed(FITNESS_LINE, stdout, "best_fitness")
    _require(f"{history[-1]:.4f}" == printed, f"printed {printed}, history ends {history[-1]!r}")
    weights = _keyvalue(weights_path)
    _require(len(weights) == N_FEATURES and all(k.endswith(".omega") for k in weights),
             f"weights file has {len(weights)} entries")
    omega = [float(v) for v in weights.values()]
    _require(all(math.isfinite(w) and w >= 0.0 for w in omega), "negative or non-finite weight")
    _require(math.fsum(omega) <= 1.0 + SUM_TOLERANCE, f"weights sum to {math.fsum(omega)!r}")
    return history[-1]


def check_tune(code, stdout, params_path, history_path, generations, names, bounds):
    """Non-decreasing history, parameters inside the tuning box, S_QF in [0, 1]."""
    _require(code == 0, f"exit code {code}")
    history = _history(history_path, generations)
    _require(all(b >= a for a, b in zip(history, history[1:])), "history decreases")
    printed = _printed(SCORE_LINE, stdout, "S_QF")
    _require(0.0 <= float(printed) <= 1.0, f"S_QF {printed} outside [0, 1]")
    _require(f"{history[-1]:.4f}" == printed, f"printed {printed}, history ends {history[-1]!r}")
    params = _keyvalue(params_path)
    _require(sorted(params) == sorted(names), f"parameter file keys {sorted(params)}")
    for name, (low, high) in zip(names, bounds):
        value = float(params[name])
        _require(low <= value <= high, f"{name}={value!r} outside [{low}, {high}]")
    return history[-1]
