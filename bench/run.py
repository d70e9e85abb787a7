"""Benchmark of crowdscore's three workflows: score, train-weights and tune.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``score-small``, ``score-dense``, ``train``, ``tune``, or
``all`` (each workload in a fresh child process, one after the other).  Run it
from anywhere inside a checkout; it imports the package from ``src/`` and
reads and writes only under the checkout (scratch files go to
``.bench_work/``).

Each workload is a closed loop with one client: the next call of
``crowdscore.cli.run(argv)`` starts when the previous one returned.  Every
call's output is checked (``checks.py``).  Inputs come from ``inputs.py``,
seeded by ``--seed``; the tune workload's scenario comes from the package's
own simulator, seeded the same way.

``--trace 0`` measures end to end with nothing patched.  The gated call time,
``call_rel.p50``, is relative to a fixed pure-Python reference loop timed
around each round of calls (see ``reference``); the wall time per call is
printed next to it.  ``--trace 1``
alternates untraced and traced calls on the same inputs; the traced calls run
with the span recorder of ``spans.py`` installed and give the per-layer
metrics plus ``trace.overhead_ratio`` (traced over untraced median wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit and sample count, and the run context.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import SETUP_OP, SETUP_TIMED, Recorder, metric_units  # noqa: E402

WORKLOADS = ("score-small", "score-dense", "train", "tune")
DEFAULT_SEED = 0
SETUP_REPEATS = 5

# Input sizes.  "full" is what the benchmark measures; "tiny" exercises the
# same code paths in about a second and is what the smoke test runs.
SIZES = {
    "full": {
        # 4 golden recordings: the reference stats of every workload, and the
        # training set of "train".
        "golden": dict(count=4, n=12, duration=11.0, kinds=("crossing", "circle"),
                       radius=6.0, flavours=("full", "positions")),
        # Everyday scoring: fixed per-call costs and per-step Python loops
        # dominate; half the files are positions-only at dt 0.05 s, so the
        # loader's defaults path and resampling run.
        "score-small": dict(count=8, n=12, duration=11.0, kinds=("circle", "crossing"),
                            radius=6.0, flavours=("full", "positions")),
        # The N^2 pairwise pass dominates: each (T, N, N) float64 array is
        # 18 MB, and the ~15 live at the peak fill 2.6x the 105 MB L3.  A
        # 20 s recording would double that, but a run would then hold only
        # about eight 2 s calls, too few for a steady median.
        "score-dense": dict(count=1, n=150, duration=10.0, kinds=("circle",),
                            radius=18.0, flavours=("full",)),
        # The GA loop dominates: traced, its self time is about half of a call
        # and the fitness calls a quarter; extracting the training crowds is
        # about a fifth.  The plateau stop is disabled so the budget is fixed.
        "train": dict(population=64, generations=300),
        # Simulate + extract per genome dominates; --threads 2 keeps the
        # thread pool on the measured path.
        "tune": dict(agents=20, radius=7.0, duration=11.0, population=16, generations=2,
                     threads=2),
    },
    "tiny": {
        "golden": dict(count=2, n=6, duration=3.0, kinds=("crossing", "circle"),
                       radius=3.0, flavours=("full", "positions")),
        "score-small": dict(count=2, n=6, duration=3.0, kinds=("circle", "crossing"),
                            radius=3.0, flavours=("full", "positions")),
        "score-dense": dict(count=1, n=30, duration=4.0, kinds=("circle",),
                            radius=5.0, flavours=("full",)),
        "train": dict(population=8, generations=5),
        "tune": dict(agents=6, radius=3.0, duration=3.0, population=4, generations=2,
                     threads=2),
    },
}

END_TO_END = {"call_rel.p50": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
REFERENCE_LOOPS = 60_000  # one reference chunk, about 5 ms on a 2-vCPU cloud VM
REFERENCE_SHARE = 0.1  # reference time per round, as a share of the round's time


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    return ap.parse_args(argv)


# --- run context ---


def _cache_sizes():
    """L2 and L3 sizes as the kernel reports them (read-only)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else None
    return ref


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "crowdscore").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_context(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cache": _cache_sizes(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# --- operations ---


def call_cli(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def make_inputs(args, work):
    """Write the workload's input files; returns a dict of paths."""
    size = SIZES[args.size]
    paths = {"golden": work / "golden", "stats": work / "stats.txt"}
    inputs.crowd_set([args.seed, 0], paths["golden"], **size["golden"])
    if args.workload in ("score-small", "score-dense"):
        paths["recordings"] = inputs.crowd_set(
            [args.seed, 1], work / args.workload, **size[args.workload]
        )
    return paths


def make_workload(args, work, paths):
    """The workload's calls, cycled in order, and the check for one call.

    Returns (calls, check): calls is a list of (input key, argv); check(code,
    stdout) returns the call's result value or raises CheckFailed.
    """
    size = SIZES[args.size][args.workload]
    stats = str(paths["stats"])
    out = work / "out"
    out.mkdir(exist_ok=True)
    manifest = str(out / "manifest.txt")
    common = ["--stats", stats, "--manifest", manifest, "--seed", str(args.seed)]

    if args.workload in ("score-small", "score-dense"):
        breakdown = out / "breakdown.csv"
        calls = [
            (path.name, ["score", "--trajectory", str(path), "--breakdown", str(breakdown)]
             + common)
            for path in paths["recordings"]
        ]
        return calls, lambda code, stdout: checks.check_score(code, stdout, breakdown)

    budget = ["--population", str(size["population"]),
              "--generations", str(size["generations"]),
              "--plateau", str(size["generations"])]  # plateau stop never fires
    history = out / "history.csv"
    if args.workload == "train":
        weights = out / "weights.txt"
        argv = ["train-weights", "--golden", str(paths["golden"]), "--auto-degrade",
                "--out", str(weights), "--history", str(history)] + budget + common
        return [("train", argv)], lambda code, stdout: checks.check_train(
            code, stdout, weights, history, size["generations"])

    from crowdscore.simulator import PARAM_NAMES, TUNE_BOUNDS

    params = out / "params.txt"
    argv = ["tune", "--mode", "single", "--threads", str(size["threads"]),
            "--kind", "circle", "--agents", str(size["agents"]),
            "--radius", str(size["radius"]), "--duration", str(size["duration"]),
            "--out", str(params), "--history", str(history),
            "--out-trajectory", str(out / "best.csv")] + budget + common
    return [("tune", argv)], lambda code, stdout: checks.check_tune(
        code, stdout, params, history, size["generations"], PARAM_NAMES, TUNE_BOUNDS)


class Loop:
    """Closed loop with one client; every call is checked and counted."""

    def __init__(self, cli, calls, check):
        self.cli, self.calls, self.check = cli, calls, check
        self.attempted = 0
        self.errors = []  # (attempt number, message)
        self.values = {}  # input key -> result value of its first call

    def call(self, i):
        """Run call i; returns its wall time in seconds, or None if it failed."""
        key, argv = self.calls[i % len(self.calls)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            code, stdout, stderr = call_cli(self.cli, argv)
        except Exception as exc:  # a crash inside the CLI counts as a failed call
            self.errors.append((self.attempted, f"{key}: {type(exc).__name__}: {exc}"))
            return None
        wall = time.perf_counter() - start
        try:
            value = self.check(code, stdout)
        except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.errors.append((self.attempted, f"{key}: {exc} {stderr.strip()}".strip()))
            return None
        first = self.values.setdefault(key, value)
        if value != first:
            self.errors.append(
                (self.attempted, f"{key}: result {value!r} differs from first call {first!r}")
            )
            return None
        return wall


def reference(chunks):
    """Wall time in seconds per chunk of a fixed pure-Python loop that uses
    no package code.

    The benchmark host's speed drifts by up to 1.7x over minutes, because
    other tenants share its cores; CPU time drifts with wall time, so it does
    not help.  Dividing each round by this loop's time, taken just before and
    just after the round, cancels most of the drift while any change to the
    package still shows in full.
    """
    start = time.perf_counter()
    total = 0
    for i in range(chunks * REFERENCE_LOOPS):
        total += i * i % 7
    return (time.perf_counter() - start) / chunks


def setup(cli, paths, work):
    """Import plus fit-reference, the one-time cost before the first call.

    The import is timed in a fresh interpreter each repeat (this process has
    imported the package already); fit-reference runs in this process.
    Returns the setup time of each repeat in seconds.
    """
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import crowdscore.cli; print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", probe, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        import_s = float(done.stdout.strip().splitlines()[-1])
        start = time.perf_counter()
        fit_reference(cli, paths, work)
        times.append(import_s + time.perf_counter() - start)
    return times


def fit_reference(cli, paths, work):
    argv = ["fit-reference", "--golden", str(paths["golden"]), "--out", str(paths["stats"]),
            "--manifest", str(work / "stats.manifest.txt")]
    code, _, stderr = call_cli(cli, argv)
    if code != 0:
        raise RuntimeError(f"fit-reference failed with exit code {code}: {stderr.strip()}")


def check_expected(args, values):
    """Compare the default seed's results with expected.json; returns errors."""
    if args.seed != DEFAULT_SEED or args.size != "full":
        return []
    expected = json.loads((BENCH / "expected.json").read_text())
    tolerance = expected["tolerance"][args.workload]
    errors = []
    for key, want in expected["values"][args.workload].items():
        got = values.get(key)
        if got is None:
            errors.append(f"{key}: no result to compare with expected {want!r}")
        elif abs(float(got) - float(want)) > tolerance:
            errors.append(f"{key}: {got!r} differs from expected {want!r} by more than "
                          f"{tolerance}")
    return errors


def check_counters(args, counters, src_digest):
    """Counters must repeat exactly across calls, and across traced runs of
    the same source tree."""
    errors = []
    first = counters[0] if counters else {}
    if any(c != first for c in counters):
        errors.append(f"counters differ between calls: {counters}")
    store = WORK / f"counters-{args.workload}-s{args.seed}-{args.size}-{src_digest[:16]}.json"
    if store.is_file():
        previous = json.loads(store.read_text())
        if previous != first:
            errors.append(f"counters {first} differ from an earlier traced run {previous}")
    else:
        store.write_text(json.dumps(first, sort_keys=True))
    return errors


def measure(args, cli, loop, paths, work):
    """Untraced closed loop; returns (metrics, human-readable lines, samples).

    Calls run in rounds, one call per input in order.  A round's sample is
    its mean time per call: score-small mixes two CSV flavours whose call
    times differ by about 2x, and the median of such a two-peaked per-call
    distribution jumps between the peaks.  ``call_rel.p50`` is the median of
    each round's sample divided by the mean time per reference chunk before
    and after the round; the reference takes about ``REFERENCE_SHARE`` of
    the time.
    """
    setup_times = setup(cli, paths, work)
    loop.call(0)  # warm-up: caches and lazy set-up, checked but not timed
    calls, rounds, refs, relative = [], [], [], []
    chunks = 1
    before = reference(chunks)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not rounds:
        walls = [loop.call(i) for i in range(len(loop.calls))]
        if None in walls:
            if len(loop.errors) > 10 and not rounds:
                break
            continue
        round_s = sum(walls)
        chunks = max(1, round(REFERENCE_SHARE / 2 * round_s / before))
        after = reference(chunks)
        ref = (before + after) / 2
        calls.extend(w * 1e3 for w in walls)
        rounds.append(round_s * 1e3 / len(walls))
        refs.append(ref * 1e3)
        relative.append(round_s / len(walls) / ref)
        before = after
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds, refs, relative = (v or [math.nan] for v in (rounds, refs, relative))
    metrics = {
        "call_rel.p50": statistics.median(relative),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    lines = [("call_rel.p50", metrics["call_rel.p50"], "ref", len(relative)),
             ("call_ms.p50", statistics.median(rounds), "ms", len(rounds)),
             ("reference_ms.p50", statistics.median(refs), "ms", len(refs))]
    n = len(calls)
    call_p50 = statistics.median(calls) if calls else math.nan
    size = SIZES[args.size].get(args.workload, {})
    if args.workload.startswith("score"):
        lines.append(("score_ms.p50", call_p50, "ms", n))
        if n >= 100:  # at least 10 samples above the 90th percentile
            lines.append(("score_ms.p90", statistics.quantiles(calls, n=10)[-1], "ms", n))
    elif args.workload == "train":
        lines.append(("train_s", call_p50 / 1e3, "s", n))
        lines.append(("train_fitness", float(loop.values.get("train", math.nan)), "1", 1))
    else:
        genomes = size["population"] * size["generations"]
        lines.append(("genomes_per_s", genomes / (call_p50 / 1e3), "1/s", n))
        lines.append(("tune_score", float(loop.values.get("tune", math.nan)), "1", 1))
    lines.append(("setup_s", metrics["setup_s"], "s", len(setup_times)))
    lines.append(("peak_rss_mb", rss_mb, "MB", 1))
    lines.append(("fail_ratio", len(loop.errors) / loop.attempted, "ratio", loop.attempted))
    return metrics, lines, {"call_ms": calls, "round_ms": rounds, "reference_ms": refs,
                            "setup_s": setup_times}


def measure_traced(args, cli, loop, paths, work, src_digest):
    """Alternate untraced and traced calls on the same input; returns
    (metrics, human-readable lines, samples, counter errors)."""
    recorder = Recorder()
    recorder.op = SETUP_OP
    recorder.install()
    try:
        fit_reference(cli, paths, work)
    finally:
        recorder.uninstall()
    loop.call(0)  # warm-up
    plain, traced, traced_ops = [], [], []
    i = 1
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not traced:
        wall = loop.call(i)  # both calls of a pair run input i
        recorder.op = i
        recorder.install()
        try:
            traced_wall = loop.call(i)
        finally:
            recorder.uninstall()
        if wall is not None and traced_wall is not None:
            plain.append(wall)
            traced.append(traced_wall)
            traced_ops.append(i)
        i += 1
        if len(loop.errors) > 10 and not traced:
            break
    metrics = recorder.metrics(traced_ops)
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain) if traced else math.nan
    recorder.write(work / "spans.csv")
    units = metric_units()
    lines = []
    for name, value in metrics.items():
        n = 1 if name.rsplit(".", 1)[0] in SETUP_TIMED else len(traced_ops)
        lines.append((name, value, units[name], n))
    for target in recorder.missing:
        lines.append((f"trace.missing:{target}", 0, "count", 0))
    errors = check_counters(args, recorder.counters(traced_ops), src_digest)
    return metrics, lines, {"plain_s": plain, "traced_s": traced}, errors


def run_workload(args):
    if not (SRC / "crowdscore" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'crowdscore'}; run inside a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One scratch directory per workload and mode, emptied by the next run.
    work = WORK / f"{args.workload}-t{args.trace}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = make_inputs(args, work)

    from crowdscore import cli

    context = run_context(args)
    calls, check = make_workload(args, work, paths)
    loop = Loop(cli, calls, check)
    if args.trace:
        metrics, lines, samples, extra_errors = measure_traced(
            args, cli, loop, paths, work, context["src_sha256"]
        )
        units = metric_units()
    else:
        metrics, lines, samples = measure(args, cli, loop, paths, work)
        extra_errors = check_expected(args, loop.values)
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  calls {loop.attempted}  failed {len(loop.errors)}")
    for name, value, unit, n in lines:
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={n}")
    for attempt, message in loop.errors[:10]:
        print(f"  FAILED call {attempt}: {message}")
    for message in extra_errors:
        print(f"  FAILED check: {message}")
    print("context " + json.dumps(context, sort_keys=True))

    result = {
        "correct": not loop.errors and not extra_errors
        and all(math.isfinite(v) for v in metrics.values()),
        "attempted": loop.attempted,
        "failed": len(loop.errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, context=context, values=loop.values, samples=samples,
                  errors=loop.errors + [(None, m) for m in extra_errors])
    result_path = WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}-{args.size}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"bench: workload {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
