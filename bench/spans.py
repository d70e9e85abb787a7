"""Span recorder that times crowdscore's modules from the outside.

``Recorder.install()`` replaces each function listed in ``PATCHES`` with a
timing wrapper *in the module that looks it up* (``crowdscore.tuning.simulate``,
not ``crowdscore.simulator.simulate``), so nothing under ``src/`` is edited.
``uninstall()`` puts the originals back.  Spans (id, name, start, end, parent,
operation) are kept in memory and written out when the run ends.  The parent
stack is per thread: the tuner evaluates genomes in a thread pool, and a
genome's span takes the GA span that dispatched it as its parent.

``ga_optimize`` gets a special wrapper that also wraps the fitness function it
is handed.  It counts evaluations and repeats: an evaluation of a genome
byte-identical to one already evaluated on the same fitness landscape (the
landscape changes when the GA's ``on_generation`` hook runs).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Every place a layer's public function is
# looked up by a caller that the workloads reach.
PATCHES = (
    ("crowdscore.cli", "run", "cli.run"),
    ("crowdscore.cli", "load_trajectory_csv", "csvio.load"),
    ("crowdscore.cli", "save_trajectory_csv", "csvio.save"),
    ("crowdscore.cli", "score", "quality.score"),
    ("crowdscore.cli", "fit_reference_from_crowds", "quality.fit_reference"),
    ("crowdscore.cli", "degrade", "training.degrade"),
    ("crowdscore.cli", "build_training_set", "training.build_training_set"),
    ("crowdscore.cli", "train_weights", "training.train_weights"),
    ("crowdscore.cli", "tune", "tuning.tune"),
    ("crowdscore.cli", "simulate", "simulator.simulate"),
    ("crowdscore.tuning", "simulate", "simulator.simulate"),
    ("crowdscore.simulator", "step", "simulator.step"),
    ("crowdscore.simulator", "repulsion_forces", "simulator.repulsion"),
    ("crowdscore.trajectory", "resample", "trajectory.resample"),
    ("crowdscore.trajectory", "derive_kinematics", "trajectory.derive_kinematics"),
    ("crowdscore.csvio", "derive_kinematics", "trajectory.derive_kinematics"),
    ("crowdscore.simulator", "derive_kinematics", "trajectory.derive_kinematics"),
    ("crowdscore.training", "derive_kinematics", "trajectory.derive_kinematics"),
    ("crowdscore.quality", "extract", "features.extract"),
    ("crowdscore.training", "extract", "features.extract"),
    ("crowdscore.tuning", "extract", "features.extract"),
    ("crowdscore.features", "time_to_collision_arrays", "geometry.pairwise"),
    ("crowdscore.features", "closest_approach_arrays", "geometry.pairwise"),
    ("crowdscore.quality", "cost_vector", "quality.cost"),
    ("crowdscore.training", "cost_vector", "quality.cost"),
    ("crowdscore.tuning", "cost_vector", "quality.cost"),
    ("crowdscore.quality", "combine", "quality.cost"),
    ("crowdscore.tuning", "combine", "quality.cost"),
)

# ga_optimize call sites and the span name given to one fitness evaluation.
GA_PATCHES = (
    ("crowdscore.training", "ga_optimize", "training.fitness"),
    ("crowdscore.tuning", "ga_optimize", "tuning.genome"),
)

GA_SPAN = "genetic.ga_optimize"
SETUP_OP = "setup"

# Timed per-layer entries: metric stem -> (span name, self time?, seconds per unit).
# Each stem reports .busy (per operation), .calls (per operation) and .p50 (per call).
TIMED = {
    "cli.self_ms": ("cli.run", True, 1e-3),
    "csvio.load_ms": ("csvio.load", False, 1e-3),
    "csvio.save_ms": ("csvio.save", False, 1e-3),
    "trajectory.resample_ms": ("trajectory.resample", False, 1e-3),
    "trajectory.derive_kinematics_ms": ("trajectory.derive_kinematics", False, 1e-3),
    "features.extract_ms": ("features.extract", False, 1e-3),
    "features.extract.self_ms": ("features.extract", True, 1e-3),
    "geometry.pairwise_ms": ("geometry.pairwise", False, 1e-3),
    "quality.score_ms": ("quality.score", False, 1e-3),
    "quality.cost_ms": ("quality.cost", False, 1e-3),
    "simulator.simulate_ms": ("simulator.simulate", False, 1e-3),
    "simulator.step_us": ("simulator.step", False, 1e-6),
    "simulator.repulsion_us": ("simulator.repulsion", False, 1e-6),
    "training.degrade_ms": ("training.degrade", False, 1e-3),
    "training.build_training_set_s": ("training.build_training_set", False, 1.0),
    "training.fitness_us": ("training.fitness", False, 1e-6),
    "tuning.genome_ms": ("tuning.genome", False, 1e-3),
}
SETUP_TIMED = {"quality.fit_reference_s": ("quality.fit_reference", False, 1.0)}

# Exact per-operation counts; two traced runs of one input must agree on them.
COUNTERS = ("genetic.fitness.calls", "genetic.fitness.repeats", "simulator.step.calls")


def _unit(scale):
    return {1.0: "s", 1e-3: "ms", 1e-6: "us"}[scale]


def metric_units():
    """Every per-layer metric name this module reports, with its unit."""
    units = {}
    for stem, (_, _, scale) in {**TIMED, **SETUP_TIMED}.items():
        units[f"{stem}.busy"] = _unit(scale)
        units[f"{stem}.calls"] = "count"
        units[f"{stem}.p50"] = _unit(scale)
    units["genetic.gen_overhead_ms"] = "ms"
    units["genetic.generations"] = "count"
    for name in COUNTERS:
        units[name] = "count"
    units["genetic.repeat_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Recorder:
    """In-memory span store plus the runtime patches that feed it."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op)
        self.ga_generations = {}  # ga span id -> generations run
        self.repeats = Counter()  # op -> fitness evaluations of a genome seen before
        self.op = None
        self.missing = []  # patch targets absent from the package
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals = []

    # --- spans ---

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None, span_id=None):
        """Run fn(*args, **kwargs) inside a span; ``parent`` applies when this
        thread has no open span."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        if span_id is None:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent, self.op))

    # --- patches ---

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _wrap_ga(self, fn, fitness_name):
        @functools.wraps(fn)
        def wrapper(fitness, *args, **kwargs):
            ga_id = next(self._ids)
            seen = set()

            def counted_fitness(genome):
                key = genome.tobytes()
                with self._lock:
                    if key in seen:
                        self.repeats[self.op] += 1
                    else:
                        seen.add(key)
                return fitness(genome)

            def traced_fitness(genome):
                # The repeat bookkeeping runs inside the fitness span, so it is
                # not counted as the GA's own overhead.
                return self.call(fitness_name, counted_fitness, (genome,), {}, parent=ga_id)

            hook = kwargs.get("on_generation")
            if hook is not None:

                def new_landscape(gen):
                    with self._lock:
                        seen.clear()
                    return hook(gen)

                kwargs["on_generation"] = new_landscape
            result = self.call(GA_SPAN, fn, (traced_fitness, *args), kwargs, span_id=ga_id)
            with self._lock:
                self.ga_generations[ga_id] = result.generations
            return result

        return wrapper

    def install(self):
        """Patch every target; targets the package no longer has are listed in
        ``missing`` and skipped, so a moved function reads as zero calls."""
        self.missing = []
        targets = [(m, a, self._wrap, n) for m, a, n in PATCHES]
        targets += [(m, a, self._wrap_ga, n) for m, a, n in GA_PATCHES]
        for module_name, attr, make, name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, make(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def write(self, path):
        """Write all spans as CSV (times in seconds from the first span)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for sid, name, start, end, parent, op in sorted(self.spans):
                fh.write(f"{sid},{name},{start - t0!r},{end - t0!r},{parent or ''},{op}\n")

    # --- aggregation ---

    def _self_times(self):
        """span id -> duration minus the part of it covered by child spans."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = (end - start) - covered
        return out

    def metrics(self, ops):
        """Per-layer metrics over the operations ``ops`` (plus the setup op)."""
        self_time = self._self_times()
        ops = set(ops)
        n_ops = max(len(ops), 1)
        by_name = defaultdict(list)  # (name, self?) -> durations in s
        setup = defaultdict(list)
        for sid, name, start, end, _, op in self.spans:
            for is_self, value in ((False, end - start), (True, self_time[sid])):
                if op in ops:
                    by_name[(name, is_self)].append(value)
                elif op == SETUP_OP:
                    setup[(name, is_self)].append(value)
        out = {}
        for table, source, count in ((TIMED, by_name, n_ops), (SETUP_TIMED, setup, 1)):
            for stem, (name, is_self, scale) in table.items():
                values = source.get((name, is_self), [])
                out[f"{stem}.busy"] = sum(values) / scale / count
                out[f"{stem}.calls"] = len(values) / count
                out[f"{stem}.p50"] = statistics.median(values) / scale if values else 0.0
        ga_ids = [s[0] for s in self.spans if s[1] == GA_SPAN and s[5] in ops]
        gens = sum(self.ga_generations[i] for i in ga_ids)
        out["genetic.gen_overhead_ms"] = (
            sum(self_time[i] for i in ga_ids) / gens * 1e3 if gens else 0.0
        )
        out["genetic.generations"] = gens / n_ops
        per_op = self.counters(ops)
        for name in COUNTERS:
            out[name] = sum(c[name] for c in per_op) / n_ops
        calls = out["genetic.fitness.calls"]
        out["genetic.repeat_ratio"] = out["genetic.fitness.repeats"] / calls if calls else 0.0
        return out

    def counters(self, ops):
        """The exact counters of each operation in ``ops``, in order."""
        names = Counter((s[5], s[1]) for s in self.spans)
        return [
            {
                "genetic.fitness.calls": names[(op, "training.fitness")]
                + names[(op, "tuning.genome")],
                "genetic.fitness.repeats": self.repeats[op],
                "simulator.step.calls": names[(op, "simulator.step")],
            }
            for op in ops
        ]
