"""In-memory spans around the public functions of each kickedtop module.

Every wrapped call appends one span (label, parent span, start, end) to
flat arrays, so even the 1.6e5 spans of the long Benettin orbit stay small.
Nothing is written until the run ends; `layer_metrics` then reduces the
spans to per-layer counts, total times and self times (a span's duration
minus the part of it covered by its direct child spans).

`experiments` binds its imports by name, so each function is patched at
the place where it is looked up, not where it is defined.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

# (module or class, attribute, layer label).  Each label is patched in one
# place: the lookup the CLI's call path actually goes through.
PLACES = (
    ("kickedtop.cli", "main", "cli.main"),
    ("kickedtop.cli", "run_experiment", "experiments.run_experiment"),
    ("kickedtop.experiments:Dataset", "write", "experiments.Dataset.write"),
    ("kickedtop.experiments", "ksg_mi", "mutual_info.ksg_mi"),
    ("kickedtop.experiments", "evolve_ensemble", "bipartite.evolve_ensemble"),
    ("kickedtop.experiments", "phase_portrait", "classical.phase_portrait"),
    ("kickedtop.experiments", "benettin_lyapunov", "lyapunov.benettin_lyapunov"),
    ("kickedtop.experiments", "floquet_unitary", "quantum.floquet_unitary"),
    ("kickedtop.experiments", "evolve_expectations", "quantum.evolve_expectations"),
    ("kickedtop.experiments", "coherent_state", "quantum.coherent_state"),
    ("kickedtop.bipartite", "sample_cap", "bipartite.sample_cap"),
    ("kickedtop.mutual_info", "digamma", "mutual_info.digamma"),
    ("kickedtop.lyapunov", "jacobian", "lyapunov.jacobian"),
    ("kickedtop.lyapunov", "classical_step", "classical.classical_step"),
    ("kickedtop.classical", "evolve_trajectory", "classical.evolve_trajectory"),
    ("kickedtop.quantum", "bloch_vector", "quantum.bloch_vector"),
)

def _count_ksg(counts, args, result):
    counts["mutual_info.ksg_mi.samples"] += result.n


def _count_sample_cap(counts, args, result):
    counts["bipartite.sample_cap.points"] += len(result)


def _count_ensemble(counts, args, result):
    counts["bipartite.evolve_ensemble.point_steps"] += result.count * result.steps


def _count_expectations(counts, args, result):
    steps = result.shape[0] - 1
    dim = args[1].shape[0]
    counts["quantum.evolve_expectations.steps"] += steps
    # one dense complex128 matrix-vector product per step, counted from the
    # array sizes, not measured
    counts["quantum.apply_bytes_computed"] += steps * dim * dim * 16


def _count_write(counts, args, result):
    dataset = args[0]
    counts["experiments.rows_written"] += len(dataset.rows)
    for path in result:
        counts["experiments.bytes_written"] += path.stat().st_size


def _count_cells(counts, args, result):
    meta = result.meta
    if "failed_cells" in meta:  # the map kinds
        counts["experiments.cells_attempted"] += meta["grid"][0] * meta["grid"][1]
        counts["experiments.cells_failed"] += len(meta["failed_cells"])


COUNT_NAMES = (
    "mutual_info.ksg_mi.samples",
    "bipartite.sample_cap.points",
    "bipartite.evolve_ensemble.point_steps",
    "quantum.evolve_expectations.steps",
    "quantum.apply_bytes_computed",
    "experiments.rows_written",
    "experiments.bytes_written",
    "experiments.cells_attempted",
    "experiments.cells_failed",
)

COUNTERS = {
    "mutual_info.ksg_mi": _count_ksg,
    "bipartite.sample_cap": _count_sample_cap,
    "bipartite.evolve_ensemble": _count_ensemble,
    "quantum.evolve_expectations": _count_expectations,
    "experiments.Dataset.write": _count_write,
    "experiments.run_experiment": _count_cells,
}


class Tracer:
    """Span recorder; `install` patches every place in PLACES."""

    def __init__(self):
        self.labels = [label for _, _, label in PLACES]
        self.label_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = [-1]

    def install(self):
        for index, (owner, attr, label) in enumerate(PLACES):
            module_name, _, class_name = owner.partition(":")
            target = importlib.import_module(module_name)
            if class_name:
                target = getattr(target, class_name)
            setattr(target, attr, self._wrap(index, label, getattr(target, attr)))

    def _wrap(self, index, label, fn):
        label_of, parent, start, end = self.label_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(label)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            label_of.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def layer_metrics(self) -> dict:
        """Per-layer calls, total seconds, first-call seconds and self seconds."""
        n_labels = len(self.labels)
        calls = [0] * n_labels
        total = [0.0] * n_labels
        first = [0.0] * n_labels
        covered = [0.0] * n_labels
        label_of, parent, start, end = self.label_of, self.parent, self.start, self.end
        for span in range(len(start)):
            index = label_of[span]
            duration = end[span] - start[span]
            if calls[index] == 0:
                first[index] = duration
            calls[index] += 1
            total[index] += duration
            up = parent[span]
            if up >= 0:
                covered[label_of[up]] += duration
        metrics = {"trace.spans": len(start)}
        for index, label in enumerate(self.labels):
            metrics[f"{label}.calls"] = calls[index]
            metrics[f"{label}.s"] = total[index]
            metrics[f"{label}.first_s"] = first[index]
            metrics[f"{label}.self_s"] = total[index] - covered[index]
        metrics.update(self.counts)
        return metrics
