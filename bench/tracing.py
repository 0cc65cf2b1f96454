"""Spans around calls into ptwide's modules, recorded from the benchmark side.

Nothing under ``src/`` is instrumented. Instead, for the duration of one
traced iteration, each public function a module calls into is replaced *in
the calling module's namespace* by a wrapper that records a span (name,
start, end, parent span). ``harness`` and ``train`` import their callees by
name, so the wrapper must sit on ``ptwide.harness.run_training`` rather than
on ``ptwide.train.run_training``. A name listed in ``WRAPS`` that a module
no longer has raises :class:`TraceError`, so a rename under ``src/`` cannot
silently zero a per-layer metric.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc
from collections import defaultdict


class TraceError(RuntimeError):
    """The trace does not cover what it claims to: a wrapped name or span is missing."""


# (calling module, attribute looked up at call time, span name). The span
# name is "<layer>.<function>", where the layer is the module that defines
# the function. Entries on ``ptwide`` and ``ptwide.cli.main`` are the
# benchmark's own call sites.
WRAPS = [
    ("ptwide", "run_training", "train.run_training"),
    ("ptwide.cli", "main", "cli.main"),
    ("ptwide.cli", "concentration_probe", "diagnostics.concentration_probe"),
    ("ptwide.harness", "run_single", "harness.run_single"),
    ("ptwide.harness", "write_summary", "harness.write_outputs"),
    ("ptwide.harness", "_write_probe_scatter", "harness.write_outputs"),
    ("ptwide.harness", "_write_mean_curve", "harness.write_outputs"),
    ("ptwide.harness", "run_training", "train.run_training"),
    ("ptwide.harness", "trace_to_csv", "train.trace_to_csv"),
    ("ptwide.harness", "snapshots_to_npz", "train.snapshots_to_npz"),
    ("ptwide.harness", "init_params", "model.init_params"),
    ("ptwide.harness", "gram", "diagnostics.gram"),
    ("ptwide.harness", "lemma1_monitor", "diagnostics.lemma1_monitor"),
    ("ptwide.harness", "pl_monitor", "diagnostics.pl_monitor"),
    ("ptwide.train", "active_fraction", "diagnostics.active_fraction"),
    ("ptwide.train", "embed_batch", "embedding.embed_batch"),
    ("ptwide.train", "init_params", "model.init_params"),
    ("ptwide.diagnostics", "gram_limit_mc", "diagnostics.gram_limit_mc"),
    ("ptwide.diagnostics", "gram", "diagnostics.gram"),
    ("ptwide.diagnostics", "build_embedding", "embedding.build_embedding"),
    ("ptwide.diagnostics", "embed_batch", "embedding.embed_batch"),
    ("ptwide.diagnostics", "sym_eig_extremes", "numkernel.sym_eig_extremes"),
    ("ptwide.diagnostics", "forward", "model.forward"),
    ("ptwide.model", "build_embedding", "embedding.build_embedding"),
    ("ptwide.model", "embed_batch", "embedding.embed_batch"),
    ("ptwide.model", "gaussian_matrix", "numkernel.gaussian_matrix"),
    ("ptwide.embedding", "gaussian_matrix", "numkernel.gaussian_matrix"),
    ("ptwide.datasets", "gen_random_label", "datasets.gen"),
    ("ptwide.datasets", "gen_wei", "datasets.gen"),
    ("ptwide.datasets", "gen_quadratic_teacher", "datasets.gen"),
]

# Spans whose peak traced allocation (numpy arrays included) is recorded.
PEAK_MEMORY_SPANS = {"diagnostics.gram_limit_mc"}


def _count_training(counters, args, kwargs, trace) -> None:
    """GD steps and the nominal flop count of the H-space loop.

    Each step costs one (m, n) @ (n, n) product, 2mn^2 flop; each recorded
    test evaluation after step 0 costs one (m, n) @ (n, n_test), 2 m n n_test.
    """
    config, X = args[0], args[2]
    test_X = kwargs.get("test_X", args[4] if len(args) > 4 else None)
    m, n = config.m, len(X)
    steps = trace.steps[-1] if trace.steps else 0
    test_records = max(len(trace.test_errors) - 1, 0)
    n_test = 0 if test_X is None else len(test_X)
    counters["train.gd_steps"] += steps
    counters["train.loop_flop"] += 2 * m * n * n * steps + 2 * m * n * n_test * test_records


def _count_npz(counters, args, kwargs, result) -> None:
    counters["train.npz_bytes"] += os.path.getsize(args[1])


def _count_mc(counters, args, kwargs, result) -> None:
    counters["diagnostics.mc_samples"] += result.mc_samples


COUNTERS = {
    "train.run_training": _count_training,
    "train.snapshots_to_npz": _count_npz,
    "diagnostics.gram_limit_mc": _count_mc,
}


class Tracer:
    """Span recorder; ``spans`` holds [name, start, end, parent index] rows."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        track_peak = name in PEAK_MEMORY_SPANS

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            if track_peak:
                tracemalloc.start()
            row = [name, time.perf_counter(), None, parent]
            self.spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
                if track_peak:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks[name], peak)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every name in ``WRAPS``; raises TraceError if one is missing."""
        originals = []
        for module_name, attr, span in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise TraceError(f"{module_name}.{attr} is missing; span {span!r} "
                                 "would never fire")
            originals.append((module, attr, span, fn))
        for module, attr, span, fn in originals:
            setattr(module, attr, self.wrap(span, fn))
            self._saved.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name self time (duration minus direct children) and call count.

    Spans come from one thread and nest properly, so the direct children of
    a span cover disjoint parts of its interval.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] += (end - start) - child_time[i]
        calls[name] += 1
    return dict(self_s), dict(calls)

