"""Span recorder for the traced benchmark run.

Wraps every public function of the measured layers (the coralign
modules listed in LAYERS) at every coralign module that binds it by
name, so a call made through ``from .linalg import sym_power`` is
recorded as well as one made through ``linalg.sym_power``.  Nothing
under ``src/`` is edited: the wrappers are installed by attribute
assignment and removed again when the recorder closes.

Each call becomes a span (id, parent id, name, start, end, counts) kept
in memory.  After the run, ``layer_metrics`` turns the spans into the
per-layer metrics named in BENCHMARK.json; ``write_spans`` saves them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Measured layers, named as in the metric names (module minus "coralign.").
# bench.io and bench.cli sit on no performance item and are not wrapped.
LAYERS = (
    "linalg",
    "coral",
    "lda",
    "classify",
    "deep",
    "bench.data",
    "bench.runner",
)

MIB = float(1 << 20)


def _rows(arg):
    return float(np.shape(arg)[0])


def _cube(arg):
    return float(np.shape(arg)[0]) ** 3


def _array_bytes(result):
    return float(sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray)))


# The count kept on a span: span name -> (parameter it is read from, or
# None for the return value; function of that value).  Rows through the
# network, d^3 per eigendecomposition, bytes of a fitted transform.
COUNTERS = {
    "deep.forward": ("X", _rows),
    "deep.network_predict": ("X", _rows),
    "linalg.sym_power": ("M", _cube),
    "linalg.sym_eigen": ("M", _cube),
    "linalg.pseudo_inv_sqrt": ("M", _cube),
    "coral.fit_regularized": (None, _array_bytes),
    "coral.fit_analytical": (None, _array_bytes),
}


def public_functions(layer: str) -> dict:
    """Public functions defined in a layer's module, by name."""
    module = importlib.import_module("coralign." + layer)
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Records one span per call into a wrapped function.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.
    """

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, count]
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter and counter[0] else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                param, measure = counter
                if signature is None:
                    span[5] = measure(result)
                else:
                    span[5] = measure(signature.bind(*args, **kwargs).arguments[param])
            return result

        return traced

    def __enter__(self):
        originals = {}
        for layer in LAYERS:
            for fname, fn in public_functions(layer).items():
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "coralign" or mod_name.startswith("coralign.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)
        return False


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, summed counts.

    Self time is a span's duration minus the durations of its direct
    children; calls are nested on one thread, so children never overlap.
    """
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0})
    for sid, _, name, start, end, count in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[sid]
        if count is not None:
            row["count"] += count
    return dict(out)


def _ratio(num: float, den: float) -> float:
    # A layer that is never called on a workload reports 0, not 0/0.
    return num / den if den else 0.0


def layer_metrics(spans, ops: int, overhead: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, each per op of the run."""
    table = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0}

    def row(name):
        return table.get(name, empty)

    def per_op(value):
        return value / ops

    svm_calls = row("classify.train_svm")["calls"]
    # A span's id is its index in `spans`.
    final_fits = sum(
        1
        for s in spans
        if s[2] == "classify.train_svm"
        and (s[1] < 0 or spans[s[1]][2] != "classify.cross_validate_C")
    )
    metrics = {
        "classify.train_svm.calls": (per_op(svm_calls), "calls/op"),
        "classify.train_svm.self_s": (per_op(row("classify.train_svm")["self_s"]), "s/op"),
        "classify.cross_validate_C.self_s": (
            per_op(row("classify.cross_validate_C")["self_s"]), "s/op"),
        "classify.final_fit_ratio": (_ratio(final_fits, svm_calls), "ratio"),
        "deep.train_joint.self_s": (per_op(row("deep.train_joint")["self_s"]), "s/op"),
        "deep.forward.rows": (per_op(row("deep.forward")["count"]), "rows/op"),
        "deep.eval_row_share": (
            _ratio(row("deep.network_predict")["count"], row("deep.forward")["count"]),
            "ratio"),
        "coral.fit_regularized.self_s": (
            per_op(row("coral.fit_regularized")["self_s"]), "s/op"),
        "coral.fit_analytical.self_s": (per_op(row("coral.fit_analytical")["self_s"]), "s/op"),
        "coral.apply_to_features.self_s": (
            per_op(row("coral.apply_to_features")["self_s"]), "s/op"),
        "coral.transform_mb": (
            per_op(row("coral.fit_regularized")["count"] + row("coral.fit_analytical")["count"])
            / MIB, "MiB/op"),
        "linalg.sym_power.calls": (per_op(row("linalg.sym_power")["calls"]), "calls/op"),
        "linalg.sym_power.self_s": (per_op(row("linalg.sym_power")["self_s"]), "s/op"),
        "linalg.eig_d3": (
            per_op(sum(row(f"linalg.{f}")["count"]
                       for f in ("sym_power", "sym_eigen", "pseudo_inv_sqrt"))),
            "d3/op"),
        "linalg.mean_and_covariance.self_s": (
            per_op(row("linalg.mean_and_covariance")["self_s"]), "s/op"),
        "linalg.standardize.self_s": (per_op(row("linalg.standardize")["self_s"]), "s/op"),
        "lda.fit_coral_lda.calls": (per_op(row("lda.fit_coral_lda")["calls"]), "calls/op"),
        "lda.fit_coral_lda.self_s": (per_op(row("lda.fit_coral_lda")["self_s"]), "s/op"),
        "lda.fit_lda.self_s": (per_op(row("lda.fit_lda")["self_s"]), "s/op"),
        "bench.data.generate_shift.self_s": (
            per_op(row("bench.data.generate_shift")["self_s"]), "s/op"),
        "bench.runner.run_experiment.self_s": (
            per_op(row("bench.runner.run_experiment")["self_s"]), "s/op"),
        "trace.overhead": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def write_spans(spans, path) -> None:
    """One JSON object per line: id, parent, name, start, end, count."""
    keys = ("id", "parent", "name", "start", "end", "count")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
