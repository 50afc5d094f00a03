"""Span tracer for the traced benchmark run.

The tracer wraps flowr's public functions from outside the package: each
wrapper is installed at every name a caller looks the function up by (the
package imports several functions by name, e.g. ``model`` binds its own
``log_density_matrix``), so no call escapes by going through an alias.
Each call records one span (name, start, end, parent span) in compact
in-memory arrays; nothing is written until the run ends. Self time is a
span's duration minus the time its child spans cover. Spans of one thread
nest, so children never overlap and their durations simply add.

Counters that ride along (bytes read, rows encoded, ...) are recorded at
the same boundaries as the spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

COUNTERS = (
    "gaussian.log_density_matrix.bytes_computed",
    "encoder.rows",
    "data.read_dataset.bytes",
    "data.features_f64.bytes",
    "checkpoint.load_checkpoint.bytes",
    "metrics.scores",
    "runner.write_records.bytes",
    "runner.write_roc_csv.bytes",
)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.span_name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters = defaultdict(float)
        self._stack = [-1]
        self.active = False

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span called name.

        count(args, kwargs, result) may return {metric name: amount} to add
        to the counters. While the tracer is inactive the wrapper only
        forwards the call.
        """
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = self.clock()
                self._stack.pop()
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.counters[key] += amount
            return result

        return traced

    def arrays(self):
        as_np = lambda a: np.frombuffer(a, dtype=np.int64) if len(a) else np.zeros(0, np.int64)
        return as_np(self.span_name), as_np(self.start), as_np(self.end), as_np(self.parent)

    def save(self, path):
        """Write every span and the name table to an .npz file."""
        name, start, end, parent = self.arrays()
        np.savez(
            path, name=name, start_ns=start, end_ns=end, parent=parent,
            names=np.array(json.dumps(self.names)),
        )

    def layer_stats(self):
        """{span name: {calls, self_s, dur_us (sorted inclusive durations)}}."""
        name, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            out[label] = {
                "calls": int(mask.sum()),
                "self_s": float(own[mask].sum()) / 1e9,
                "dur_us": np.sort(dur[mask]) / 1e3,
            }
        return out


def _count_log_density(args, kwargs, result):
    # computed from the shapes: the (m, c, d) float64 difference tensor
    m, c = result.shape
    d = np.shape(args[0])[-1]
    return {"gaussian.log_density_matrix.bytes_computed": m * c * d * 8}


def _count_encoder(args, kwargs, result):
    x = np.shape(args[1])
    return {"encoder.rows": 1 if len(x) == 1 else x[0]}


def _count_file(metric):
    """Counts the size of the file named by the first argument."""
    return lambda args, kwargs, result: {metric: os.path.getsize(args[0])}


def _count_scores(args, kwargs, result):
    return {"metrics.scores": len(result.positives) + len(result.negatives)}


def install(tracer):
    """Wrap every traced flowr function at each name it is reachable by."""
    tracer.counters.update({key: 0.0 for key in COUNTERS})
    from flowr import checkpoint, crp, data, encoder, gaussian, losses, meta, metrics, model, runner

    targets = [
        ("model.predict", model, "predict", None),
        ("model.update", model, "update", None),
        ("model.init_small_context", model, "init_small_context", None),
        ("model.init_large_context", model, "init_large_context", None),
        ("model.run_episode", model, "run_episode", None),
        ("gaussian.log_density_matrix", gaussian, "log_density_matrix", _count_log_density),
        ("gaussian.condition", gaussian, "condition", None),
        ("crp.predictive_class_probs", crp, "predictive_class_probs", None),
        ("meta.sample_sc_task", meta, "sample_sc_task", None),
        ("meta.sample_lc_task", meta, "sample_lc_task", None),
        ("meta.meta_step", meta, "meta_step", None),
        ("meta.meta_grads", meta, "meta_grads", None),
        ("losses.sc_meta_grads", losses, "sc_meta_grads", None),
        ("data.read_dataset", data, "read_dataset", _count_file("data.read_dataset.bytes")),
        ("checkpoint.load_checkpoint", checkpoint, "load_checkpoint",
         _count_file("checkpoint.load_checkpoint.bytes")),
        ("metrics.accuracy_suite", metrics, "accuracy_suite", None),
        ("metrics.h_measure", metrics, "h_measure", None),
        ("metrics.roc_curve", metrics, "roc_curve", None),
        ("metrics.scores_from_records", metrics, "scores_from_records", _count_scores),
        ("runner.evaluate", runner, "evaluate", None),
        ("runner.write_records", runner, "write_records", _count_file("runner.write_records.bytes")),
        ("runner.write_roc_csv", runner, "write_roc_csv", _count_file("runner.write_roc_csv.bytes")),
    ]
    modules = [m for key, m in sys.modules.items() if key == "flowr" or key.startswith("flowr.")]
    for name, module, attr, count in targets:
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    # methods and lazy attributes are looked up on the class
    encoder.Encoder.__call__ = tracer.wrap("encoder", encoder.Encoder.__call__, _count_encoder)
    lazy = data.EmbeddingDataset.__dict__["features_f64"]
    traced_f64 = functools.cached_property(
        tracer.wrap(
            "data.features_f64",
            lazy.func,
            lambda a, k, r: {"data.features_f64.bytes": r.nbytes},
        )
    )
    traced_f64.__set_name__(data.EmbeddingDataset, "features_f64")
    data.EmbeddingDataset.features_f64 = traced_f64


def per_layer(tracer, *, queries):
    """Every per-layer figure as {metric name: value}.

    For each span name: calls, self time s, and the p50/p99 of its
    inclusive durations; then the counters, and the encoder rows per query
    the workload processed. A layer that never ran reads 0 throughout.
    """
    out = {}
    for name, st in tracer.layer_stats().items():
        dur = st["dur_us"]
        p50, p99 = np.percentile(dur, [50, 99]) if len(dur) else (0.0, 0.0)
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.s"] = st["self_s"]
        out[f"{name}.p50_us"] = float(p50)
        out[f"{name}.p99_us"] = float(p99)
        out[f"{name}.p50_ms"] = float(p50) / 1e3
    out.update(tracer.counters)
    out["encoder.rows_per_query"] = tracer.counters["encoder.rows"] / queries if queries else 0.0
    return out
