"""Span tracing of spineml from outside the package.

`Tracer.install` rebinds spineml functions to timing wrappers. A function
is wrapped when it is public in its defining module, or when another
spineml module imported it by name (`neighbors._distances`,
`neighbors._vote`, `experiment._aggregate`). The wrapper replaces the
original under every name that referred to it in any spineml module, so a
call through a `from .x import f` binding is seen as well as a call inside
the defining module. Methods and classes are not wrapped.

Each call records one span (name, start, end, parent span, cell id) in
memory; nothing is written until the caller asks for the metrics. A cell
id is taken from the arguments of `run_cell_fitted`, `save_model` and
`predict_single`, and is inherited by every span below them.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "spineml"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(a) -> int:
    return int(np.shape(a)[0])


# Counters recorded at the call boundary: qualified name -> f(args, kwargs, result)
# returning {counter: increment}.
COUNTERS = {
    "tree.dt_fit": lambda a, k, r: {"tree.fit_calls": 1},
    "tree.extratrees_fit": lambda a, k, r: {"tree.extratrees_calls": 1},
    "tree.dt_predict_many": lambda a, k, r: {"tree.rows_routed": _rows(_arg(a, k, 1, "X"))},
    "tree.predict_constrained": lambda a, k, r: {"tree.rows_routed": _rows(_arg(a, k, 1, "X"))},
    "tree.dt_predict": lambda a, k, r: {"tree.rows_routed": 1},
    "neighbors.knn_predict_many": lambda a, k, r: {
        "neighbors.rows_predicted": _rows(_arg(a, k, 1, "X"))
    },
    "neighbors.knn_predict": lambda a, k, r: {"neighbors.rows_predicted": 1},
    # n_query × n_train × d of the difference tensor, computed from the shapes
    "neighbors._distances": lambda a, k, r: {
        "neighbors.distance_elems": _rows(_arg(a, k, 1, "X"))
        * int(np.prod(np.shape(_arg(a, k, 0, "points"))))
    },
    "resampling.oversample": lambda a, k, r: {
        "resampling.calls": 1,
        "resampling.rows_added": r.n - _arg(a, k, 0, "train").n,
    },
    "model_selection.grid_search": lambda a, k, r: {
        "model_selection.combo_fold_evals": len(_arg(a, k, 1, "grid").combos())
        * len(_arg(a, k, 2, "folds").folds)
    },
    "report.emit_report": lambda a, k, r: {
        "report.bytes_written": sum(Path(p).stat().st_size for p in r.values())
    },
    "persist.save_model": lambda a, k, r: {
        "persist.model_bytes": Path(_arg(a, k, 2, "path")).stat().st_size
    },
}

CELL_OF = {
    "experiment.run_cell_fitted": lambda a, k: f"{_arg(a, k, 1, 'group').id}/{_arg(a, k, 2, 'spec').id}",
    "persist.save_model": lambda a, k: f"{_arg(a, k, 1, 'fitted').group_id}/{_arg(a, k, 1, 'fitted').model_id}",
    "persist.predict_single": lambda a, k: f"{_arg(a, k, 0, 'pm').group_id}/{_arg(a, k, 0, 'pm').model_id}",
}


class Tracer:
    """In-memory span recorder; spans are tuples (name, start, end, parent, cell)."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []  # (span index, cell id)
        self._rebound: list = []  # (namespace, attribute, original)

    def _record(self, name, cell_of=None, args=(), kwargs=None):
        parent, cell = self._stack[-1] if self._stack else (-1, None)
        if cell_of is not None:
            cell = cell_of(args, kwargs or {})
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append((idx, cell))
        return idx, parent, cell

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around its set-up."""
        idx, parent, cell = self._record(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, cell)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        cell_of = CELL_OF.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent, cell = self._record(name, cell_of, args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, cell)
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    counts[key] += inc
            return result

        return traced

    def install(self) -> int:
        """Rebind every traced spineml function; returns how many were wrapped."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if isinstance(mod, types.ModuleType)
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        defined = {}  # id(fn) -> (short module, fn name, fn)
        for name, mod in modules.items():
            for attr, value in vars(mod).items():
                if isinstance(value, types.FunctionType) and value.__module__ == name:
                    defined[id(value)] = (name.split(".")[-1], attr, value)
        imported = {
            id(value)
            for name, mod in modules.items()
            for value in vars(mod).values()
            if isinstance(value, types.FunctionType) and value.__module__ != name
        }
        wrappers = {}
        for key, (short, attr, fn) in defined.items():
            if not attr.startswith("_") or key in imported:
                wrappers[key] = self.wrap(f"{short}.{attr}", fn)
        for mod in modules.values():
            ns = vars(mod)
            for attr, value in list(ns.items()):
                w = wrappers.get(id(value))
                if w is not None and isinstance(value, types.FunctionType):
                    self._rebound.append((ns, attr, value))
                    ns[attr] = w
        return len(wrappers)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._rebound):
            ns[attr] = original
        self._rebound.clear()


def self_times(spans) -> list:
    """Per-span self time: duration minus the time covered by direct children.

    Children of one parent never overlap (calls are nested on one thread),
    so the covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _cell in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_n, start, end, _p, _c) in enumerate(spans)]


def subtree(spans, root: int) -> list:
    """Indices of `root` and every span below it (parents precede children)."""
    inside = {root}
    out = [root]
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
            out.append(i)
    return out


def totals(spans, indices=None) -> tuple[dict, dict, dict]:
    """Inclusive time and self time per span name, and self time per layer
    (the module part of the name), over the given span indices."""
    selfs = self_times(spans)
    inclusive, self_by_name, by_layer = defaultdict(float), defaultdict(float), defaultdict(float)
    for i in range(len(spans)) if indices is None else indices:
        name, start, end = spans[i][:3]
        inclusive[name] += end - start
        self_by_name[name] += selfs[i]
        by_layer[name.split(".")[0]] += selfs[i]
    return inclusive, self_by_name, by_layer


# Per-layer metrics: name -> (unit, kind, what). kind "incl" sums the
# inclusive time of the named functions, "self" their self time, and
# "count" reads a boundary counter.
LAYER_METRICS = {
    "tree.fit_s": ("s", "incl", ["tree.dt_fit"]),
    "tree.fit_calls": ("count", "count", "tree.fit_calls"),
    "tree.predict_constrained_s": ("s", "incl", ["tree.predict_constrained"]),
    "tree.rows_routed": ("count", "count", "tree.rows_routed"),
    "tree.extratrees_s": ("s", "incl", ["tree.extratrees_fit"]),
    "tree.extratrees_calls": ("count", "count", "tree.extratrees_calls"),
    "neighbors.predict_many_s": ("s", "incl", ["neighbors.knn_predict_many"]),
    "neighbors.rows_predicted": ("count", "count", "neighbors.rows_predicted"),
    "neighbors.fit_s": ("s", "incl", ["neighbors.knn_fit"]),
    "neighbors.distance_elems": ("elems-computed", "count", "neighbors.distance_elems"),
    "resampling.oversample_s": ("s", "incl", ["resampling.oversample"]),
    "resampling.calls": ("count", "count", "resampling.calls"),
    "resampling.rows_added": ("count", "count", "resampling.rows_added"),
    "model_selection.grid_search_self_s": ("s", "self", ["model_selection.grid_search"]),
    "model_selection.combo_fold_evals": ("count", "count", "model_selection.combo_fold_evals"),
    "model_selection.select_features_self_s": ("s", "self", ["model_selection.select_features"]),
    "model_selection.kfold_s": ("s", "incl", ["model_selection.stratified_kfold"]),
    "naive_bayes.fit_s": ("s", "incl", ["naive_bayes.gnb_fit", "naive_bayes.cnb_fit"]),
    "naive_bayes.predict_many_s": (
        "s", "incl", ["naive_bayes.gnb_predict_many", "naive_bayes.cnb_predict_many"]
    ),
    "preprocess.encode_s": (
        "s", "incl", ["preprocess.fit_ordinal_encoder", "preprocess.apply_ordinal_encoder"]
    ),
    "preprocess.scale_s": (
        "s", "incl",
        ["preprocess.fit_standardizer", "preprocess.apply_standardizer", "preprocess.apply_minmax"],
    ),
    "dataset.load_s": ("s", "incl", ["dataset.load_csv"]),
    "dataset.select_group_s": ("s", "incl", ["dataset.select_group"]),
    "metrics.confusion_s": ("s", "incl", ["metrics.confusion"]),
    "experiment.run_cell_self_s": ("s", "self", ["experiment.run_cell_fitted"]),
    "report.emit_s": ("s", "incl", ["report.emit_report"]),
    "report.bytes_written": ("bytes", "count", "report.bytes_written"),
    "persist.load_s": ("s", "incl", ["persist.load_model"]),
    "persist.save_s": ("s", "incl", ["persist.save_model"]),
    "persist.preprocess_record_s": ("s", "incl", ["persist.preprocess_record"]),
    "persist.classify_s": ("s", "self", ["persist.predict_single"]),
    "persist.model_bytes": ("bytes", "count", "persist.model_bytes"),
}

# Layers whose self time inside the traced `spineml run` is reported as
# `<layer>.run_self_s`; together they cover the whole run.
RUN_LAYERS = (
    "cli", "experiment", "model_selection", "tree", "neighbors", "resampling",
    "naive_bayes", "preprocess", "dataset", "metrics", "report", "schema", "persist",
)


def layer_metrics(tracer: Tracer, run_root: int) -> dict:
    """The named per-layer metrics over every span, and the self time of each
    layer inside the span tree rooted at `run_root`."""
    inclusive, self_by_name, _ = totals(tracer.spans)
    out = {}
    for name, (unit, kind, what) in LAYER_METRICS.items():
        if kind == "count":
            value = tracer.counts.get(what, 0)
        else:
            source = inclusive if kind == "incl" else self_by_name
            value = sum(source.get(fn, 0.0) for fn in what)
        out[name] = (value, unit)
    _, _, by_layer = totals(tracer.spans, subtree(tracer.spans, run_root))
    for layer in RUN_LAYERS:
        out[f"{layer}.run_self_s"] = (by_layer.get(layer, 0.0), "s")
    unlisted = sum(v for k, v in by_layer.items() if k not in RUN_LAYERS)
    out["other.run_self_s"] = (unlisted, "s")
    return out
