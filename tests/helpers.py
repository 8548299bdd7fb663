"""Shared test utilities: tiny dataset builders and independent oracles."""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from spineml.dataset import Dataset
from spineml.errors import CorruptFileError, PipelineError, VersionMismatchError
from spineml.experiment import CellResult, ExperimentConfig, ExperimentMatrix, run_matrix
from spineml.metrics import ConfusionMatrix, accuracy, confusion, f1
from spineml.neighbors import _CHUNK_BYTES, _distances
from spineml.report import RESULTS_FORMAT_VERSION, _check_aggregates
from spineml.schema import ColumnSpec, Schema
from spineml.tree import DecisionTreeModel, _route


def make_dataset(rows, labels, kinds=None, names=None) -> Dataset:
    """Dataset over a throwaway schema of plain feature columns."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[0] == 1 and np.asarray(labels).size > 1:
        rows = rows.T
    d = rows.shape[1]
    names = names or [f"F{i}" for i in range(d)]
    kinds = kinds or ["continuous"] * d
    cols = [ColumnSpec(n, k, "presurgical") for n, k in zip(names, kinds)]
    cols.append(ColumnSpec("SUCCESS", "binary", "outcome", (0, 1)))
    return Dataset(Schema(tuple(cols)), rows, np.asarray(labels, dtype=np.int64))


def normal_density(x: float, mu: float, sigma: float) -> float:
    """Textbook normal density, written independently of the package."""
    return math.exp(-((x - mu) ** 2) / (2.0 * sigma * sigma)) / (
        sigma * math.sqrt(2.0 * math.pi)
    )


def brute_force_neighbors(points, x, k, metric="euclidean"):
    """O(n^2)-style neighbor oracle: full sort by (distance, index)."""
    dists = []
    for i, p in enumerate(points):
        if metric == "euclidean":
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, x)))
        else:
            d = sum(abs(a - b) for a, b in zip(p, x))
        dists.append((d, i))
    dists.sort()
    return [i for _, i in dists[:k]], [d for d, _ in dists[:k]]


def point_to_segment_distance(p, a, b) -> float:
    """Distance from point p to the segment [a, b]."""
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float((p - a) @ ab) / denom
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def gini_impurity(counts) -> float:
    """Scalar gini impurity of class counts, written apart from the
    package's vectorized rule so it can check it."""
    c = np.asarray(counts, dtype=float)
    total = c.sum()
    if c.size == 0 or total <= 0:
        raise ValueError("impurity of empty counts")
    p = c / total
    return float(1.0 - (p * p).sum())


def entropy_impurity(counts) -> float:
    """Scalar entropy (bits) of class counts, the twin of `gini_impurity`."""
    c = np.asarray(counts, dtype=float)
    total = c.sum()
    if c.size == 0 or total <= 0:
        raise ValueError("impurity of empty counts")
    p = c[c > 0] / total
    return float(-(p * np.log2(p)).sum())


# Moved verbatim from `spineml.model_selection`, where grid search now scores
# a whole fold at once; the per-fold DT oracle in test_model_selection uses it.
def _score(scoring: str, y_true, y_pred) -> float:
    cm = confusion(y_true, y_pred)
    return f1(cm) if scoring == "f1" else accuracy(cm)


# Moved from `spineml.errors` with `gaussian_pdf`, its only raiser.
class NonPositiveSigmaError(PipelineError):
    pass


# Moved verbatim from `spineml.naive_bayes`, where nothing calls it; its
# tests in test_naive_bayes check it against `normal_density`.
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_pdf(x: float, mu: float, sigma: float) -> float:
    """Normal density at x for mean mu and standard deviation sigma > 0."""
    if sigma <= 0:
        raise NonPositiveSigmaError(f"sigma must be positive, got {sigma}")
    z = (x - mu) / sigma
    return math.exp(-0.5 * z * z) / (_SQRT_2PI * sigma)


# Moved verbatim from `spineml.tree`, where grid search routes every limit
# pair through `_route` at once; the tree and grid-search oracles use it.
def predict_constrained(model: DecisionTreeModel, X: np.ndarray, max_depth: int | None,
                        min_samples_split: int) -> np.ndarray:
    """Predictions of the tree as if grown under the given limits: the split
    chosen at a node depends only on its rows, the criterion and
    min_samples_leaf, and these limits only decide whether a node splits."""
    return _route([model], [X], [(max_depth, min_samples_split)])[0]


# The merge of appended rows into cached top-k lists as it stood before
# random oversampling was merged by multiplicities: it measures every
# appended row and sorts each cached list with them. Kept verbatim as the
# oracle of `model_selection._with_copies` and `_with_appended`.
def _with_appended(dist, labels, extra, minority, X_val, metric, k):
    """The (C, q, ≤ k) top-k neighbor lists of C oversampled folds: the
    cached (1, q, k0) lists `dist`, `labels` of the original fold rows
    followed by combination c's appended rows `extra[c]`, all labelled
    `minority`.

    A stable sort of a cached list followed by the distances to the appended
    rows is the (distance, stored index) order of sorting the whole
    oversampled matrix, and its first k serve every smaller k too. The
    distances come in blocks of (combination, query row) pairs whose
    difference tensor stays under `neighbors._CHUNK_BYTES`.
    """
    n_combos, need, d = extra.shape
    q, k0 = dist.shape[1:]
    width = min(k, k0 + need)
    out_dist, out_labels = np.empty((n_combos, q, width)), np.empty((n_combos, q, width), dtype=np.int64)
    pairs = max(1, _CHUNK_BYTES // (8 * need * d))
    q_step = min(max(1, q), pairs)
    c_step = max(1, pairs // q_step)
    for c in range(0, n_combos, c_step):
        for r in range(0, q, q_step):
            new = _distances(extra[c:c + c_step].reshape(-1, d), X_val[r:r + q_step], metric)
            new = new.reshape(new.shape[0], -1, need).transpose(1, 0, 2)  # (combos, rows, need)
            shape = new.shape[:2] + (k0,)
            cand = np.concatenate([np.broadcast_to(dist[:, r:r + q_step], shape), new], axis=2)
            cand_labels = np.concatenate([np.broadcast_to(labels[:, r:r + q_step], shape),
                                          np.full(new.shape, minority, dtype=np.int64)], axis=2)
            order = np.argsort(cand, axis=2, kind="stable")[:, :, :width]
            for out, a in ((out_dist, cand), (out_labels, cand_labels)):
                out[c:c + c_step, r:r + q_step] = np.take_along_axis(a, order, axis=2)
    return out_dist, out_labels


def failed_and_tuned_matrix() -> ExperimentMatrix:
    """Two groups × three models: KNN untuned, KNN_opt failed in every group
    (its only k is 0) and DT_opt tuned over 4 combinations, with a cv_table."""
    return run_matrix(ExperimentConfig(
        synthetic={"n": 80, "seed": 3}, groups=("I", "VII"), models=("KNN", "KNN_opt", "DT_opt"),
        n_folds=4, grids={"KNN": {"k": (0,)}, "DT": {"max_depth": (2, None), "min_samples_split": (2,),
                                                    "min_samples_leaf": (1,)}},
    ))


# Copied verbatim from `spineml.report` as it stood when each results.json
# field was still named one by one; the oracle of its field-driven
# replacement in test_report. Since then `matrix_from_dict` also maps an
# OverflowError (an integer past float range) to CorruptFileError.
def matrix_to_dict(matrix: ExperimentMatrix) -> dict:
    cells = []
    for g in matrix.groups:
        for m in matrix.models:
            c = matrix.cells[(g, m)]
            cells.append(
                {
                    "group": g,
                    "model": m,
                    "hyperparameters": c.hyperparameters,
                    "accuracy": c.accuracy,
                    "f1": c.f1,
                    "macro_f1": c.macro_f1,
                    "confusion": None
                    if c.confusion is None
                    else {
                        "tp": c.confusion.tp,
                        "fp": c.confusion.fp,
                        "tn": c.confusion.tn,
                        "fn": c.confusion.fn,
                    },
                    "n_test": c.n_test,
                    "cv_table": c.cv_table,
                    "error": c.error,
                }
            )
    return {
        "format_version": RESULTS_FORMAT_VERSION,
        "provenance": matrix.provenance,
        "groups": list(matrix.groups),
        "models": list(matrix.models),
        "cells": cells,
        "group_stats": matrix.group_stats,
        "model_stats": matrix.model_stats,
    }


def matrix_from_dict(raw: dict) -> ExperimentMatrix:
    try:
        version = raw["format_version"]
        if version != RESULTS_FORMAT_VERSION:
            raise VersionMismatchError(f"unsupported results version: {version}")
        cells = {}
        for entry in raw["cells"]:
            for key in ("accuracy", "f1", "macro_f1"):
                value = entry[key]
                if value is not None and not isinstance(value, Real):
                    raise CorruptFileError(f"results file holds a non-numeric {key}: {value!r}")
            cm = entry["confusion"]
            cells[(entry["group"], entry["model"])] = CellResult(
                group_id=entry["group"],
                model_id=entry["model"],
                hyperparameters=entry["hyperparameters"],
                accuracy=entry["accuracy"],
                f1=entry["f1"],
                macro_f1=entry["macro_f1"],
                confusion=None if cm is None else ConfusionMatrix(**cm),
                cv_table=entry["cv_table"],
                n_test=entry["n_test"],
                error=entry["error"],
            )
        matrix = ExperimentMatrix(
            groups=tuple(raw["groups"]),
            models=tuple(raw["models"]),
            cells=cells,
            group_stats=raw["group_stats"],
            model_stats=raw["model_stats"],
            provenance=raw["provenance"],
        )
        _check_aggregates(matrix, CorruptFileError)
        return matrix
    except KeyError as exc:
        raise CorruptFileError(f"results file is malformed: missing key {exc}") from exc
    except TypeError as exc:
        raise CorruptFileError(f"results file is malformed: {exc}") from exc

