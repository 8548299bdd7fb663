"""Shared test utilities: tiny dataset builders and independent oracles."""

from __future__ import annotations

import math

import numpy as np

from spineml.dataset import Dataset
from spineml.metrics import accuracy, confusion, f1
from spineml.schema import ColumnSpec, Schema


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
