"""CART decision trees and extremely randomized trees.

The CART builder scans, at every node, the midpoints between consecutive
distinct sorted values of every feature and takes the (feature, threshold)
pair with the largest weighted impurity decrease; score ties resolve to
the lower feature index, then the lower threshold. Routing sends
x[feature] ≤ threshold to the left child.

Extremely randomized trees grow on the full sample (no bootstrap): each
node draws `max_features` candidate features without replacement and one
uniform-random threshold per candidate inside that feature's node-local
range, then keeps the best candidate by impurity decrease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import EmptyCountsError, EmptyTrainingSetError, WidthMismatchError

_MIN_DECREASE = 1e-12

CRITERIA = ("gini", "entropy")


def gini_impurity(counts) -> float:
    c = np.asarray(counts, dtype=float)
    total = c.sum()
    if c.size == 0 or total <= 0:
        raise EmptyCountsError("impurity of empty counts")
    p = c / total
    return float(1.0 - (p * p).sum())


def entropy_impurity(counts) -> float:
    c = np.asarray(counts, dtype=float)
    total = c.sum()
    if c.size == 0 or total <= 0:
        raise EmptyCountsError("impurity of empty counts")
    p = c[c > 0] / total
    return float(-(p * np.log2(p)).sum())


def _binary_impurity(n, c1, criterion: str):
    """Vectorized two-class impurity from a node size and its class-1 count."""
    n, c1 = np.broadcast_arrays(
        np.asarray(n, dtype=float), np.asarray(c1, dtype=float)
    )
    p1 = np.divide(c1, n, out=np.zeros_like(c1), where=n > 0)
    p0 = 1.0 - p1
    if criterion == "gini":
        return 1.0 - p0 * p0 - p1 * p1
    out = np.zeros_like(p1)
    for p in (p0, p1):
        mask = p > 0
        out = out - np.where(mask, p * np.log2(np.where(mask, p, 1.0)), 0.0)
    return out


@dataclass
class TreeNode:
    """Either a split (feature/threshold with two children) or a leaf.

    Every node keeps the class counts of the samples routed to it during
    fitting, so any subtree can act as a leaf under stricter constraints.
    """

    counts: np.ndarray
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def majority(self) -> tuple[int, float]:
        label = int(np.argmax(self.counts))
        return label, float(self.counts[label] / self.counts.sum())


@dataclass(frozen=True)
class DecisionTreeModel:
    root: TreeNode
    criterion: str
    max_depth: int | None
    min_samples_split: int
    min_samples_leaf: int
    feature_importances: np.ndarray
    n_features: int


def _best_split(X: np.ndarray, y: np.ndarray, criterion: str, min_samples_leaf: int):
    """Best (feature, threshold, decrease) at a node, or None when nothing qualifies."""
    m, d = X.shape
    if m < 2:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    ones_cum = np.cumsum(ys, axis=0)
    total1 = float(y.sum())
    parent = _binary_impurity(np.array(float(m)), np.array(total1), criterion)

    n_left = np.arange(1, m, dtype=float)[:, None]
    c1_left = ones_cum[:-1].astype(float)
    n_right = m - n_left
    c1_right = total1 - c1_left
    valid = xs[1:] > xs[:-1]
    if min_samples_leaf > 1:
        valid &= (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    if not valid.any():
        return None

    child = (
        n_left * _binary_impurity(n_left, c1_left, criterion)
        + n_right * _binary_impurity(n_right, c1_right, criterion)
    ) / m
    decrease = np.where(valid, parent - child, -np.inf)

    best_rows = np.argmax(decrease, axis=0)          # first max: lowest threshold
    best_vals = decrease[best_rows, np.arange(d)]
    j = int(np.argmax(best_vals))                    # first max: lowest feature
    if not best_vals[j] > _MIN_DECREASE:
        return None
    b = int(best_rows[j])
    threshold = (xs[b, j] + xs[b + 1, j]) / 2.0
    return j, float(threshold), float(best_vals[j])


def _class_counts(y: np.ndarray) -> np.ndarray:
    return np.array([float(np.sum(y == 0)), float(np.sum(y == 1))])


def dt_fit(
    train: Dataset,
    criterion: str = "gini",
    max_depth: int | None = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
) -> DecisionTreeModel:
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion: {criterion}")
    if train.n == 0:
        raise EmptyTrainingSetError("cannot fit a tree on zero rows")
    X, y = train.rows, train.labels
    n_total, d = X.shape
    raw_importance = np.zeros(d)

    root = TreeNode(counts=_class_counts(y))
    stack = [(root, np.arange(n_total), 0)]
    while stack:
        node, idx, depth = stack.pop()
        m = idx.size
        if (
            (max_depth is not None and depth >= max_depth)
            or m < min_samples_split
            or node.counts.max() == node.counts.sum()  # pure node
        ):
            continue
        found = _best_split(X[idx], y[idx], criterion, min_samples_leaf)
        if found is None:
            continue
        j, threshold, decrease = found
        raw_importance[j] += (m / n_total) * decrease
        go_left = X[idx, j] <= threshold
        left_idx, right_idx = idx[go_left], idx[~go_left]
        node.feature = j
        node.threshold = threshold
        node.left = TreeNode(counts=_class_counts(y[left_idx]))
        node.right = TreeNode(counts=_class_counts(y[right_idx]))
        stack.append((node.left, left_idx, depth + 1))
        stack.append((node.right, right_idx, depth + 1))

    total = raw_importance.sum()
    importances = raw_importance / total if total > 0 else raw_importance
    return DecisionTreeModel(
        root=root,
        criterion=criterion,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        feature_importances=importances,
        n_features=d,
    )


def route(
    root: TreeNode,
    x: np.ndarray,
    max_depth: int | None = None,
    min_samples_split: int = 2,
) -> TreeNode:
    """Walk to the effective leaf, honoring optional stricter stopping rules."""
    node, depth = root, 0
    while not node.is_leaf:
        if max_depth is not None and depth >= max_depth:
            break
        if node.n < min_samples_split:
            break
        node = node.left if x[node.feature] <= node.threshold else node.right
        depth += 1
    return node


def dt_predict(model: DecisionTreeModel, x) -> tuple[int, float]:
    """Leaf majority label (ties to the lower label) and its count fraction."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_features,):
        raise WidthMismatchError(f"expected {model.n_features} features, got {x.shape}")
    return route(model.root, x).majority()


def dt_predict_many(model: DecisionTreeModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.n_features:
        raise WidthMismatchError(
            f"expected {model.n_features} features, got {X.shape[1]}"
        )
    return np.array([route(model.root, x).majority()[0] for x in X], dtype=np.int64)


def _node_to_dict(node: TreeNode) -> dict:
    out = {"counts": [float(c) for c in node.counts]}
    if not node.is_leaf:
        out["feature"] = int(node.feature)
        out["threshold"] = float(node.threshold)
        out["left"] = _node_to_dict(node.left)
        out["right"] = _node_to_dict(node.right)
    return out


def _node_from_dict(raw: dict) -> TreeNode:
    node = TreeNode(counts=np.array(raw["counts"], dtype=float))
    if "feature" in raw:
        node.feature = int(raw["feature"])
        node.threshold = float(raw["threshold"])
        node.left = _node_from_dict(raw["left"])
        node.right = _node_from_dict(raw["right"])
    return node


def dt_to_dict(model: DecisionTreeModel) -> dict:
    """The tree as a JSON-ready dict of nested nodes."""
    return {
        "criterion": model.criterion,
        "max_depth": model.max_depth,
        "min_samples_split": model.min_samples_split,
        "min_samples_leaf": model.min_samples_leaf,
        "feature_importances": model.feature_importances.tolist(),
        "n_features": model.n_features,
        "root": _node_to_dict(model.root),
    }


def dt_from_dict(raw: dict) -> DecisionTreeModel:
    return DecisionTreeModel(
        root=_node_from_dict(raw["root"]),
        criterion=raw["criterion"],
        max_depth=raw["max_depth"],
        min_samples_split=int(raw["min_samples_split"]),
        min_samples_leaf=int(raw["min_samples_leaf"]),
        feature_importances=np.array(raw["feature_importances"], dtype=float),
        n_features=int(raw["n_features"]),
    )


def predict_constrained(
    root: TreeNode, X: np.ndarray, max_depth: int | None, min_samples_split: int
) -> np.ndarray:
    """Predictions of the tree as if it had been grown under the given limits.

    Valid because the split chosen at a node depends only on the node's
    rows, the criterion, and min_samples_leaf; depth and split-size limits
    only decide whether a node splits at all.
    """
    return np.array(
        [route(root, x, max_depth, min_samples_split).majority()[0] for x in X],
        dtype=np.int64,
    )


@dataclass(frozen=True)
class ExtraTreesModel:
    n_trees: int
    max_features: int
    importances: np.ndarray


def _grow_extra_tree(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    max_features: int,
    n_total: int,
) -> np.ndarray:
    """The normalized impurity-decrease importances of one grown tree."""
    d = X.shape[1]
    raw_importance = np.zeros(d)
    stack = [(_class_counts(y), np.arange(X.shape[0]))]  # (node class counts, rows)
    while stack:
        counts, idx = stack.pop()
        m = idx.size
        if m < 2 or counts.max() == counts.sum():
            continue
        feats = rng.choice(d, size=min(max_features, d), replace=False)
        best = None
        parent = gini_impurity(counts)
        for f in feats:
            col = X[idx, f]
            lo, hi = col.min(), col.max()
            if lo == hi:
                continue
            t = float(rng.uniform(lo, hi))
            go_left = col <= t
            n_l = int(go_left.sum())
            c1_l = float(y[idx[go_left]].sum())
            c1 = float(counts[1])
            dec = parent - (
                n_l * float(_binary_impurity(np.array(float(n_l)), np.array(c1_l), "gini"))
                + (m - n_l)
                * float(_binary_impurity(np.array(float(m - n_l)), np.array(c1 - c1_l), "gini"))
            ) / m
            cand = (dec, int(f), t)
            if best is None or cand[0] > best[0] or (
                cand[0] == best[0] and (cand[1], cand[2]) < (best[1], best[2])
            ):
                best = cand
        if best is None or not best[0] > _MIN_DECREASE:
            continue
        dec, f, t = best
        raw_importance[f] += (m / n_total) * dec
        go_left = X[idx, f] <= t
        left_idx, right_idx = idx[go_left], idx[~go_left]
        stack.append((_class_counts(y[left_idx]), left_idx))
        stack.append((_class_counts(y[right_idx]), right_idx))
    total = raw_importance.sum()
    return raw_importance / total if total > 0 else raw_importance


def extratrees_fit(
    train: Dataset,
    n_trees: int = 100,
    max_features: int | None = None,
    seed: int = 0,
) -> ExtraTreesModel:
    """Seeded forest of extremely randomized trees; importances average to 1."""
    if train.n == 0:
        raise EmptyTrainingSetError("cannot fit a forest on zero rows")
    if n_trees < 1:
        raise ValueError("n_trees must be ≥ 1")
    d = train.width
    # default: ceil(sqrt(d))
    mf = max_features if max_features is not None else max(1, math.isqrt(d - 1) + 1)
    per_tree = np.zeros((n_trees, d))
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        per_tree[t] = _grow_extra_tree(train.rows, train.labels, rng, mf, train.n)
    mean_imp = per_tree.mean(axis=0)
    total = mean_imp.sum()
    importances = mean_imp / total if total > 0 else mean_imp
    return ExtraTreesModel(n_trees=n_trees, max_features=mf, importances=importances)
