"""CART decision trees and extremely randomized trees.

A tree is a set of parallel node arrays (the layout of Louppe 2014,
*Understanding Random Forests*, ch. 5). Node 0 is the root. For node i,
`feature[i]` and `threshold[i]` hold its split, `left[i]` and `right[i]`
its children (−1 at a leaf, where the feature is −1 and the threshold
NaN), and `counts[i]` the class counts of the training rows that reached
it, so any node can act as a leaf under stricter limits. Children are
numbered in the order their parents split.

One depth-first grower builds both kinds of tree from a split rule. The
CART rule scans, at every node, the midpoints between consecutive distinct
sorted values of every feature and takes the (feature, threshold) pair
with the largest weighted impurity decrease; score ties resolve to the
lower feature index, then the lower threshold. Extremely randomized trees
(Geurts et al. 2006) grow on the full sample (no bootstrap): each node
draws `max_features` candidate features without replacement and, in one
array draw in candidate order, a uniform-random threshold inside each
non-constant candidate's node-local range (a constant one draws nothing).
The candidates are scored together by CART's impurity-decrease formula
(`_decrease`); the best is kept, score ties to the lower feature index.

Routing sends x[feature] ≤ threshold to the left child. Batch routing
moves every row down one level per step, all rows at once, and a row stops
at a leaf, at depth `max_depth`, or at a node that holds fewer than
`min_samples_split` training rows. A row's label is its node's majority
class (ties to the lower label).
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


@dataclass(frozen=True)
class DecisionTreeModel:
    feature: np.ndarray  # (nodes,) split feature, −1 at a leaf
    threshold: np.ndarray  # (nodes,) split threshold, NaN at a leaf
    left: np.ndarray  # (nodes,) left child, −1 at a leaf
    right: np.ndarray  # (nodes,) right child, −1 at a leaf
    counts: np.ndarray  # (nodes, 2) training class counts
    criterion: str
    max_depth: int | None
    min_samples_split: int
    min_samples_leaf: int
    feature_importances: np.ndarray
    n_features: int


_LEAF = (-1, math.nan, -1, -1)  # (feature, threshold, left, right) of a leaf


def _split_node(nodes: list, counts: list, node: int, feature, threshold, child_counts):
    """Turn leaf `node` into a split with two new leaf children; returns their ids."""
    ids = len(nodes), len(nodes) + 1
    nodes[node] = (feature, threshold, *ids)
    nodes += [_LEAF, _LEAF]
    counts += child_counts
    return ids


def _node_arrays(nodes: list, counts: list) -> dict:
    feature, threshold, left, right = map(np.array, zip(*nodes))
    counts = np.array(counts, dtype=float)
    if counts.shape != (len(nodes), 2):
        raise ValueError("node counts must be pairs")
    return dict(feature=feature, threshold=threshold, left=left, right=right, counts=counts)


def _decrease(parent, m, c1, n_left, c1_left, criterion: str):
    """Impurity decrease of sending `n_left` rows, `c1_left` of them class 1,
    left from a node of `m` rows (`c1` of class 1) and impurity `parent`;
    vectorized over candidate splits."""
    n_right = m - n_left
    return parent - (
        n_left * _binary_impurity(n_left, c1_left, criterion)
        + n_right * _binary_impurity(n_right, c1 - c1_left, criterion)
    ) / m


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
    valid = xs[1:] > xs[:-1]
    if min_samples_leaf > 1:
        valid &= (n_left >= min_samples_leaf) & (m - n_left >= min_samples_leaf)
    if not valid.any():
        return None

    decrease = np.where(valid, _decrease(parent, m, total1, n_left, c1_left, criterion), -np.inf)

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


def _grow(X, y, split, max_depth=None, min_samples_split=2) -> tuple[dict, np.ndarray]:
    """Grow a tree depth first, right child popped first; returns its node
    arrays and its normalized impurity-decrease importances.

    `split(idx, counts)` gives the (feature, threshold, decrease) of the node
    holding rows `idx`, or None to leave it a leaf. It is asked only about
    impure nodes inside the depth and split-size limits.
    """
    n_total, d = X.shape
    raw_importance = np.zeros(d)
    nodes, node_counts = [_LEAF], [_class_counts(y)]
    stack = [(0, np.arange(n_total), 0)]
    while stack:
        node, idx, depth = stack.pop()
        m = idx.size
        counts = node_counts[node]
        if (
            (max_depth is not None and depth >= max_depth)
            or m < min_samples_split
            or counts.max() == counts.sum()  # pure node
        ):
            continue
        found = split(idx, counts)
        if found is None:
            continue
        j, threshold, decrease = found
        raw_importance[j] += (m / n_total) * decrease
        go_left = X[idx, j] <= threshold
        left_idx, right_idx = idx[go_left], idx[~go_left]
        left, right = _split_node(nodes, node_counts, node, j, threshold,
                                  [_class_counts(y[left_idx]), _class_counts(y[right_idx])])
        stack.append((left, left_idx, depth + 1))
        stack.append((right, right_idx, depth + 1))
    total = raw_importance.sum()
    return _node_arrays(nodes, node_counts), raw_importance / total if total > 0 else raw_importance


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

    def best_split(idx, counts):
        return _best_split(X[idx], y[idx], criterion, min_samples_leaf)

    arrays, importances = _grow(X, y, best_split, max_depth, min_samples_split)
    return DecisionTreeModel(
        **arrays,
        criterion=criterion,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        feature_importances=importances,
        n_features=X.shape[1],
    )


def _route(
    model: DecisionTreeModel, X, max_depth: int | None = None, min_samples_split: int = 2
) -> np.ndarray:
    """The majority label of the node each row of X stops at, routing all
    rows one level per step."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.n_features:
        raise WidthMismatchError(f"expected {model.n_features} features, got {X.shape[1]}")
    splits = (model.left >= 0) & (model.counts.sum(axis=1) >= min_samples_split)
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0])
    depth = 0
    while rows.size and (max_depth is None or depth < max_depth):
        rows = rows[splits[node[rows]]]
        at = node[rows]
        go_left = X[rows, model.feature[at]] <= model.threshold[at]
        node[rows] = np.where(go_left, model.left[at], model.right[at])
        depth += 1
    return np.argmax(model.counts[node], axis=1).astype(np.int64)


def dt_predict(model: DecisionTreeModel, x) -> tuple[int, float]:
    """Leaf majority label (ties to the lower label) and its count fraction,
    by a walk over one row."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_features,):
        raise WidthMismatchError(f"expected {model.n_features} features, got {x.shape}")
    node = 0
    while model.left[node] >= 0:
        go_left = x[model.feature[node]] <= model.threshold[node]
        node = model.left[node] if go_left else model.right[node]
    counts = model.counts[node]
    label = int(np.argmax(counts))
    return label, float(counts[label] / counts.sum())


def dt_predict_many(model: DecisionTreeModel, X: np.ndarray) -> np.ndarray:
    return _route(model, X)


def predict_constrained(
    model: DecisionTreeModel, X: np.ndarray, max_depth: int | None, min_samples_split: int
) -> np.ndarray:
    """Predictions of the tree as if it had been grown under the given limits.

    Valid because the split chosen at a node depends only on the node's
    rows, the criterion, and min_samples_leaf; depth and split-size limits
    only decide whether a node splits at all.
    """
    return _route(model, X, max_depth, min_samples_split)


def dt_to_dict(model: DecisionTreeModel) -> dict:
    """The tree as a JSON-ready dict of nested nodes: each node holds its
    counts, and a split also its feature, threshold, left and right."""
    nodes = [{"counts": c} for c in model.counts.tolist()]
    for i in np.flatnonzero(model.left >= 0).tolist():
        nodes[i].update(
            feature=int(model.feature[i]),
            threshold=float(model.threshold[i]),
            left=nodes[model.left[i]],
            right=nodes[model.right[i]],
        )
    return {
        "criterion": model.criterion,
        "max_depth": model.max_depth,
        "min_samples_split": model.min_samples_split,
        "min_samples_leaf": model.min_samples_leaf,
        "feature_importances": model.feature_importances.tolist(),
        "n_features": model.n_features,
        "root": nodes[0],
    }


def dt_from_dict(raw: dict) -> DecisionTreeModel:
    """Inverse of `dt_to_dict`; nodes get the ids the fit gave them."""
    if raw["criterion"] not in CRITERIA:
        raise ValueError(f"unknown criterion: {raw['criterion']!r}")
    n_features = int(raw["n_features"])
    nodes, counts = [_LEAF], [raw["root"]["counts"]]
    stack = [(0, raw["root"])]
    while stack:
        node, entry = stack.pop()
        if "feature" in entry:
            feature, children = int(entry["feature"]), (entry["left"], entry["right"])
            if not 0 <= feature < n_features:
                raise ValueError(f"split on feature {feature} of {n_features}")
            ids = _split_node(nodes, counts, node, feature, float(entry["threshold"]),
                              [c["counts"] for c in children])
            stack += zip(ids, children)
    return DecisionTreeModel(
        **_node_arrays(nodes, counts),
        criterion=raw["criterion"],
        max_depth=raw["max_depth"],
        min_samples_split=int(raw["min_samples_split"]),
        min_samples_leaf=int(raw["min_samples_leaf"]),
        feature_importances=np.array(raw["feature_importances"], dtype=float),
        n_features=n_features,
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
) -> np.ndarray:
    """The normalized impurity-decrease importances of one grown tree."""
    d = X.shape[1]

    def random_split(idx, counts):
        feats = rng.choice(d, size=min(max_features, d), replace=False)
        block = X[np.ix_(idx, feats)]
        lo, hi = block.min(axis=0), block.max(axis=0)
        live = lo < hi  # a constant candidate draws no threshold
        if not live.any():
            return None
        feats, block = feats[live], block[:, live]
        thresholds = rng.uniform(lo[live], hi[live])
        go_left = block <= thresholds
        decrease = _decrease(gini_impurity(counts), idx.size, counts[1],
                             go_left.sum(axis=0), y[idx] @ go_left, "gini")
        by_feature = np.argsort(feats)  # score ties go to the lower feature
        k = by_feature[np.argmax(decrease[by_feature])]
        if not decrease[k] > _MIN_DECREASE:
            return None
        return int(feats[k]), float(thresholds[k]), float(decrease[k])

    return _grow(X, y, random_split)[1]


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
        per_tree[t] = _grow_extra_tree(train.rows, train.labels, rng, mf)
    mean_imp = per_tree.mean(axis=0)
    total = mean_imp.sum()
    importances = mean_imp / total if total > 0 else mean_imp
    return ExtraTreesModel(n_trees=n_trees, max_features=mf, importances=importances)
