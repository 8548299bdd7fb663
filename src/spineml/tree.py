"""CART decision trees and extremely randomized trees.

A tree is a set of parallel node arrays (the layout of Louppe 2014,
*Understanding Random Forests*, ch. 5). Node 0 is the root. For node i,
`feature[i]` and `threshold[i]` hold its split, `left[i]` and `right[i]`
its children (−1 at a leaf, where the feature is −1 and the threshold
NaN), and `counts[i]` the class counts of the training rows that reached
it, so any node can act as a leaf under stricter limits. Children are
numbered in the order their parents split.

One grower builds a batch of trees in lockstep from a split rule: each
step hands the rule the next node of every tree still growing, while each
tree keeps its own depth-first order and node ids. The CART rule takes, at
every node, the midpoint between consecutive distinct values of a feature
with the largest weighted impurity decrease; ties go to the lower feature,
then the lower threshold. It scores all nodes of a step in one segmented
numpy pass, so a grid search grows the trees of all its (criterion,
min_samples_leaf, fold) triples as one batch, and `dt_fit` is a batch of
one. Extremely randomized trees
(Geurts et al. 2006) grow one batch per forest, on the full sample: each
node draws from its tree's own generator `max_features` candidate features
without replacement, then a uniform threshold inside each non-constant
candidate's node-local range. The ranges, CART's impurity decrease and the
pick of the best, ties to the lower feature, are one numpy pass per step.

Routing sends x[feature] ≤ threshold to the left child. Batch routing
takes each row down its full tree once, all rows of all trees one level per
step, keeping its node at each depth. Under a (max_depth, min_samples_split)
pair a row stops at the first node on that path that is a leaf, is at depth
max_depth, or holds fewer than min_samples_split training rows. A row's
label is its node's majority class (ties to the lower label).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dataset import Dataset
from .errors import EmptyTrainingSetError, WidthMismatchError

_MIN_DECREASE = 1e-12

CRITERIA = ("gini", "entropy")

# The least value of each CART limit; max_depth may also be None (no limit).
DT_LIMITS = {"max_depth": 0, "min_samples_split": 2, "min_samples_leaf": 1}


def _binary_impurity(n, c1, criterion: str):
    """Vectorized two-class impurity from a node size and its class-1 count."""
    n, c1 = np.broadcast_arrays(np.asarray(n, dtype=float), np.asarray(c1, dtype=float))
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


def _node_arrays(counts, splits) -> dict:
    """A tree's node arrays from its class counts in node-id order and its
    (node, feature, threshold) splits in the order made; split k gives its
    node the children 2k + 1 and 2k + 2."""
    counts, splits = np.array(counts, dtype=float), np.array(splits, dtype=float).reshape(-1, 3)
    n = 2 * len(splits) + 1
    if counts.shape != (n, 2):
        raise ValueError("node counts must be pairs")
    node = splits[:, 0].astype(np.intp)
    feature, threshold, left, right = np.full(n, -1), np.full(n, np.nan), np.full(n, -1), np.full(n, -1)
    feature[node], threshold[node], left[node] = splits[:, 1], splits[:, 2], np.arange(1, n, 2)
    right[node] = left[node] + 1
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


# Upper bound on the rows × d × 8 bytes of one float64 array of the CART
# rule: it scores a step's nodes in blocks of whole nodes that stay under it.
_CHUNK_BYTES = 2**18


def _cart_split(X, y, criteria, min_samples_leaf):
    """The CART rule of a batch whose tree t uses `criteria[t]` and
    `min_samples_leaf[t]`. A block of nodes is sorted per column by node,
    then by value, in one sort of (node, value rank) keys: the order of tied
    values cannot move a cut, since cuts lie only between distinct values.
    The class-1 count left of a cut is one cumsum minus its node's base."""
    entropy, min_leaf, is_one = np.array(criteria) == "entropy", np.array(min_samples_leaf), y == 1
    n, d = X.shape
    rank = np.stack([np.unique(col, return_inverse=True)[1] for col in X.T])  # (d, n)
    cap = max(1, _CHUNK_BYTES // (8 * d))  # rows per block

    def score(trees, counts, rows, ends):  # arrays are (d, block rows)
        sizes = np.diff(ends, prepend=0)
        starts, seg, pos = ends - sizes, np.repeat(np.arange(len(trees)), sizes), np.arange(rows.size)
        key = rank[:, rows] + seg * n
        order = np.argsort(key, axis=1)
        # a cut lies between distinct ranks, which are distinct values since rows are finite
        valid = np.diff(np.take_along_axis(key, order, axis=1), axis=1, append=-1) > 0
        n_left, leaf = pos - starts[seg] + 1.0, min_leaf[trees][seg]
        valid &= (n_left >= leaf) & (sizes[seg] - n_left >= leaf)
        cum = np.cumsum(is_one[rows][order], axis=1)
        c, r = np.nonzero(valid)  # only valid cuts are scored
        node, m, c1, ent = seg[r], sizes.astype(float), counts[:, 1], entropy[trees]
        c1_left = (cum[c, r] - cum[c, starts[node]] + is_one[rows[order[c, starts[node]]]]).astype(float)
        del key, cum, valid  # before the decrease, the block's peak
        parent = np.where(ent, _binary_impurity(m, c1, "entropy"), _binary_impurity(m, c1, "gini"))
        decrease = np.full(order.shape, -np.inf)
        for criterion, at in (("gini", ~ent[node]), ("entropy", ent[node])):
            b = node[at]
            decrease[c[at], r[at]] = _decrease(parent[b], m[b], c1[b], n_left[r[at]], c1_left[at], criterion)
        col_best = np.maximum.reduceat(decrease, starts, axis=1)
        j = np.argmax(col_best, axis=0)  # first max: lowest feature
        best = col_best[j, np.arange(len(trees))]
        first = np.minimum.reduceat(np.where(decrease[j[seg], pos] == best[seg], pos, pos.size), starts)
        ok = best > _MIN_DECREASE  # first is then the lowest threshold; first + 1 is in the node
        below, above = X[rows[order[j, first]], j], X[rows[order[j, first + 1]], j]
        return np.where(ok, j, -1), np.where(ok, (below + above) / 2.0, np.nan), best

    def split(trees, counts, rows, seg, starts):
        ends, bounds = [*starts[1:], rows.size], [0]
        for b in range(1, len(trees)):  # a block takes nodes while they fit under cap rows
            if ends[b] - starts[bounds[-1]] > cap:
                bounds.append(b)
        parts = [score(np.array(trees[a:z]), counts[a:z], rows[starts[a]:ends[z - 1]],
                       np.array(ends[a:z]) - starts[a]) for a, z in zip(bounds, [*bounds[1:], len(trees)])]
        return map(np.concatenate, zip(*parts))

    return split


def _grow(X, y, split, roots, max_depth=None, min_samples_split=2) -> tuple[list, np.ndarray]:
    """Grow one tree per root row set in lockstep; returns each tree's node
    arrays and the (trees, d) normalized impurity-decrease importances. Each
    step asks `split(trees, counts, rows, seg, starts)` about the next node of
    every growing tree (node b: tree `trees[b]`, class counts `counts[b]`;
    `rows` holds the nodes' rows end to end, node b's from `starts[b]`, and
    `seg` the node of each) for (feature, threshold, decrease) arrays,
    feature −1 for a leaf. Only impure nodes inside the limits are asked.
    """
    n_trees, d = len(roots), X.shape[1]
    raw = np.zeros((n_trees, d))
    is_one = y == 1
    root_counts = [(float(r.size - is_one[r].sum()), float(is_one[r].sum())) for r in roots]
    n_splits = [0] * n_trees  # tree t's k-th split gets the children 2k + 1 and 2k + 2
    made = [np.zeros((0, 8))]  # per step: tree, node, feature, threshold, children's counts

    def grows(size, depth, counts) -> bool:
        return ((max_depth is None or depth < max_depth) and size >= min_samples_split
                and max(counts) < size)  # impure

    stacks = [[(0, r, 0, c)] if grows(r.size, 0, c) else [] for r, c in zip(roots, root_counts)]
    while trees := [t for t in range(n_trees) if stacks[t]]:
        node_ids, idxs, depths, counts = zip(*(stacks[t].pop() for t in trees))
        sizes = [idx.size for idx in idxs]
        *starts, _ = accumulate(sizes, initial=0)
        seg = np.repeat(np.arange(len(trees)), sizes)
        rows = np.concatenate(idxs)
        feature, threshold, decrease = split(trees, np.array(counts), rows, seg, starts)
        go_left = X[rows, feature[seg]] <= threshold[seg]
        n_left = np.add.reduceat(go_left, starts).tolist()
        c1_left = np.add.reduceat(go_left & is_one[rows], starts).tolist()
        step = []
        for b, (j, cut, dec) in enumerate(zip(*(a.tolist() for a in (feature, threshold, decrease)))):
            if j < 0:
                continue
            t, idx, mask, (c0, c1) = trees[b], idxs[b], go_left[starts[b]:starts[b] + sizes[b]], counts[b]
            raw[t, j] += (sizes[b] / roots[t].size) * dec
            left = (float(n_left[b] - c1_left[b]), float(c1_left[b]))
            right = (c0 - left[0], c1 - left[1])
            step.append((t, node_ids[b], j, cut, *left, *right))
            first, n_splits[t], depth = 2 * n_splits[t] + 1, n_splits[t] + 1, depths[b] + 1
            for node, part, c in zip((first, first + 1), (idx[mask], idx[~mask]), (left, right)):
                if grows(part.size, depth, c):
                    stacks[t].append((node, part, depth, c))
        made.append(np.array(step).reshape(-1, 8))
    made = np.concatenate(made)
    made = made[np.argsort(made[:, 0], kind="stable")]  # each tree's splits, in its own order
    arrays = [_node_arrays([c, *rec[:, 4:].reshape(-1, 2)], rec[:, 1:4])
              for c, rec in zip(root_counts, np.split(made, np.cumsum(n_splits)[:-1]))]
    totals = raw.sum(axis=1, keepdims=True)
    return arrays, np.divide(raw, totals, out=raw, where=totals > 0)


def dt_fit_batch(train: Dataset, roots, criteria, min_samples_leaf, max_depth: int | None = None,
                 min_samples_split: int = 2) -> list[DecisionTreeModel]:
    """CART trees grown as one lockstep batch over `train`: tree t is
    `dt_fit(train.take(roots[t]), criteria[t], max_depth, min_samples_split,
    min_samples_leaf[t])`, and a tree on an empty root is a leaf."""
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion: {criterion}")
    for name, value in (("max_depth", max_depth), ("min_samples_split", min_samples_split),
                        *(("min_samples_leaf", v) for v in min_samples_leaf)):
        if value is not None and value < DT_LIMITS[name]:
            raise ValueError(f"{name} must be ≥ {DT_LIMITS[name]}, got {value}")
    X, y = train.rows, train.labels
    arrays, importances = _grow(X, y, _cart_split(X, y, criteria, min_samples_leaf), roots,
                                max_depth, min_samples_split)
    return [DecisionTreeModel(**a, criterion=c, max_depth=max_depth, min_samples_split=min_samples_split,
                              min_samples_leaf=msl, feature_importances=imp, n_features=X.shape[1])
            for a, c, msl, imp in zip(arrays, criteria, min_samples_leaf, importances)]


def dt_fit(train: Dataset, criterion: str = "gini", max_depth: int | None = None,
           min_samples_split: int = 2, min_samples_leaf: int = 1) -> DecisionTreeModel:
    if train.n == 0:
        raise EmptyTrainingSetError("cannot fit a tree on zero rows")
    return dt_fit_batch(train, [np.arange(train.n)], [criterion], [min_samples_leaf], max_depth,
                        min_samples_split)[0]


def _route(models, Xs, limits) -> np.ndarray:
    """The labels of the rows of each Xs[t] routed through models[t], rows of
    all models end to end: one row of labels per (max_depth,
    min_samples_split) pair of `limits`, all from one pass."""
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    for model, X in zip(models, Xs):
        if X.shape[1] != model.n_features:
            raise WidthMismatchError(f"expected {model.n_features} features, got {X.shape[1]}")
    base = np.cumsum([0] + [m.left.size for m in models])[:-1]
    left, right = (np.concatenate([np.where(c >= 0, c + b, -1) for c, b in zip(children, base)])
                   for children in ([m.left for m in models], [m.right for m in models]))
    feature, threshold, counts = (np.concatenate([getattr(m, a) for m in models])
                                  for a in ("feature", "threshold", "counts"))
    X, node = np.concatenate(Xs), np.repeat(base, [X.shape[0] for X in Xs])
    path, rows = [node], np.arange(X.shape[0])
    while (rows := rows[left[node[rows]] >= 0]).size:
        at, node = node[rows], node.copy()
        node[rows] = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
        path.append(node)
    path = np.stack(path, axis=1)  # (rows, depth + 1); the last column holds only leaves
    splits, size, deepest = left >= 0, counts.sum(axis=1), path.shape[1] - 1
    stop = {s: np.argmin((splits & (size >= s))[path], axis=1) for s in {s for _, s in limits}}
    at = np.stack([np.minimum(stop[s], deepest if d is None else min(d, deepest)) for d, s in limits])
    return np.argmax(counts, axis=1)[path[np.arange(X.shape[0]), at]].astype(np.int64)


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
    return _route([model], [X], [(None, 2)])[0]


def predict_constrained(model: DecisionTreeModel, X: np.ndarray, max_depth: int | None,
                        min_samples_split: int) -> np.ndarray:
    """Predictions of the tree as if grown under the given limits: the split
    chosen at a node depends only on its rows, the criterion and
    min_samples_leaf, and these limits only decide whether a node splits."""
    return _route([model], [X], [(max_depth, min_samples_split)])[0]


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
    counts, splits = [raw["root"]["counts"]], []
    stack = [(0, raw["root"])]
    while stack:
        node, entry = stack.pop()
        if "feature" in entry:
            feature, children = int(entry["feature"]), (entry["left"], entry["right"])
            if not 0 <= feature < n_features:
                raise ValueError(f"split on feature {feature} of {n_features}")
            splits.append((node, feature, float(entry["threshold"])))
            stack += zip((len(counts), len(counts) + 1), children)
            counts += [c["counts"] for c in children]
    return DecisionTreeModel(
        **_node_arrays(counts, splits),
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


def _extra_trees_importances(X, y, rngs: list, max_features: int) -> np.ndarray:
    """The (len(rngs), d) normalized importances of extremely randomized trees
    grown in lockstep, tree t drawing from `rngs[t]`."""
    d = X.shape[1]
    size = min(max_features, d)

    def random_split(trees, counts, rows, seg, starts):
        nodes = np.arange(len(trees))
        feats = np.array([rngs[t].choice(d, size=size, replace=False) for t in trees])
        block = X[rows[:, None], feats[seg]]
        lo, hi = np.minimum.reduceat(block, starts), np.maximum.reduceat(block, starts)
        live = lo < hi  # a constant candidate draws no threshold
        # lo + (hi - lo) * random() is the value rng.uniform(lo, hi) draws
        draws = [rngs[t].random(k) for t, k in zip(trees, live.sum(axis=1).tolist())]
        thresholds = np.full(lo.shape, np.nan)
        thresholds[live] = lo[live] + (hi[live] - lo[live]) * np.concatenate(draws)
        go_left = block <= thresholds[seg]
        m = counts.sum(axis=1, keepdims=True)
        parent = 1.0 - ((counts / m) ** 2).sum(axis=1, keepdims=True)  # the node's gini
        n_left = np.add.reduceat(go_left, starts)
        c1_left = np.add.reduceat(go_left & (y[rows] == 1)[:, None], starts)
        decrease = np.where(live, _decrease(parent, m, counts[:, 1:], n_left, c1_left, "gini"), -np.inf)
        by_feature = np.argsort(feats, axis=1)  # score ties go to the lower feature
        k = by_feature[nodes, np.argmax(np.take_along_axis(decrease, by_feature, axis=1), axis=1)]
        best = decrease[nodes, k]
        return np.where(best > _MIN_DECREASE, feats[nodes, k], -1), thresholds[nodes, k], best

    return _grow(X, y, random_split, [np.arange(X.shape[0])] * len(rngs))[1]


def extratrees_fit(train: Dataset, n_trees: int = 100, max_features: int | None = None,
                   seed: int = 0) -> ExtraTreesModel:
    """Seeded forest of extremely randomized trees; importances average to 1."""
    if train.n == 0:
        raise EmptyTrainingSetError("cannot fit a forest on zero rows")
    if n_trees < 1:
        raise ValueError("n_trees must be ≥ 1")
    # default: ceil(sqrt(d))
    mf = max(1, math.isqrt(train.width - 1) + 1) if max_features is None else max_features
    if mf < 1:
        raise ValueError("max_features must be ≥ 1")
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, t))) for t in range(n_trees)]
    mean_imp = _extra_trees_importances(train.rows, train.labels, rngs, mf).mean(axis=0)
    total = mean_imp.sum()
    importances = mean_imp / total if total > 0 else mean_imp
    return ExtraTreesModel(n_trees=n_trees, max_features=mf, importances=importances)
