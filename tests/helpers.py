"""Shared test utilities: tiny dataset builders and independent oracles."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Integral, Real

import numpy as np

from spineml import tree
from spineml.cli import _parse_list
from spineml.dataset import Dataset, IngestionReport
from spineml.errors import (
    ClassSmallerThanFoldsError,
    ClassTooSmallError,
    ConfigError,
    CorruptFileError,
    EmptyAfterFilteringError,
    EmptyMatrixError,
    MalformedCsvError,
    MinorityTooSmallError,
    MissingColumnError,
    PipelineError,
    SingleClassError,
    TooFewRowsError,
    UnknownGroupError,
    VersionMismatchError,
)
from spineml.experiment import (
    _SYNTHETIC_KEYS,
    MODEL_IDS,
    CellResult,
    ExperimentConfig,
    ExperimentMatrix,
    _check_type,
    run_matrix,
)
from spineml.metrics import ConfusionMatrix, accuracy, confusion, f1, precision, recall
from spineml.model_selection import FoldPlan, ParamGrid, SplitIndices
from spineml.neighbors import _CHUNK_BYTES, METRICS, WEIGHTINGS, _distances, _nearest, _nearest_each
from spineml.preprocess import ScalerState
from spineml.resampling import MinorityBasis, ResamplePlan
from spineml.report import RESULTS_FORMAT_VERSION, _check_aggregates
from spineml.schema import GROUP_IDS, ColumnSpec, Schema, default_schema, read_json
from spineml.synthetic import SYNTHETIC_DEFAULTS, check_synthetic
from spineml.tree import (
    _MIN_DECREASE,
    CRITERIA,
    DT_LIMITS,
    DecisionTreeModel,
    _binary_impurity,
    _decrease,
    _grows,
    _node_arrays,
    _preorder,
    _route,
)


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


def schema_without_bounds(tmp_path, name: str) -> str:
    """The path of a schema file of the default columns with no bounds on
    column `name`, so that a CSV row with any finite value there is kept."""
    columns = [{"name": c.name, "kind": c.kind, "role": c.role,
                **dict(zip(("min", "max"), (None, None) if c.name == name else c.valid_range or (None, None)))}
               for c in default_schema().columns]
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"columns": columns}))
    return str(path)


def layouts(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values of 2-d `A` C-ordered, Fortran-ordered and as a view with
    strided columns. From d = 8 on, numpy sums a contiguous axis pairwise and
    a strided one in order, so a reduction over the columns may round each
    layout differently."""
    return np.ascontiguousarray(A), np.asfortranarray(A), np.repeat(A, 2, axis=1)[:, ::2]


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


# The scalar `accuracy` and `f1` as `spineml.metrics` spelled them before
# each became row 0 of `accuracy_many` and `f1_many`. Kept verbatim, renamed,
# as the oracle of the batch scores in test_metrics.
def scalar_accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise EmptyMatrixError("no evaluated rows")
    return (cm.tp + cm.tn) / cm.total


def scalar_f1(cm: ConfusionMatrix) -> float:
    """Harmonic mean of precision and recall; 0 when both degenerate."""
    if cm.total == 0:
        raise EmptyMatrixError("no evaluated rows")
    p = precision(cm)
    r = recall(cm)
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


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


# Moved verbatim from `spineml.tree`, which now divides by a node size of 1
# where a node is empty instead of dividing under a mask; the impurity test
# in test_tree checks the two give the same bytes.
def binary_impurity_reference(n, c1, criterion: str):
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


# Moved verbatim from `spineml.tree`, whose grower now keeps its nodes, rows
# and stacks in arrays; the lockstep-grower oracle test in test_tree uses it.
def grow_reference(X, y, split, roots, max_depth=None, min_samples_split=2) -> tuple[list, np.ndarray]:
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


# `spineml.tree`'s CART rule, its blocking and the grower as they stood
# before trees of one criterion on equal roots shared their nodes: every
# tree's every node is sorted and scored for itself, under a leaf mask. Kept
# verbatim as the oracle of the sharing grower, renamed, with the two caps
# read from `spineml.tree` so that a test's caps reach both growers.

def blocked_per_tree(score, cap: int):
    """The split rule that hands `score` a step's nodes in blocks of whole
    nodes, each of at most `cap` rows unless one node alone has more, as the
    block's own (trees, counts, rows, seg, starts), and joins the blocks'
    (feature, threshold, decrease) arrays."""
    def split(trees, counts, rows, seg, starts):
        ends, parts, a = np.append(starts[1:], rows.size), [], 0
        while a < trees.size:  # a block takes nodes while they fit under cap rows
            z = max(a + 1, int(np.searchsorted(ends, starts[a] + cap, side="right")))
            lo, hi = starts[a], ends[z - 1]
            parts.append(score(trees[a:z], counts[a:z], rows[lo:hi], seg[lo:hi] - a, starts[a:z] - lo))
            a = z
        return map(np.concatenate, zip(*parts))

    return split


def cart_split_per_tree(X, y, criteria, min_samples_leaf):
    """The CART rule of a batch whose tree t uses `criteria[t]` and
    `min_samples_leaf[t]`. A block of nodes is sorted per column by node,
    then by value, in one sort of (node, value rank) keys: the order of tied
    values cannot move a cut, since cuts lie only between distinct values.
    The class-1 count left of a cut is one cumsum minus its node's base."""
    entropy, min_leaf, is_one = np.array(criteria) == "entropy", np.array(min_samples_leaf), y == 1
    n, d = X.shape
    rank = np.stack([np.unique(col, return_inverse=True)[1] for col in X.T])  # (d, n)

    def score(trees, counts, rows, seg, starts):  # arrays are (d, block rows)
        sizes, pos = np.diff(starts, append=rows.size), np.arange(rows.size)
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

    # A level-by-level step fills its blocks with small nodes whose every cut
    # is scored, where the rule's peak is about 16 block-sized arrays (4.1 MB
    # for 256 KB ones), so CART's blocks take half the rows the bound allows.
    return blocked_per_tree(score, max(1, tree._CHUNK_BYTES // (16 * d)))


def grow_per_tree(X, y, split, roots, max_depth=None, min_samples_split=2, depth_first=False):
    """Grow one tree per root row set in lockstep. Each step asks
    `split(trees, counts, rows, seg, starts)` about pending nodes (node b:
    tree `trees[b]`, class counts `counts[b]`; `rows` holds the nodes' rows
    end to end, node b's from `starts[b]`, and `seg` the node of each) for
    (feature, threshold, decrease) arrays, feature −1 for a leaf. Only
    impure nodes inside the limits are pending. A CART step takes every
    pending node of every tree, the whole frontier, so a batch grows level
    by level. A `depth_first` step, the forest's, whose draws follow each
    tree's node order, takes the next node of each tree, right child first.
    Either way a step takes at most `tree._STEP_ROWS` rows besides its largest
    node, the smallest nodes first; the rest wait.

    Returns ((root counts, splits), importances): the (trees, 2) root class
    counts, the (trees, d) normalized impurity-decrease importances, and,
    for CART, the splits in each tree's depth-first order (`_preorder`); a
    forest keeps none, only each tree's importance sums.

    The trees' root rows lie end to end in one array, and a node owns a
    range of it; a split reorders its range stably into the left rows, then
    the right. The pending nodes are (tree, start, end, depth, class-1
    count, ref) rows in the order pushed, ref being 2 · (parent split) +
    side (0 left, 1 right), or −1 − tree at a root.
    """
    n_trees, d = len(roots), X.shape[1]
    sizes = np.array([len(r) for r in roots], dtype=np.intp)
    # row ids in the least dtype that holds them: it is the grower's largest array
    perm = np.concatenate([np.zeros(0, np.intp), *roots]).astype(np.min_scalar_type(X.shape[0]))
    is_one = y == 1
    root_c1 = np.array([np.count_nonzero(is_one[r]) for r in roots], dtype=np.intp)
    raw = np.zeros((n_trees, d))
    t, ends = np.arange(n_trees), np.cumsum(sizes)
    pool = np.stack([t, ends - sizes, ends, 0 * t, root_c1, -1 - t], axis=1)
    pool = pool[_grows(sizes, 0, root_c1, max_depth, min_samples_split)]
    made, n_made = [(np.zeros((0, 6), np.int32), np.zeros((0, 2)))], 0  # per step: the splits' records
    while len(pool):
        if depth_first:  # each tree's last pushed node, the top of its stack
            top = np.full(n_trees, -1)
            np.maximum.at(top, pool[:, 0], np.arange(len(pool)))
            pick = top[top >= 0]
        else:
            pick = np.arange(len(pool))
        picked = pool[pick]
        size = picked[:, 2] - picked[:, 1]
        if size.sum() > tree._STEP_ROWS:  # the largest node, and the others smallest first while they fit
            by_size = np.argsort(size, kind="stable")
            fit = np.cumsum(size[by_size]) <= tree._STEP_ROWS
            fit[-1] = True
            keep = np.sort(by_size[fit])
            pick, picked, size = pick[keep], picked[keep], size[keep]
        wait = np.ones(len(pool), dtype=bool)
        wait[pick] = False
        (trees, lo, hi, depth, c1, ref), pool = picked.T, pool[wait]
        starts = np.cumsum(size) - size
        seg = np.repeat(np.arange(trees.size), size)
        rows = perm[np.arange(seg.size) + (lo - starts)[seg]].astype(np.intp)  # an index many times a step
        feature, threshold, decrease = split(trees, np.array([size - c1, c1], dtype=float).T, rows, seg, starts)
        go_left = X[rows, feature[seg]] <= threshold[seg]
        n_left = np.add.reduceat(go_left, starts)
        c1_left = np.add.reduceat(go_left & is_one[rows], starts)
        # each node's slots take its left rows, then its right rows, each in
        # order: a stable sort on (node, side), a radix sort on ≤ 16-bit keys
        side = (2 * seg + ~go_left).astype(np.min_scalar_type(2 * trees.size))
        perm[np.arange(seg.size) + (lo - starts)[seg]] = rows[np.argsort(side, kind="stable")]
        s = feature >= 0
        t, f, m, nl, l1, c1 = trees[s], feature[s], size[s], n_left[s], c1_left[s], c1[s]
        gain = (m / sizes[t]) * decrease[s]
        if depth_first:
            raw[t, f] += gain  # a tree splits once per step, so in the order made
        else:  # (ref, feature, left counts, right counts) and (threshold, gain)
            rec = np.stack([ref[s], f, nl - l1, l1, (m - nl) - (c1 - l1), c1 - l1], axis=1).astype(np.int32)
            made.append((rec, np.stack([threshold[s], gain], axis=1)))
        kids = np.repeat(picked[s], 2, axis=0)  # each split's left child's row, then its right's
        kids[0::2, 2] = kids[1::2, 1] = lo[s] + nl
        kids[:, 3] += 1
        kids[0::2, 4] = l1
        kids[1::2, 4] -= l1
        kids[:, 5] = 2 * n_made + np.arange(len(kids))
        n_made += t.size
        pool = np.concatenate([pool, kids[_grows(kids[:, 2] - kids[:, 1], kids[:, 3], kids[:, 4], max_depth,
                                                 min_samples_split)]])
    root_counts = np.stack([sizes - root_c1, root_c1], axis=1).astype(float)
    splits = None
    if not depth_first:  # each gain added in (tree, rank) order, as a depth-first grower adds it
        *splits, gain = _preorder(made, n_trees)
        np.add.at(raw, (splits[0], splits[2]), gain)
    totals = raw.sum(axis=1, keepdims=True)
    return (root_counts, splits), np.divide(raw, totals, out=raw, where=totals > 0)


# Moved verbatim from `spineml.neighbors`, where `_distances` now
# measures each metric asked from its own C-ordered difference tensor; the
# oracle of the two-metric test in test_neighbors.
def _both_distances(points: np.ndarray, X: np.ndarray) -> dict[str, np.ndarray]:
    """`_distances` for both metrics from one difference tensor, bit for bit.

    The tensor is made absolute in place and reduced for Manhattan, then
    squared in place and reduced for Euclidean: |a|·|a| rounds to the same
    double as a·a, so both keep `_distances`' values with one tensor.
    """
    diff = X[:, None, :] - points[None, :, :]
    manhattan = np.abs(diff, out=diff).sum(axis=2)
    return {"euclidean": np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=2)), "manhattan": manhattan}


# Moved verbatim from `spineml.neighbors`, where `_distances` now measures
# each metric asked from one difference tensor; the oracle of the
# one-metric test in test_neighbors.
def _one_distances(points: np.ndarray, X: np.ndarray, metric: str) -> np.ndarray:
    diff = np.subtract(X[:, None, :], points[None, :, :], order="C")
    # squared or made absolute in place, so a block holds one difference tensor
    if metric == "euclidean":
        return np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=2))
    return np.abs(diff, out=diff).sum(axis=2)


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
            new = _distances(extra[c:c + c_step].reshape(-1, d), X_val[r:r + q_step], (metric,))[metric]
            new = new.reshape(new.shape[0], -1, need).transpose(1, 0, 2)  # (combos, rows, need)
            shape = new.shape[:2] + (k0,)
            cand = np.concatenate([np.broadcast_to(dist[:, r:r + q_step], shape), new], axis=2)
            cand_labels = np.concatenate([np.broadcast_to(labels[:, r:r + q_step], shape),
                                          np.full(new.shape, minority, dtype=np.int64)], axis=2)
            order = np.argsort(cand, axis=2, kind="stable")[:, :, :width]
            for out, a in ((out_dist, cand), (out_labels, cand_labels)):
                out[c:c + c_step, r:r + q_step] = np.take_along_axis(a, order, axis=2)
    return out_dist, out_labels


# The grid's fold cache as `model_selection._knn_grid` built it before the
# neighbor table: each fold's validation rows measured against that fold's
# training rows. Kept verbatim as the oracle of `neighbors._within`.
def fold_cache(train, tr, va, metrics, k_max):
    sub, X_val = train.take(tr), train.rows[va]
    return _nearest_each(sub.rows, X_val, metrics, k_max)


# `resampling.minority_basis` as it stood before the neighbor table, with
# its own neighbor search over the minority rows of each training set, and
# the two helpers it called then. Kept verbatim as the oracle of the
# filtered minority tables and of the class counts read from a row mask.
def _minority_majority(ds: Dataset) -> tuple[int, int]:
    n0, n1 = ds.class_counts()
    if n0 == 0 or n1 == 0:
        raise SingleClassError("resampling needs both classes present")
    return (0, 1) if n0 < n1 else (1, 0)


def _target_count(plan: ResamplePlan, n_majority: int) -> int:
    return math.ceil(plan.target_ratio * n_majority)


def minority_basis(train, plan):
    """Minority label, rows needed, minority pool and SMOTE neighbor lists.

    Depends on the training set and the plan but not on its seed, so one
    basis serves every reseeded `oversample` of the same set.
    """
    minority, majority = _minority_majority(train)
    counts = train.class_counts()
    pool = np.flatnonzero(train.labels == minority)
    if plan.method == "smote" and pool.size < 2:
        raise MinorityTooSmallError("SMOTE needs at least 2 minority rows")
    need = _target_count(plan, counts[majority]) - counts[minority]
    if plan.method == "random_over" or need <= 0:
        return MinorityBasis(minority, need, pool)
    points = train.rows[pool]
    k = min(plan.smote_k, pool.size - 1)
    _, near = _nearest(points, points, "euclidean", k + 1)
    # Drop each row itself; when k + 1 lower-index duplicates come first,
    # the row is not among them and the last one goes instead.
    keep = near != np.arange(pool.size)[:, None]
    keep[keep.all(axis=1), -1] = False
    return MinorityBasis(minority, need, pool, near[keep].reshape(pool.size, k))


# `model_selection.derive_seed` and `resampling._draw` as they stood before
# the batch draws, on numpy's own SeedSequence and Generator. Kept verbatim
# as the oracle of `streams._seed_hash`, the seeded `streams._Draws` and
# `resampling._draw_many`.
def derive_seed(*parts: int) -> int:
    """Stable child seed from integer context (seed, combination, fold, ...)."""
    seq = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(seq.generate_state(1)[0])


def _draw(rows: np.ndarray, method: str, basis: MinorityBasis, seed: int) -> np.ndarray:
    """The rows that oversampling a training matrix `rows` by `method` under
    `seed` appends; `basis.need` must be positive. Grid search calls this
    directly, once per (combination, fold). Random oversampling only indexes
    `rows`, so given the row ids `np.arange(n)` it returns the ids of the
    rows it copies, in append order, from the same stream."""
    rng = np.random.default_rng(seed)
    if method == "random_over":
        return rows[basis.pool[rng.integers(0, basis.pool.size, size=basis.need)]]
    points = rows[basis.pool]
    start = int(rng.integers(0, basis.pool.size))
    seeds = (start + np.arange(basis.need)) % basis.pool.size
    picks = basis.neighbors[seeds, rng.integers(0, basis.neighbors.shape[1], size=basis.need)]
    u = rng.random(basis.need)[:, None]
    return points[seeds] + u * (points[picks] - points[seeds])


def finish(draws, rngs: list) -> None:
    """Set each of `rngs`, the numpy Generators of the seeds of `draws` (a
    `streams._Draws`) with nothing drawn yet, to the state the calls `draws`
    emulated would leave it in: the state logic of `_Draws.finish` as it
    stood when `_Draws` also read Generators."""
    for rng, used, has, half in zip(rngs, draws.pos.tolist(), draws.has.tolist(), draws.half.tolist(),
                                    strict=True):
        bit_generator = rng.bit_generator
        bit_generator.advance(used)
        bit_generator.state = {**bit_generator.state, "has_uint32": int(has), "uinteger": half}


# Two groups × three models: KNN untuned, KNN_opt failed in every group (its
# only k is larger than any fold) and DT_opt tuned over 4 combinations, with
# a cv_table.
FAILED_AND_TUNED = ExperimentConfig(
    synthetic={"n": 80, "seed": 3}, groups=("I", "VII"), models=("KNN", "KNN_opt", "DT_opt"),
    n_folds=4, grids={"KNN": {"k": (5000,)}, "DT": {"max_depth": (2, None), "min_samples_split": (2,),
                                                "min_samples_leaf": (1,)}},
)


def failed_and_tuned_matrix() -> ExperimentMatrix:
    return run_matrix(FAILED_AND_TUNED)


# The default grids of `spineml.model_selection` and the untuned values and
# config grid value rules of `spineml.experiment` as they stood before the
# one hyperparameter table derived them, kept verbatim under new names; the
# oracles of `model_selection.HYPERPARAMETERS` in test_experiment.
def knn_grid_reference() -> ParamGrid:
    return ParamGrid(
        "knn",
        {
            "k": (1, 3, 5, 7, 9, 11, 15, 21),
            "weighting": ("uniform", "inverse-distance"),
            "metric": ("euclidean", "manhattan"),
        },
    )


def dt_grid_reference() -> ParamGrid:
    return ParamGrid(
        "dt",
        {
            "criterion": ("gini", "entropy"),
            "max_depth": (2, 3, 4, 5, 8, None),
            "min_samples_split": (2, 5, 10),
            "min_samples_leaf": (1, 2, 5),
        },
    )


KNN_DEFAULTS_REFERENCE = {"k": 5, "weighting": "uniform", "metric": "euclidean"}
DT_DEFAULTS_REFERENCE = {
    "criterion": "gini",
    "max_depth": None,
    "min_samples_split": 2,
    "min_samples_leaf": 1,
}


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def past_int64(value) -> bool:
    """An integer above 2**63 − 1, which no model file holds: a config's grid
    now refuses it where `GRID_VALUES_REFERENCE` accepts it."""
    return _is_int(value) and value > 2**63 - 1


# The values each grid parameter accepts, by config grid family. A k too
# large for a fold is left to fail that cell.
GRID_VALUES_REFERENCE = {
    "KNN": {
        "k": lambda v: _is_int(v) and v >= 1,
        "weighting": lambda v: v in WEIGHTINGS,
        "metric": lambda v: v in METRICS,
    },
    "DT": {
        "criterion": lambda v: v in CRITERIA,
        **{name: lambda v, name=name: v is None and name == "max_depth" or _is_int(v) and v >= DT_LIMITS[name]
           for name in DT_LIMITS},
    },
}


# Moved verbatim from `spineml.model_selection`, which now deals all classes'
# permutations end to end in one array; the fold oracle test in
# test_model_selection uses it.
def stratified_kfold_reference(labels, n_folds: int = 8, seed: int = 0) -> FoldPlan:
    """Deal each class's shuffled members round-robin, continuing the fold
    cursor across classes so fold sizes differ by at most one overall."""
    y = np.asarray(labels)
    classes, counts = np.unique(y, return_counts=True)
    if (counts < n_folds).any():
        small = classes[counts < n_folds]
        raise ClassSmallerThanFoldsError(
            f"class {small[0]} has fewer rows than {n_folds} folds"
        )
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_folds)]
    cursor = 0
    for c in classes:
        members = np.flatnonzero(y == c)
        for idx in rng.permutation(members):
            folds[cursor % n_folds].append(int(idx))
            cursor += 1
    return FoldPlan(tuple(np.sort(np.array(f, dtype=np.int64)) for f in folds))


# Moved verbatim from `spineml.dataset`, which now reads every field through
# one number rule; the CSV oracle test in test_dataset uses it.
def load_csv_reference(path, schema: Schema | None = None) -> tuple[Dataset, IngestionReport]:
    """Read a CSV whose header names a superset of the schema columns.

    Columns are reordered to schema order; rows with a missing or
    unparseable value in any schema column are dropped and recorded in the
    report by their 1-based data-row number.
    """
    schema = schema or default_schema()
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsvError(0, "empty file") from None
        header = [h.strip() for h in header]
        positions = {}
        for name in schema.names:
            if name not in header:
                raise MissingColumnError(name)
            positions[name] = header.index(name)
        label_pos = positions[schema.outcome.name]
        feature_pos = [positions[n] for n in schema.feature_names]

        rows, labels, dropped = [], [], []
        for row_no, record in enumerate(reader, start=1):
            if not record or all(f.strip() == "" for f in record):
                continue  # blank line
            if len(record) != len(header):
                raise MalformedCsvError(row_no, "field count does not match header")
            bad = None
            values = np.empty(len(feature_pos))
            for j, pos in enumerate(feature_pos):
                text = record[pos].strip()
                try:
                    x = float(text)
                except ValueError:
                    bad = schema.feature_names[j]
                    break
                if not np.isfinite(x):
                    bad = schema.feature_names[j]
                    break
                values[j] = x
            if bad is None:
                text = record[label_pos].strip()
                try:
                    y = float(text)
                except ValueError:
                    y = None
                if y not in (0.0, 1.0):
                    bad = schema.outcome.name
            if bad is not None:
                dropped.append((row_no, bad))
                continue
            rows.append(values)
            labels.append(int(y))

    if not rows:
        raise EmptyAfterFilteringError(f"no usable rows in {path}")
    ds = Dataset(schema, np.array(rows), np.array(labels))
    return ds, IngestionReport(ds.n, tuple(dropped))


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


# Copied verbatim from `spineml.experiment` and `spineml.cli` as they stood
# when each scalar setting was still listed by hand in the config check, the
# canonical form and the `run` flags, with `ExperimentConfig` renamed
# `OracleConfig`; the oracle of the settings table read from
# `ExperimentConfig`'s fields, in test_input_fuzz. Since then `run` also
# rejects --csv together with --n, --signal or --data-seed.
DEFAULT_SEED = 42

# Each scalar setting of a config file and its type (a bool is no number).
_SETTING_TYPES = {
    "test_fraction": Real, "n_folds": Integral, "seed": Integral, "keep_fraction": Real,
    "scoring": str, "per_cell_split": bool, "workers": Integral, "out_dir": str,
    "save_models": bool,
}
_CONFIG_KEYS = {"data", "schema", "groups", "models", "grids", *_SETTING_TYPES}


@dataclass(frozen=True)
class OracleConfig:
    csv_path: str | None = None
    schema_path: str | None = None
    synthetic: dict | None = None  # {"n", "seed", "signal", "p_success"}
    groups: tuple[str, ...] = GROUP_IDS
    models: tuple[str, ...] = MODEL_IDS
    test_fraction: float = 0.25
    n_folds: int = 8
    seed: int = 42
    keep_fraction: float = 1.0
    scoring: str = "f1"
    per_cell_split: bool = False
    grids: dict = field(default_factory=dict)
    workers: int = 1
    out_dir: str = "results"
    save_models: bool = False

    def __post_init__(self):
        for name, kind in _SETTING_TYPES.items():
            _check_type(name, getattr(self, name), kind)
        for name in ("csv_path", "schema_path"):
            if getattr(self, name) is not None:
                _check_type(name, getattr(self, name), str)
        if not self.groups or not self.models:
            raise ConfigError("groups and models must be non-empty")
        for g in self.groups:
            if g not in GROUP_IDS:
                raise UnknownGroupError(g)
        for m in self.models:
            if m not in MODEL_IDS:
                raise ConfigError(f"unknown model: {m}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1): {self.test_fraction}")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError(f"keep_fraction must be in (0, 1]: {self.keep_fraction}")
        if self.n_folds < 2:
            raise ConfigError(f"n_folds must be ≥ 2: {self.n_folds}")
        if self.scoring not in ("f1", "accuracy"):
            raise ConfigError(f"unknown scoring: {self.scoring}")
        if self.workers < 1:
            raise ConfigError(f"workers must be ≥ 1: {self.workers}")
        if (self.csv_path is None) == (self.synthetic is None):
            raise ConfigError("configure exactly one data source (csv or synthetic)")
        if self.synthetic is not None:
            unknown = set(self.synthetic) - set(_SYNTHETIC_KEYS)
            if unknown:
                raise ConfigError(f"unknown synthetic keys: {sorted(unknown)}")
            for key, value in self.synthetic.items():
                _check_type(f"synthetic {key}", value, _SYNTHETIC_KEYS[key])
            if self.synthetic.get("seed", 0) < 0:
                raise ConfigError(f"synthetic seed must be ≥ 0: {self.synthetic['seed']}")
        if self.seed < 0:
            raise ConfigError(f"seed must be ≥ 0: {self.seed}")
        for fam, grid in self.grids.items():
            if fam not in GRID_VALUES_REFERENCE:
                raise ConfigError(f"unknown grid family: {fam}")
            for name, values in grid.items():
                if name not in GRID_VALUES_REFERENCE[fam]:
                    raise ConfigError(f"unknown grid parameter for {fam}: {name}")
                for value in values:
                    if not GRID_VALUES_REFERENCE[fam][name](value):
                        raise ConfigError(f"grid {fam} {name}: invalid value {value!r}")
        if self.synthetic is not None:
            syn = self.canonical_dict()["data"]["synthetic"]
            check_synthetic(syn["n"], syn["signal"], syn["p_success"])

    @classmethod
    def from_dict(cls, raw: dict) -> "OracleConfig":
        _check_type("config", raw, dict)
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {key: raw[key] for key in _SETTING_TYPES if key in raw}
        data = raw.get("data")
        if data is not None:
            if not isinstance(data, dict) or set(data) - {"csv", "synthetic"} or len(data) != 1:
                raise ConfigError("data must hold exactly one of 'csv' or 'synthetic'")
            if "csv" in data:
                kwargs["csv_path"] = data["csv"]
            else:
                _check_type("data.synthetic", data["synthetic"], dict)
                kwargs["synthetic"] = dict(data["synthetic"])
        else:
            kwargs["synthetic"] = {}
        if "schema" in raw:
            kwargs["schema_path"] = raw["schema"]
        for key in ("groups", "models"):
            if key in raw:
                _check_type(key, raw[key], list)
                kwargs[key] = tuple(raw[key])
        if "grids" in raw:
            _check_type("grids", raw["grids"], dict)
            for fam, grid in raw["grids"].items():
                _check_type(f"grid {fam}", grid, dict)
                for name, values in grid.items():
                    _check_type(f"grid {fam} {name}", values, list)
            kwargs["grids"] = {
                fam: {name: tuple(v) for name, v in grid.items()}
                for fam, grid in raw["grids"].items()
            }
        return cls(**kwargs)

    def canonical_dict(self) -> dict:
        """Semantic fields only: excludes out_dir/workers/save_models so the
        same experiment hashes identically wherever and however it runs."""
        if self.csv_path is not None:
            data = {"csv": self.csv_path}
        else:
            data = {"synthetic": {**SYNTHETIC_DEFAULTS, "seed": self.seed, **self.synthetic}}
        return {
            "data": data,
            "schema": self.schema_path,
            "groups": list(self.groups),
            "models": list(self.models),
            "test_fraction": self.test_fraction,
            "n_folds": self.n_folds,
            "seed": self.seed,
            "keep_fraction": self.keep_fraction,
            "scoring": self.scoring,
            "per_cell_split": self.per_cell_split,
            "grids": {k: {p: list(v) for p, v in g.items()} for k, g in self.grids.items()},
        }

    def config_hash(self) -> str:
        text = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()




def oracle_build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spineml",
        description="Spine-surgery outcome prediction pipeline: synthetic data, "
        "model-by-group experiments, reports, and single-record prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic patient CSV")
    gen.add_argument("--n", type=int, default=SYNTHETIC_DEFAULTS["n"], help="number of patients (≥ 20)")
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--signal", type=float, default=SYNTHETIC_DEFAULTS["signal"],
                     help="strength of injected predictive structure in [0, 1]")
    gen.add_argument("--p-success", type=float, default=SYNTHETIC_DEFAULTS["p_success"],
                     help="success-class proportion in [0, 1]")
    gen.add_argument("--out", required=True, help="output CSV path")

    run = sub.add_parser("run", help="run the experiment matrix and write reports")
    run.add_argument("--config", help="JSON experiment config (flags override it)")
    run.add_argument("--csv", help="input CSV path (default: synthetic data)")
    run.add_argument("--schema", help="JSON schema override file")
    run.add_argument("--n", type=int, help=f"synthetic patient count (default {SYNTHETIC_DEFAULTS['n']})")
    run.add_argument("--signal", type=float,
                     help=f"synthetic signal strength (default {SYNTHETIC_DEFAULTS['signal']})")
    run.add_argument("--data-seed", type=int, help="synthetic generator seed (default: master seed)")
    run.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
    run.add_argument("--groups", help="comma list of variable groups, e.g. I,IV,VII")
    run.add_argument("--models", help="comma list of model ids, e.g. KNN,DT_opt")
    run.add_argument("--test-fraction", type=float, help="test partition fraction (default 0.25)")
    run.add_argument("--folds", type=int, help="cross-validation folds (default 8)")
    run.add_argument("--keep-fraction", type=float, help="feature-selection keep fraction (default 1.0)")
    run.add_argument("--scoring", choices=("f1", "accuracy"), help="grid-search scoring (default f1)")
    run.add_argument("--per-cell-split", action="store_true",
                     help="use an independent split per cell instead of one shared split")
    run.add_argument("--workers", type=int, help="concurrent cell workers (default 1)")
    run.add_argument("--save-models", action="store_true",
                     help="persist every fitted cell under <out>/models/")
    run.add_argument("--out", help="report directory (default: results)")

    rep = sub.add_parser("report", help="re-render tables/charts from results.json")
    rep.add_argument("--results", required=True, help="existing results.json")
    rep.add_argument("--out", required=True, help="directory for re-rendered files")

    pred = sub.add_parser("predict", help="classify one record with a saved model")
    pred.add_argument("--model", required=True, help="persisted model file")
    pred.add_argument("--record", required=True,
                      help="JSON file path or inline JSON object with the features")
    pred.add_argument("--trace", action="store_true",
                      help="include the preprocessing trace in the output")
    return parser



def oracle_build_run_config(args, parser) -> OracleConfig:
    raw = {}
    if args.config:
        raw = read_json(args.config, ConfigError, "config")
        OracleConfig.from_dict(raw)  # a malformed file fails before any flag is laid over it
    if args.csv:
        raw["data"] = {"csv": args.csv}
    elif args.n is not None or args.signal is not None or args.data_seed is not None:
        syn = (raw.get("data") or {}).get("synthetic", {})
        if args.n is not None:
            syn["n"] = args.n
        if args.signal is not None:
            syn["signal"] = args.signal
        if args.data_seed is not None:
            syn["seed"] = args.data_seed
        raw["data"] = {"synthetic": syn}
    if args.schema:
        raw["schema"] = args.schema
    if args.groups:
        raw["groups"] = list(_parse_list(parser, args.groups, GROUP_IDS, "group"))
    if args.models:
        raw["models"] = list(_parse_list(parser, args.models, MODEL_IDS, "model"))
    for key, value in (
        ("test_fraction", args.test_fraction),
        ("n_folds", args.folds),
        ("seed", args.seed),
        ("keep_fraction", args.keep_fraction),
        ("scoring", args.scoring),
        ("workers", args.workers),
        ("out_dir", args.out),
    ):
        if value is not None:
            raw[key] = value
    if args.per_cell_split:
        raw["per_cell_split"] = True
    if args.save_models:
        raw["save_models"] = True
    return OracleConfig.from_dict(raw)


# `model_selection.stratified_shuffle_split` as it stood before the test
# allocation was made in one pass: the per-class targets move one row at a
# time in a loop. Kept verbatim, renamed, as the oracle of the one-pass rule
# in test_model_selection.
def stratified_shuffle_split_loop(labels, test_fraction: float = 0.25, seed: int = 0) -> SplitIndices:
    """Class-proportional train/test partition by seeded within-class shuffle.

    Each class contributes round(test_fraction × class count) test rows,
    adjusted by ±1 on the most misallocated class so the test total equals
    round(test_fraction × n). It fails on one-class labels and on sizes that
    leave no test row or a class no training row, for every seed alike.
    """
    y = np.asarray(labels)
    n = y.size
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    classes, counts = np.unique(y, return_counts=True)
    if (counts < 2).any():
        small = classes[counts < 2]
        raise ClassTooSmallError(f"class {small[0]} has fewer than 2 rows")
    if classes.size == 1:
        raise SingleClassError(f"every label is class {classes[0]}: a stratified split needs both classes")

    total_target = round(test_fraction * n)
    if total_target == 0:
        raise TooFewRowsError(f"test_fraction {test_fraction} of {n} rows leaves no test row")
    targets = {int(c): round(test_fraction * k) for c, k in zip(classes, counts)}
    sizes = {int(c): int(k) for c, k in zip(classes, counts)}
    diff = total_target - sum(targets.values())
    while diff != 0:
        step = 1 if diff > 0 else -1
        # most under-allocated (or over-allocated) class; ties to the lower label
        def miss(c):
            return test_fraction * sizes[c] - targets[c]
        eligible = [
            c for c in sorted(targets)
            if (step > 0 and targets[c] < sizes[c]) or (step < 0 and targets[c] > 0)
        ]
        chosen = max(eligible, key=lambda c: (step * miss(c), -c))
        targets[chosen] += step
        diff -= step
    for c in targets:
        if targets[c] == sizes[c]:
            raise TooFewRowsError(f"test_fraction {test_fraction} of {n} rows leaves no class {c} row to train on")

    rng = np.random.default_rng(seed)
    test_parts, train_parts = [], []
    for c in classes:
        members = np.flatnonzero(y == c)
        perm = rng.permutation(members)
        t = targets[int(c)]
        test_parts.append(perm[:t])
        train_parts.append(perm[t:])
    return SplitIndices(
        train_idx=np.sort(np.concatenate(train_parts)),
        test_idx=np.sort(np.concatenate(test_parts)),
    )


# Preprocessing before the one-comparison rank rule and the scaler laid out
# in feature order, kept verbatim (`FittedCell._steps` and `preprocess` as
# functions of the cell) as the oracle of the differential tests in
# tests/test_preprocess.py.


def code_table_reference(codes) -> np.ndarray:
    """One row per column of its sorted codes, padded with +inf to one
    place more than the longest, so every rank has an entry above it."""
    codes = list(codes)
    table = np.full((len(codes), max(map(len, codes), default=0) + 1), np.inf)
    for i, c in enumerate(codes):
        table[i, : len(c)] = c
    return table


def rank_encode_reference(block: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Rank of the nearest code in each column's `code_table` row (ties
    toward the lower code), for a (rows × table rows) block."""
    pos = (table < block[:, :, None]).sum(axis=2)  # searchsorted, side="left"
    cols = np.arange(table.shape[0])
    below = table[cols, np.maximum(pos - 1, 0)]
    above = table[cols, pos]  # +inf past the last code
    return np.where((pos > 0) & (block - below <= above - block), pos - 1, pos)


def scale_reference(block: np.ndarray, state: ScalerState, mode: str) -> np.ndarray:
    """Scale a (rows × state.columns) block.

    "standardize": x → (x − mean) / stddev. "minmax": x → (x − min) /
    (max − min), clamped to [0, 1]; constant columns map to 0.
    """
    if mode == "standardize":
        return (block - state.mean) / state.std
    span = np.where(state.constant, 1.0, state.maximum - state.minimum)
    scaled = np.clip((block - state.minimum) / span, 0.0, 1.0)
    scaled[:, state.constant] = 0.0
    return scaled


def steps_reference(self) -> tuple:
    """Row positions of the encoded and the scaled columns, the code table
    and the scaler state: worked out once per cell, not per record."""
    names = [f["name"] for f in self.feature_meta]
    return (
        np.array([names.index(c) for c in self.ordinal_codes], dtype=np.intp),
        code_table_reference(self.ordinal_codes.values()),
        np.array([names.index(c) for c in self.scaler_columns], dtype=np.intp),
        ScalerState(tuple(self.scaler_columns), self.scaler_mean, self.scaler_std,
                    self.scaler_min, self.scaler_max, self.scaler_constant),
    )


def preprocess_reference(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encoded, then scaled, copies of raw rows in `feature_meta` order,
    through the same encoder and scaler as training."""
    encoded_idx, table, scaled_idx, scaler = steps_reference(self)
    encoded = rows.copy()
    encoded[:, encoded_idx] = rank_encode_reference(rows[:, encoded_idx], table)
    scaled = encoded.copy()
    scaled[:, scaled_idx] = scale_reference(encoded[:, scaled_idx], scaler, self.scaling_mode)
    return encoded, scaled


def gnb_log_posteriors_reference(model, X: np.ndarray) -> np.ndarray:
    """`naive_bayes._gnb_log_posteriors` before its per-model terms, verbatim."""
    var = model.variances + model.var_smoothing
    # (n, n_classes, d) deviations, C-ordered as in `neighbors._distances`
    dev = np.subtract(X[:, None, :], model.means[None, :, :], order="C")
    log_pdf = -0.5 * (np.log(2.0 * np.pi * var)[None, :, :] + dev * dev / var[None, :, :])
    return np.log(model.priors)[None, :] + log_pdf.sum(axis=2)
