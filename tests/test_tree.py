import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineml import tree
from spineml.dataset import Dataset
from spineml.errors import EmptyTrainingSetError, WidthMismatchError
from spineml.model_selection import select_features, stratified_kfold
from spineml.tree import (
    _MIN_DECREASE,
    CRITERIA,
    DecisionTreeModel,
    _binary_impurity,
    _decrease,
    dt_fit,
    dt_predict,
    dt_predict_many,
    extratrees_fit,
    predict_constrained,
)

from helpers import entropy_impurity, gini_impurity, make_dataset


def _is_leaf(model, node):
    return model.left[node] < 0


def test_gini_cases():
    assert _binary_impurity(10, 5, "gini") == pytest.approx(0.5)
    assert _binary_impurity(10, 0, "gini") == pytest.approx(0.0)
    assert _binary_impurity(4, 1, "gini") == pytest.approx(0.375)


def test_entropy_cases():
    assert _binary_impurity(10, 5, "entropy") == pytest.approx(1.0)
    assert _binary_impurity(8, 0, "entropy") == pytest.approx(0.0)
    # independent hand evaluation of -sum(p log2 p)
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert _binary_impurity(4, 1, "entropy") == pytest.approx(expected, abs=1e-12)
    assert _binary_impurity(4, 1, "entropy") == pytest.approx(0.811278, abs=1e-6)


def test_dt_fit_separable_single_split():
    ds = make_dataset([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
    model = dt_fit(ds)
    assert model.feature[0] == 0
    assert model.threshold[0] == pytest.approx(5.5)
    assert _is_leaf(model, model.left[0]) and _is_leaf(model, model.right[0])
    preds = dt_predict_many(model, ds.rows)
    assert preds.tolist() == [0, 0, 1, 1]
    assert model.feature_importances.tolist() == [1.0]


def test_dt_fit_pure_data_is_single_leaf():
    ds = make_dataset([[1.0], [2.0], [3.0]], [1, 1, 1])
    model = dt_fit(ds)
    assert _is_leaf(model, 0)
    assert model.feature_importances.tolist() == [0.0]


def test_dt_fit_depth_zero_is_majority_stump():
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 1])
    model = dt_fit(ds, max_depth=0)
    assert _is_leaf(model, 0)
    label, frac = dt_predict(model, [99.0])
    assert label == 0
    assert frac == pytest.approx(0.75)


def test_dt_fit_empty_training_set():
    ds = make_dataset(np.empty((0, 1)), [])
    with pytest.raises(EmptyTrainingSetError):
        dt_fit(ds)


def test_dt_predict_routing_and_boundary():
    model = dt_fit(make_dataset([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1]))
    assert dt_predict(model, [3.0]) == (0, 1.0)
    # value exactly at the threshold goes left
    assert dt_predict(model, [5.5])[0] == 0
    assert dt_predict(model, [5.6])[0] == 1


def test_dt_predict_width_mismatch():
    model = dt_fit(make_dataset([[0.0], [1.0]], [0, 1]))
    with pytest.raises(WidthMismatchError):
        dt_predict(model, [1.0, 2.0])


def test_dt_min_samples_leaf_restricts_split():
    # only the 1-vs-3 boundary separates, but it leaves a 1-row child
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [1, 0, 0, 0])
    model = dt_fit(ds, min_samples_leaf=2)
    assert _is_leaf(model, 0) or model.counts[model.left[0]].sum() >= 2


def test_dt_fit_rejects_out_of_range_limits():
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
    for name, bad in (("max_depth", -1), ("min_samples_split", 1), ("min_samples_split", -5),
                      ("min_samples_leaf", 0)):
        with pytest.raises(ValueError, match=f"{name} must be ≥"):
            dt_fit(ds, **{name: bad})
    assert _is_leaf(dt_fit(ds, max_depth=0), 0)


def test_dt_min_samples_split_stops_growth():
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
    model = dt_fit(ds, min_samples_split=5)
    assert _is_leaf(model, 0)


def test_dt_importances_normalized():
    rng = np.random.default_rng(4)
    rows = rng.normal(0, 1, size=(60, 3))
    labels = (rows[:, 1] > 0).astype(int)
    model = dt_fit(make_dataset(rows, labels))
    imp = model.feature_importances
    assert np.all(imp >= 0)
    assert imp.sum() == pytest.approx(1.0, abs=1e-12)
    assert imp.argmax() == 1


def _exhaustive_best_root(rows, labels, criterion):
    """Enumerate every midpoint threshold of every feature."""
    imp = gini_impurity if criterion == "gini" else entropy_impurity

    def counts(ls):
        return [sum(1 for v in ls if v == 0), sum(1 for v in ls if v == 1)]

    n, d = rows.shape
    parent = imp(counts(labels))
    best = None
    for j in range(d):
        values = sorted(set(rows[:, j]))
        for a, b in zip(values, values[1:]):
            t = (a + b) / 2.0
            left = [labels[i] for i in range(n) if rows[i, j] <= t]
            right = [labels[i] for i in range(n) if rows[i, j] > t]
            dec = parent - (
                len(left) * imp(counts(left)) + len(right) * imp(counts(right))
            ) / n
            if best is None or dec > best[0] + 1e-15:
                best = (dec, j, t)
    return best


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_dt_root_split_matches_exhaustive_enumeration(criterion):
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 3))
        rows = np.round(rng.normal(0, 1, size=(n, d)), 2)
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        model = dt_fit(make_dataset(rows, labels), criterion=criterion)
        oracle = _exhaustive_best_root(rows, labels, criterion)
        if _is_leaf(model, 0):
            assert oracle is None or oracle[0] <= 1e-12
            continue
        got = _split_decrease(rows, labels, model.feature[0], model.threshold[0], criterion)
        assert abs(got - oracle[0]) < 1e-12


def _split_decrease(rows, labels, feature, threshold, criterion):
    imp = gini_impurity if criterion == "gini" else entropy_impurity

    def counts(ls):
        return [sum(1 for v in ls if v == 0), sum(1 for v in ls if v == 1)]

    n = len(labels)
    left = [labels[i] for i in range(n) if rows[i, feature] <= threshold]
    right = [labels[i] for i in range(n) if rows[i, feature] > threshold]
    return imp(counts(labels)) - (
        len(left) * imp(counts(left)) + len(right) * imp(counts(right))
    ) / n


def test_dt_every_internal_node_is_greedy_optimal():
    rng = np.random.default_rng(41)
    rows = rng.normal(0, 2, size=(60, 3))
    labels = (rows[:, 0] + 0.7 * rng.normal(size=60) > 0).astype(int)
    labels[:2] = [0, 1]
    model = dt_fit(make_dataset(rows, labels), max_depth=5)

    def walk(node, idx):
        if _is_leaf(model, node):
            return
        sub_rows, sub_labels = rows[idx], labels[idx]
        feature, threshold = model.feature[node], model.threshold[node]
        got = _split_decrease(sub_rows, sub_labels, feature, threshold, "gini")
        want = _exhaustive_best_root(sub_rows, sub_labels, "gini")[0]
        assert abs(got - want) < 1e-12
        mask = sub_rows[:, feature] <= threshold
        walk(model.left[node], idx[mask])
        walk(model.right[node], idx[~mask])

    walk(0, np.arange(60))


def test_dt_deterministic_across_runs():
    rng = np.random.default_rng(9)
    rows = rng.normal(0, 1, size=(50, 4))
    labels = rng.integers(0, 2, 50)
    labels[:2] = [0, 1]
    a = dt_fit(make_dataset(rows, labels))
    b = dt_fit(make_dataset(rows, labels))
    X = rng.normal(0, 1, size=(40, 4))
    assert dt_predict_many(a, X).tolist() == dt_predict_many(b, X).tolist()
    assert a.feature_importances.tolist() == b.feature_importances.tolist()


def test_dt_invariant_under_increasing_affine_transform():
    rng = np.random.default_rng(14)
    rows = rng.normal(0, 1, size=(40, 3))
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    X_test = rng.normal(0, 1, size=(20, 3))
    base = dt_predict_many(dt_fit(make_dataset(rows, labels)), X_test)
    rows2, X2 = rows.copy(), X_test.copy()
    rows2[:, 1] = 3.0 * rows2[:, 1] + 7.0
    X2[:, 1] = 3.0 * X2[:, 1] + 7.0
    transformed = dt_predict_many(dt_fit(make_dataset(rows2, labels)), X2)
    assert base.tolist() == transformed.tolist()


def test_predict_constrained_equals_constrained_fit():
    rng = np.random.default_rng(33)
    rows = rng.normal(0, 1, size=(80, 4))
    labels = rng.integers(0, 2, 80)
    labels[:2] = [0, 1]
    ds = make_dataset(rows, labels)
    X = rng.normal(0, 1, size=(50, 4))
    for criterion in ("gini", "entropy"):
        for msl in (1, 2, 5):
            full = dt_fit(ds, criterion=criterion, min_samples_leaf=msl)
            for depth in (1, 2, 4, None):
                for mss in (2, 5, 10):
                    direct = dt_fit(
                        ds,
                        criterion=criterion,
                        max_depth=depth,
                        min_samples_split=mss,
                        min_samples_leaf=msl,
                    )
                    assert np.array_equal(
                        predict_constrained(full, X, depth, mss),
                        dt_predict_many(direct, X),
                    )


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 40),
    d=st.integers(1, 4),
    criterion=st.sampled_from(CRITERIA),
    min_samples_leaf=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_routing_matches_scalar_walk(n, d, criterion, min_samples_leaf, seed):
    """The level-by-level router gives the one-row walk's label on rows that
    repeat, sit exactly on a split threshold, or just above it."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 4, size=(n, d)) / 2.0  # a coarse grid: many duplicates
    labels = rng.integers(0, 2, n)
    model = dt_fit(make_dataset(rows, labels), criterion, min_samples_leaf=min_samples_leaf)
    splits = np.flatnonzero(model.left >= 0)
    on_threshold = rows[rng.integers(0, n, splits.size)]
    on_threshold[np.arange(splits.size), model.feature[splits]] = model.threshold[splits]
    X = np.concatenate([rows, rows[::-1], on_threshold, np.nextafter(on_threshold, np.inf)])
    scalar = [dt_predict(model, x)[0] for x in X]
    assert dt_predict_many(model, X).tolist() == scalar
    assert predict_constrained(model, X, None, 2).tolist() == scalar


def _walk_constrained(model, x, max_depth, min_samples_split) -> int:
    """One-row walk that stops at a leaf, at depth max_depth, or at a node
    holding fewer than min_samples_split training rows."""
    node, depth = 0, 0
    while (model.left[node] >= 0 and (max_depth is None or depth < max_depth)
           and model.counts[node].sum() >= min_samples_split):
        go_left = x[model.feature[node]] <= model.threshold[node]
        node, depth = (model.left[node] if go_left else model.right[node]), depth + 1
    return int(np.argmax(model.counts[node]))


def _depths(model) -> np.ndarray:
    depth = np.zeros(model.left.size, dtype=int)
    for node in np.flatnonzero(model.left >= 0):  # children get higher ids than their parent
        depth[[model.left[node], model.right[node]]] = depth[node] + 1
    return depth


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 30),
    d=st.integers(1, 3),
    levels=st.integers(1, 5),
    n_repeated=st.integers(0, 15),
    n_trees=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_router_matches_predict_constrained_for_every_limit_pair(n, d, levels, n_repeated, n_trees, seed):
    """One pass of the path router over several trees gives, for every
    (max_depth, min_samples_split) pair, each tree's predict_constrained
    labels and the constrained one-row walk's."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, levels, size=(n, d)) / 2.0  # a coarse grid: many duplicates
    rows[rng.integers(0, n, n_repeated)] = rows[rng.integers(0, n, n_repeated)]
    ds = make_dataset(rows, rng.integers(0, 2, n))
    roots = [rng.integers(0, n, rng.integers(1, 2 * n)) for _ in range(n_trees)]
    models = tree.dt_fit_batch(ds, roots, rng.choice(CRITERIA, n_trees).tolist(),
                               rng.choice([1, 2], n_trees).tolist())
    Xs = [rows[rng.integers(0, n, rng.integers(0, n + 1))] for _ in range(n_trees)]
    deepest = max(int(_depths(m).max()) for m in models)
    depths = sorted({0, 1, 2, max(0, deepest - 1), deepest, deepest + 1}) + [None]
    splits = sorted({2, 3, 5} | {r.size for r in roots} | {r.size + 1 for r in roots})
    limits = [(depth, mss) for depth in depths for mss in splits]
    got = tree._route(models, Xs, limits)
    assert got.shape == (len(limits), sum(X.shape[0] for X in Xs)) and got.dtype == np.int64
    start = 0
    for model, X in zip(models, Xs):
        for row, (depth, mss) in zip(got[:, start:start + X.shape[0]], limits):
            want = predict_constrained(model, X, depth, mss)
            assert row.tolist() == want.tolist() == [_walk_constrained(model, x, depth, mss) for x in X]
        start += X.shape[0]


def test_extratrees_single_feature_importance():
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
    model = extratrees_fit(ds, n_trees=10, seed=1)
    assert model.importances.tolist() == [1.0]


def test_extratrees_deterministic():
    rng = np.random.default_rng(2)
    rows = rng.normal(0, 1, size=(60, 4))
    labels = rng.integers(0, 2, 60)
    labels[:2] = [0, 1]
    ds = make_dataset(rows, labels)
    a = extratrees_fit(ds, n_trees=20, seed=7)
    b = extratrees_fit(ds, n_trees=20, seed=7)
    assert a.importances.tolist() == b.importances.tolist()
    c = extratrees_fit(ds, n_trees=20, seed=8)
    assert a.importances.tolist() != c.importances.tolist()


def test_extratrees_signal_feature_dominates():
    rng = np.random.default_rng(6)
    rows = rng.normal(0, 1, size=(500, 5))
    labels = (rows[:, 0] > np.median(rows[:, 0])).astype(int)
    model = extratrees_fit(make_dataset(rows, labels), n_trees=50, seed=3)
    assert model.importances.sum() == pytest.approx(1.0, abs=1e-12)
    assert model.importances[0] > 0.5


def test_extratrees_default_max_features():
    ds = make_dataset(np.random.default_rng(0).normal(size=(30, 9)),
                      np.random.default_rng(1).integers(0, 2, 30))
    model = extratrees_fit(ds, n_trees=2, seed=0)
    assert model.max_features == 3  # ceil(sqrt(9))


# The one-tree-at-a-time grower, per-node CART split and CART fit that the
# lockstep grower and the segmented split replaced, with the node
# bookkeeping they used, kept verbatim as oracles (`_grow_reference` and
# `_dt_fit_reference` are `_grow` and `dt_fit`).
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


def _class_counts(y: np.ndarray) -> np.ndarray:
    return np.array([float(np.sum(y == 0)), float(np.sum(y == 1))])


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


def _grow_reference(X, y, split, max_depth=None, min_samples_split=2) -> tuple[dict, np.ndarray]:
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


def _dt_fit_reference(
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

    arrays, importances = _grow_reference(X, y, best_split, max_depth, min_samples_split)
    return DecisionTreeModel(
        **arrays,
        criterion=criterion,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        feature_importances=importances,
        n_features=X.shape[1],
    )


def _grow_extra_tree_per_candidate(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    max_features: int,
) -> np.ndarray:
    """Reference extra-trees rule that scores one candidate feature at a time,
    drawing its threshold with a scalar `rng.uniform` call."""
    d = X.shape[1]

    def random_split(idx, counts):
        m = idx.size
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
            return None
        dec, f, t = best
        return f, t, dec

    return _grow_reference(X, y, random_split)[1]


def _per_tree_oracle(X, y, rngs, max_features):
    """Per-tree importances, growing the trees one after another by the
    per-candidate rule."""
    return np.array([_grow_extra_tree_per_candidate(X, y, rng, max_features) for rng in rngs])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 30),
    d=st.integers(1, 6),
    levels=st.integers(1, 5),
    n_constant=st.integers(0, 6),
    n_repeated=st.integers(0, 10),
    max_features=st.integers(1, 6),
    keep_fraction=st.sampled_from([0.2, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_extratrees_matches_per_candidate_rule(
    n, d, levels, n_constant, n_repeated, max_features, keep_fraction, seed
):
    """Scoring a node's candidates together gives the per-candidate rule's
    importances bit for bit, and the same selected features."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, levels, size=(n, d)) / 2.0  # a coarse grid: thresholds on ties
    rows[:, rng.permutation(d)[:n_constant]] = 1.5  # constant columns
    repeats = rng.integers(0, n, n_repeated)  # duplicated rows
    rows = np.concatenate([rows, rows[repeats]])
    labels = rng.integers(0, 2, rows.shape[0])
    ds = make_dataset(rows, labels)
    forest_seed = int(rng.integers(0, 1000))
    mf = min(max_features, d)

    new = extratrees_fit(ds, n_trees=3, max_features=mf, seed=forest_seed)
    picked = select_features(ds, keep_fraction, forest_seed, n_trees=3) if (
        ds.n >= 3 and np.unique(labels).size == 2) else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_extra_trees_importances", _per_tree_oracle)
        old = extratrees_fit(ds, n_trees=3, max_features=mf, seed=forest_seed)
        if picked is not None:
            reference = select_features(ds, keep_fraction, forest_seed, n_trees=3)
            assert picked.kept.tolist() == reference.kept.tolist()
            assert picked.importances.tobytes() == reference.importances.tobytes()
    assert new.importances.tobytes() == old.importances.tobytes()


_TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts", "feature_importances")


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 4),
    coarse=st.booleans(),
    levels=st.integers(1, 5),
    n_repeated=st.integers(0, 20),
    criterion=st.sampled_from(CRITERIA),
    min_samples_leaf=st.sampled_from([1, 2, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dt_fit_matches_one_tree_grower(
    n, d, coarse, levels, n_repeated, criterion, min_samples_leaf, seed
):
    """CART grown as a lockstep batch of one gives the one-tree grower's node
    arrays and importances byte for byte, under every grid depth and split
    limit."""
    rng = np.random.default_rng(seed)
    if coarse:
        rows = rng.integers(0, levels, size=(n, d)) / 2.0  # thresholds between ties
    else:
        rows = rng.normal(size=(n, d))
    rows[rng.integers(0, n, n_repeated)] = rows[rng.integers(0, n, n_repeated)]  # duplicated rows
    ds = make_dataset(rows, rng.integers(0, 2, n))
    for max_depth in (2, 3, 4, 5, 8, None):
        for min_samples_split in (2, 5, 10):
            args = (ds, criterion, max_depth, min_samples_split, min_samples_leaf)
            new, old = dt_fit(*args), _dt_fit_reference(*args)
            for name in _TREE_ARRAYS:
                a, b = getattr(new, name), getattr(old, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@settings(max_examples=100, deadline=None)
@given(
    n_trees=st.integers(2, 16),
    n=st.integers(20, 120),
    d=st.integers(1, 20),
    coarse=st.booleans(),
    levels=st.integers(2, 6),
    max_features=st.integers(1, 21),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_forest_matches_per_tree_growth(n_trees, n, d, coarse, levels, max_features, seed):
    """Growing a forest in lockstep gives every tree the importances it gets
    grown alone, and leaves every tree's generator where growing it alone
    does: no tree draws for another or after it has finished."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, levels, size=(n, d)) / 2.0 if coarse else rng.normal(size=(n, d))
    labels = rng.integers(0, 2, n)

    def generators():
        return [np.random.default_rng(np.random.SeedSequence((seed, t))) for t in range(n_trees)]

    lockstep, alone = generators(), generators()
    got = tree._extra_trees_importances(rows, labels, lockstep, max_features)
    want = _per_tree_oracle(rows, labels, alone, max_features)
    assert got.tobytes() == want.tobytes()
    assert [g.bit_generator.state for g in lockstep] == [g.bit_generator.state for g in alone]
    forest = extratrees_fit(make_dataset(rows, labels), n_trees, max_features, seed)
    mean = want.mean(axis=0)
    assert forest.importances.tobytes() == (mean / mean.sum() if mean.sum() > 0 else mean).tobytes()


def test_threshold_draw_is_the_uniform_draw():
    """The forest draws a threshold as lo + (hi - lo) * random(), which must
    be the value and the stream of rng.uniform(lo, hi)."""
    data = np.random.default_rng(0)
    ours, uniform = np.random.default_rng(5), np.random.default_rng(5)
    for scale in 10.0 ** np.arange(-8, 6):
        lo = data.normal(size=500) * scale
        hi = lo + data.random(500) * scale
        drawn = lo + (hi - lo) * ours.random(lo.size)
        assert drawn.tobytes() == uniform.uniform(lo, hi).tobytes()


def test_extratrees_rejects_bad_max_features():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng.normal(size=(30, 3)), rng.integers(0, 2, 30))
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_features must be ≥ 1"):
            extratrees_fit(ds, n_trees=2, max_features=bad)
    clipped = extratrees_fit(ds, n_trees=4, max_features=7, seed=1)
    assert clipped.importances.tobytes() == extratrees_fit(ds, 4, 3, seed=1).importances.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 60),
    d=st.integers(1, 4),
    coarse=st.booleans(),
    levels=st.integers(1, 5),
    n_repeated=st.integers(0, 20),
    n_trees=st.integers(1, 12),
    fold_like=st.booleans(),
    max_depth=st.sampled_from([None, 3]),
    min_samples_split=st.sampled_from([2, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dt_batch_matches_one_tree_grower_per_root(
    n, d, coarse, levels, n_repeated, n_trees, fold_like, max_depth, min_samples_split, seed
):
    """Every tree of a batch with mixed criteria and min_samples_leaf, each on
    its own root rows, equals the one-tree grower's fit on those rows byte
    for byte."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, levels, size=(n, d)) / 2.0 if coarse else rng.normal(size=(n, d))
    rows[rng.integers(0, n, n_repeated)] = rows[rng.integers(0, n, n_repeated)]  # duplicated rows
    ds = make_dataset(rows, rng.integers(0, 2, n))
    if fold_like:  # all rows but one fold's, as a cross-validated grid grows them
        fold = rng.integers(0, n_trees + 1, n)
        roots = [np.flatnonzero(fold != t) for t in range(n_trees)]
    else:  # any rows in any order, repeats included
        roots = [rng.integers(0, n, rng.integers(1, 2 * n)) for _ in range(n_trees)]
    roots = [root if root.size else np.arange(n) for root in roots]
    criteria = rng.choice(CRITERIA, n_trees).tolist()
    leaves = rng.choice([1, 2, 5], n_trees).tolist()
    batch = tree.dt_fit_batch(ds, roots, criteria, leaves, max_depth, min_samples_split)
    for new, root, criterion, msl in zip(batch, roots, criteria, leaves, strict=True):
        old = _dt_fit_reference(ds.take(root), criterion, max_depth, min_samples_split, msl)
        for name in _TREE_ARRAYS:
            a, b = getattr(new, name), getattr(old, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert (new.criterion, new.min_samples_leaf, new.n_features) == (criterion, msl, d)


def test_dt_batch_peak_memory_stays_near_the_chunk_bound():
    # The 48 trees of a grid on 2 000 rows × 16 features score about 84 000
    # rows at their first step. Scored at once, that step's arrays peak at
    # 56 MB under tracemalloc; in blocks under _CHUNK_BYTES (256 KB) the
    # batch peaks at 3.6 MB, near the 3.4 MB of growing the trees one by one.
    rng = np.random.default_rng(0)
    rows = np.concatenate([rng.normal(size=(2000, 4)), rng.integers(0, 50, size=(2000, 12)) / 4.0], axis=1)
    labels = (rows[:, 0] + rng.normal(size=2000) > 0).astype(int)
    fold_train = [np.setdiff1d(np.arange(2000), f) for f in stratified_kfold(labels, 8, seed=0).folds]
    keys = [(criterion, msl) for criterion in CRITERIA for msl in (1, 2, 5)]
    criteria, leaves = zip(*(key for key in keys for _ in fold_train))
    tracemalloc.start()
    try:
        tree.dt_fit_batch(make_dataset(rows, labels), fold_train * len(keys), criteria, leaves)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 6
