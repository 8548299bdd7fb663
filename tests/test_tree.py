import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineml import experiment, streams, tree
from spineml.dataset import Dataset
from spineml.errors import EmptyTrainingSetError, WidthMismatchError
from spineml.experiment import MODEL_SPECS, ExperimentConfig, load_config_data, run_cell_fitted
from spineml.model_selection import select_features, stratified_kfold, stratified_shuffle_split
from spineml.schema import group_by_id
from spineml.streams import _Draws, _entropy, _rng_words
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
)

from helpers import (
    binary_impurity_reference,
    cart_split_per_tree,
    entropy_impurity,
    finish,
    gini_impurity,
    grow_per_tree,
    grow_reference,
    make_dataset,
    predict_constrained,
)

# Forest seeds of one 32-bit entropy word, and of two to seven
FOREST_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**200))


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
    assert extratrees_fit(ds, n_trees=10, seed=1).tolist() == [1.0]


def test_extratrees_deterministic():
    rng = np.random.default_rng(2)
    rows = rng.normal(0, 1, size=(60, 4))
    labels = rng.integers(0, 2, 60)
    labels[:2] = [0, 1]
    ds = make_dataset(rows, labels)
    a = extratrees_fit(ds, n_trees=20, seed=7)
    b = extratrees_fit(ds, n_trees=20, seed=7)
    assert a.tolist() == b.tolist()
    c = extratrees_fit(ds, n_trees=20, seed=8)
    assert a.tolist() != c.tolist()


def test_extratrees_signal_feature_dominates():
    rng = np.random.default_rng(6)
    rows = rng.normal(0, 1, size=(500, 5))
    labels = (rows[:, 0] > np.median(rows[:, 0])).astype(int)
    importances = extratrees_fit(make_dataset(rows, labels), n_trees=50, seed=3)
    assert importances.sum() == pytest.approx(1.0, abs=1e-12)
    assert importances[0] > 0.5


def test_extratrees_default_max_features():
    # ceil(sqrt(d)) candidates; 5 and 10 columns tell it from floor(sqrt(d))
    for d, ceil_sqrt in ((9, 3), (5, 3), (10, 4)):
        ds = make_dataset(np.random.default_rng(0).normal(size=(30, d)),
                          np.random.default_rng(1).integers(0, 2, 30))
        default = extratrees_fit(ds, n_trees=2, seed=0)
        assert default.tobytes() == extratrees_fit(ds, n_trees=2, max_features=ceil_sqrt, seed=0).tobytes(), d


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


def _generators(seed, n_trees):
    """The numpy Generators of a forest seeded with `seed`, one per tree."""
    return [np.random.default_rng(np.random.SeedSequence((seed, t))) for t in range(n_trees)]


def _seeds(seed, n_trees):
    """The `_rng_words` of those generators' PCG64s."""
    return _rng_words(np.array([_entropy(seed, t) for t in range(n_trees)], dtype=np.uint32))


def _left_states(draws, seed, n_trees):
    """The states in which the draws of `draws` leave `_generators(seed, n_trees)`."""
    rngs = _generators(seed, n_trees)
    finish(draws, rngs)
    return [rng.bit_generator.state for rng in rngs]


def _forest_and_draws(X, y, seeds, max_features):
    """`_extra_trees_importances` and the `_Draws` its trees drew from."""
    made = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_Draws", lambda *args: made.append(streams._Draws(*args)) or made[-1])
        return tree._extra_trees_importances(X, y, seeds, max_features), made[0]


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
    forest_seed=FOREST_SEEDS,
)
def test_extratrees_matches_per_candidate_rule(
    n, d, levels, n_constant, n_repeated, max_features, keep_fraction, seed, forest_seed
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
    mf = min(max_features, d)

    new = extratrees_fit(ds, n_trees=3, max_features=mf, seed=forest_seed)
    new_default = extratrees_fit(ds, n_trees=3, seed=forest_seed)
    picked = select_features(ds, keep_fraction, forest_seed, n_trees=3) if (
        ds.n >= 3 and np.unique(labels).size == 2) else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_extra_trees_importances",
                   lambda X, y, seeds, mf: _per_tree_oracle(X, y, _generators(forest_seed, len(seeds)), mf))
        old = extratrees_fit(ds, n_trees=3, max_features=mf, seed=forest_seed)
        old_default = extratrees_fit(ds, n_trees=3, seed=forest_seed)
        if picked is not None:
            assert picked.tolist() == select_features(ds, keep_fraction, forest_seed, n_trees=3).tolist()
    assert new.tobytes() == old.tobytes()
    assert new_default.tobytes() == old_default.tobytes()


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


@pytest.mark.parametrize("leaf", [2**63 - 1, 2**70])
def test_a_leaf_limit_past_the_rows_grows_the_trees_of_a_limit_of_n(leaf):
    """A min_samples_leaf above the n rows forbids every cut as n does: the
    int64 window arithmetic on it ended in an IndexError or a TypeError.
    The model keeps the limit it was given."""
    rng = np.random.default_rng(11)
    ds = make_dataset(rng.integers(0, 4, size=(40, 3)) / 2.0, rng.integers(0, 2, 40))
    n = ds.n
    pairs = [(dt_fit(ds, criterion, min_samples_leaf=leaf), dt_fit(ds, criterion, min_samples_leaf=n))
             for criterion in CRITERIA]
    # members of one criterion on one root share nodes until their limits part
    roots, criteria = [np.arange(n), np.arange(n), np.arange(0, n, 2), np.arange(n)], ["gini"] * 2 + ["entropy"] * 2
    got = tree.dt_fit_batch(ds, roots, criteria, [1, leaf, leaf, 3])
    pairs += zip(got, tree.dt_fit_batch(ds, roots, criteria, [1, n, n, 3]))
    assert [model.min_samples_leaf for model in got] == [1, leaf, leaf, 3]
    for new, want in pairs:
        for name in _TREE_ARRAYS:
            a, b = getattr(new, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert pairs[0][0].min_samples_leaf == leaf and pairs[0][0].left.tolist() == [-1]  # a single leaf


def test_a_leaf_limit_above_the_distinct_rows_still_bounds_a_root_that_repeats_rows():
    # A limit above the n rows was taken as n: a root of 8 rows drawn from 4
    # then split 4 + 4 under a leaf limit of 5. Grown on its own 8 rows, as
    # the array grower's list-grower oracle does, the tree is one leaf.
    X, y = np.array([[-0.65], [-0.17], [1.66], [0.66]]), np.array([0, 1, 0, 0])
    root = np.array([2, 3, 2, 0, 1, 2, 1, 2])
    for criterion in CRITERIA:
        got = tree.dt_fit_batch(make_dataset(X, y), [root], [criterion], [5])[0]
        alone = dt_fit(make_dataset(X[root], y[root]), criterion, min_samples_leaf=5)
        assert got.left.tolist() == alone.left.tolist() == [-1]


@settings(max_examples=100, deadline=None)
@given(
    n_trees=st.integers(2, 16),
    n=st.integers(20, 120),
    d=st.integers(1, 20),
    coarse=st.booleans(),
    levels=st.integers(2, 6),
    max_features=st.integers(1, 21),
    seed=FOREST_SEEDS,
)
def test_lockstep_forest_matches_per_tree_growth(n_trees, n, d, coarse, levels, max_features, seed):
    """Growing a forest in lockstep gives every tree the importances it gets
    grown alone, and leaves every tree's generator where growing it alone
    does: no tree draws for another or after it has finished."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, levels, size=(n, d)) / 2.0 if coarse else rng.normal(size=(n, d))
    labels = rng.integers(0, 2, n)

    got, draws = _forest_and_draws(rows, labels, _seeds(seed, n_trees), max_features)
    alone = _generators(seed, n_trees)
    want = _per_tree_oracle(rows, labels, alone, max_features)
    assert got.tobytes() == want.tobytes()
    assert _left_states(draws, seed, n_trees) == [g.bit_generator.state for g in alone]
    forest = extratrees_fit(make_dataset(rows, labels), n_trees, max_features, seed)
    mean = want.mean(axis=0)
    assert forest.tobytes() == (mean / mean.sum() if mean.sum() > 0 else mean).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([1, 2]) | st.integers(3, 40), min_size=1, max_size=4),
    d=st.integers(1, 6),
    coarse=st.booleans(),
    n_constant=st.integers(0, 6),
    n_trees=st.integers(1, 5),
    max_features=st.none() | st.integers(1, 6),
    seeds=st.lists(FOREST_SEEDS, min_size=4, max_size=4),
    equal_seeds=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_forest_batch_equals_one_extratrees_fit_per_forest(
    sizes, d, coarse, n_constant, n_trees, max_features, seeds, equal_seeds, seed
):
    """Forests grown as one batch, their trains' rows end to end, give each
    forest the importances of its own `extratrees_fit` bit for bit: trains
    of unequal rows (one, two, many) with constant columns, seeds distinct
    or equal, of one word or several, and max_features up to d."""
    rng = np.random.default_rng(seed)
    trains = []
    for n in sizes:
        rows = rng.integers(0, 4, size=(n, d)) / 2.0 if coarse else rng.normal(size=(n, d))
        rows[:, rng.permutation(d)[:n_constant]] = 1.5
        trains.append(make_dataset(rows, rng.integers(0, 2, n)))
    seeds = [seeds[0]] * len(sizes) if equal_seeds else seeds[:len(sizes)]
    mf = None if max_features is None else min(max_features, d)
    got = tree.extratrees_fit_batch(trains, seeds, n_trees, mf)
    assert got.shape == (len(trains), d)
    for imp, train, forest_seed in zip(got, trains, seeds, strict=True):
        assert imp.tobytes() == extratrees_fit(train, n_trees, mf, forest_seed).tobytes()


def test_a_forest_batch_peaks_within_twice_one_forest():
    # Group VII's four selecting cells at keep_fraction 0.5: 4 × 100 trees
    # on 183 × 16 rows. Reading 1 024 words of each tree's stream at a time
    # and taking CART's step cap, the batch peaked at 7.4 MB under tracemalloc
    # against 2.0 MB for one forest; it now takes 1.9 MB against 1.3 MB.
    config = ExperimentConfig(synthetic={}, groups=("VII",), keep_fraction=0.5)
    data = load_config_data(config)
    split = stratified_shuffle_split(data.labels, config.test_fraction, seed=config.seed)
    trains = [experiment._encoded_and_scaled(data, group_by_id("VII"), MODEL_SPECS[m], split)[3]
              for m in ("GaussianNB", "ComplementNB", "DT", "DT_opt")]
    peaks = []
    for batch in (trains[:1], trains):
        tracemalloc.start()
        try:
            tree.extratrees_fit_batch(batch, list(range(len(batch))))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


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
    assert clipped.tobytes() == extratrees_fit(ds, 4, 3, seed=1).tobytes()


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


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    shapes=st.sampled_from([((), ()), ((4,), (4,)), ((3, 1), (3, 5)), ((), (6,)), ((5,), ()), ((2, 3), (3,))]),
    as_float=st.booleans(),
    criterion=st.sampled_from(CRITERIA),
)
def test_binary_impurity_matches_the_masked_division(data, shapes, as_float, criterion):
    """Dividing by 1 at an empty node gives the bytes of the masked division it
    replaced: for empty nodes (n = 0), pure nodes (c1 = 0 or c1 = n), and
    counts of broadcast shapes, under both criteria."""
    n_shape, c1_shape = shapes
    full = np.broadcast_shapes(n_shape, c1_shape)
    sizes = st.sampled_from([0, 1, 2]) | st.integers(0, 10**6)
    n = np.array(data.draw(st.lists(sizes, min_size=math.prod(n_shape), max_size=math.prod(n_shape))))
    n = n.reshape(n_shape)
    # the largest class-1 count each c1 may take: its least n once broadcast
    cap = np.broadcast_to(n, full).reshape(-1, *c1_shape).min(axis=0) if c1_shape != full else \
        np.broadcast_to(n, full)
    c1 = np.array([data.draw(st.sampled_from([0, c]) | st.integers(0, c)) for c in cap.flat]).reshape(c1_shape)
    if as_float:
        n, c1 = n.astype(float), c1.astype(float)
    got = np.asarray(_binary_impurity(n, c1, criterion))
    want = np.asarray(binary_impurity_reference(n, c1, criterion))
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n_rngs=st.integers(1, 3),
    kept=st.lists(st.booleans(), min_size=3, max_size=3),
    block=st.sampled_from([1, 5, 1024]),
    seed=FOREST_SEEDS,
)
def test_draws_match_numpy_choice_and_random(data, n_rngs, kept, block, seed):
    """Emulated `choice(d, size, replace=False)` and `random(k)` calls,
    interleaved in any order over several generators, give numpy's values,
    and leave every generator in numpy's state, whether it starts with a
    kept half word or not and however few words are read at a time."""
    real, draws = _generators(seed, n_rngs), _Draws(_seeds(seed, n_rngs), block)
    for t in np.flatnonzero(kept[:n_rngs]):  # one 32-bit draw first: the next one is its kept high half
        assert draws.bounded(np.array([t]), [7]).tolist() == [real[t].integers(0, 7, size=1).tolist()]
    for _ in range(data.draw(st.integers(1, 12))):
        trees = np.array(data.draw(st.lists(st.integers(0, n_rngs - 1), min_size=1, max_size=n_rngs,
                                            unique=True)))
        if data.draw(st.booleans()):
            d = data.draw(st.integers(1, 64))
            size = data.draw(st.integers(1, d))
            got = draws.choice(trees, d, size)
            want = np.array([real[t].choice(d, size, replace=False) for t in trees])
        else:
            k = np.array(data.draw(st.lists(st.integers(0, 6), min_size=trees.size, max_size=trees.size)))
            got = draws.random(trees, k)
            want = np.concatenate([real[t].random(n) for t, n in zip(trees, k)])
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
    assert _left_states(draws, seed, n_rngs) == [r.bit_generator.state for r in real]


def test_draws_from_the_kept_half_alone_after_every_read_word_is_spent():
    # One-candidate choices among 2 or 3 features make one 32-bit draw each,
    # so every second one takes only the kept half; with one word read at a
    # time, that happens when every word read so far is spent.
    real, emulated = np.random.default_rng(9), np.random.default_rng(9)
    draws = _Draws(_rng_words([_entropy(9)]), 1)
    for d in (3, 2, 2, 2, 5):
        assert draws.choice(np.array([0]), d, 1).tolist() == [real.choice(d, 1, replace=False).tolist()]
    finish(draws, [emulated])
    assert emulated.bit_generator.state == real.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    offset=st.integers(0, 2**30),
    q=st.integers(1, 40),
    kept=st.booleans(),
    seed=FOREST_SEEDS,
)
def test_bounded_draw_rejection_loop_matches_integers(offset, q, kept, seed):
    """With m = 2³¹ + offset, Lemire's rule redraws about half of all 32-bit
    draws below m + 1; the emulated loop gives `integers(0, m + 1)`'s values
    and stream, for two generators of different half-word parity at once."""
    m = 2**31 + offset
    real, draws = _generators(seed, 2), _Draws(_seeds(seed, 2), 1024)
    # one 32-bit draw on one stream first: its next draw is the kept high half
    assert draws.bounded(np.array([int(kept)]), [7]).tolist() == [real[kept].integers(0, 7, size=1).tolist()]
    got = draws.bounded(np.arange(2), np.full(q, m + 1))
    want = np.array([rng.integers(0, m + 1, size=q) for rng in real])
    assert got.tolist() == want.tolist()
    assert _left_states(draws, seed, 2) == [r.bit_generator.state for r in real]


def test_extratrees_rejects_max_features_beyond_floyds_draw():
    # Over 10 000 features, numpy's choice draws more than d // 50 candidates
    # by another algorithm, which the forest does not emulate.
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(4, 10_001)), np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match=r"max_features must be ≤ 200 \(d // 50\) with more than 10 000 "
                                         r"features, got 201"):
        extratrees_fit(make_dataset(X, y), n_trees=1, max_features=201)
    want = _per_tree_oracle(X, y, [np.random.default_rng(5)], 200)  # still Floyd's at d // 50
    assert tree._extra_trees_importances(X, y, _rng_words([_entropy(5)]), 200).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 4),
    coarse=st.booleans(),
    levels=st.integers(1, 5),
    n_trees=st.integers(1, 10),
    max_depth=st.sampled_from([None, 0, 1, 2, 3, 5]),
    min_samples_split=st.sampled_from([2, 3, 5, 10]),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_grower_matches_the_list_grower(n, d, coarse, levels, n_trees, max_depth, min_samples_split, seed):
    """The grower that keeps its state in arrays asks the split rule about
    every node the grower it replaced asks about, exactly once, with the same
    counts and the same rows in the same order, though in other steps (it
    takes a CART batch's whole frontier at once) and a shared node once for
    all its member trees (each listed out here), and gives each tree the
    same node arrays and importances byte for byte: mixed CART batches on
    roots with repeated, unordered or no rows, under every depth and split
    limit."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)) / 2.0 if coarse else rng.normal(size=(n, d))
    y = rng.integers(0, 2, n)
    roots = [rng.integers(0, n, rng.integers(0, 2 * n + 1)) for _ in range(n_trees)]
    roots[rng.integers(0, n_trees)] = np.zeros(0, dtype=np.int64)
    criteria = rng.choice(CRITERIA, n_trees).tolist()
    leaves = rng.choice([1, 2, 5], n_trees).tolist()
    rule, per_tree_rule = tree._cart_split(X, y, criteria, leaves), cart_split_per_tree(X, y, criteria, leaves)
    asked = {"new": [], "old": []}

    def record(side, trees, node, counts, rows, starts):
        ends = np.append(starts[1:], rows.size)
        asked[side] += [(t, counts[b].tobytes(), tuple(rows[starts[b]:ends[b]].tolist()))
                        for t, b in zip(trees.tolist(), node.tolist())]

    def recorded_new(trees, node, counts, rows, seg, starts):  # a shared node once per member tree
        record("new", trees, node, counts, rows, starts)
        return rule(trees, node, counts, rows, seg, starts)

    def recorded_old(trees, counts, rows, seg, starts):
        trees, starts = np.asarray(trees), np.asarray(starts)
        record("old", trees, np.arange(trees.size), counts, rows, starts)
        return per_tree_rule(trees, counts, rows, seg, starts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_cart_split", lambda *args: recorded_new)
        batch = tree.dt_fit_batch(make_dataset(X, y), roots, criteria, leaves, max_depth, min_samples_split)
    arrays, importances = grow_reference(X, y, recorded_old, roots, max_depth, min_samples_split)
    # (tree, counts, rows) tells the list grower's nodes apart, so equal
    # multisets ask every node once
    assert len(set(asked["old"])) == len(asked["old"])
    assert sorted(asked["new"]) == sorted(asked["old"])
    for model, want, imp in zip(batch, arrays, importances, strict=True):
        for name in _TREE_ARRAYS[:-1]:
            a, b = getattr(model, name), want[name]
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert model.feature_importances.tobytes() == imp.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    n_trees=st.integers(1, 10),
    n=st.integers(2, 60),
    d=st.integers(1, 8),
    coarse=st.booleans(),
    max_features=st.integers(1, 8),
    step_rows=st.sampled_from([1, 7, 40, 200]),
    chunk_bytes=st.sampled_from([8, 100, 2000]),
    seed=FOREST_SEEDS,
)
def test_step_and_block_caps_change_no_tree(n_trees, n, d, coarse, max_features, step_rows, chunk_bytes, seed):
    """A grower step that leaves some trees' nodes to later steps, and split
    rules that score a step in blocks of whole nodes, change no forest
    importance or generator state (against growing each tree alone) and no
    CART node array (against the same batch under the default caps). A step
    takes at most `_STEP_ROWS` rows besides its largest node, and a block at
    most its cap unless it is one node."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 4, size=(n, d)) / 2.0 if coarse else rng.normal(size=(n, d))
    labels = rng.integers(0, 2, n)
    roots = [rng.integers(0, n, rng.integers(0, 2 * n + 1)) for _ in range(n_trees)]
    criteria, leaves = rng.choice(CRITERIA, n_trees).tolist(), rng.choice([1, 2, 5], n_trees).tolist()
    ds = make_dataset(rows, labels)
    alone, default = _generators(seed, n_trees), tree.dt_fit_batch(ds, roots, criteria, leaves)
    want = _per_tree_oracle(rows, labels, alone, max_features)
    blocked = tree._blocked

    def checked(score, cap):
        def scored(trees, node, counts, rows, seg, starts):
            assert rows.size <= cap or len(starts) == 1
            assert np.array_equal(np.unique(node), np.arange(len(starts)))  # each node with its members
            return score(trees, node, counts, rows, seg, starts)

        split = blocked(scored, cap)

        def step(trees, node, counts, rows, seg, starts):
            assert rows.size - np.diff(starts, append=rows.size).max() <= step_rows or rows.size <= step_rows
            return split(trees, node, counts, rows, seg, starts)
        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_STEP_ROWS", step_rows)
        mp.setattr(tree, "_CHUNK_BYTES", chunk_bytes)
        mp.setattr(tree, "_blocked", checked)
        got, draws = _forest_and_draws(rows, labels, _seeds(seed, n_trees), max_features)
        capped = tree.dt_fit_batch(ds, roots, criteria, leaves)
    assert got.tobytes() == want.tobytes()
    assert _left_states(draws, seed, n_trees) == [g.bit_generator.state for g in alone]
    for a, b in zip(capped, default, strict=True):
        for name in _TREE_ARRAYS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_forest_draws_each_steps_candidates_once_however_it_is_blocked(monkeypatch):
    # Under a 64-byte block cap a step of many nodes splits into many
    # blocks, but every tree's candidates of the step come from one draw.
    rng = np.random.default_rng(2)
    rows = np.concatenate([rng.normal(size=(60, 3)), rng.integers(0, 4, size=(60, 6)) / 2.0], axis=1)
    labels = (rows[:, 0] + rng.normal(size=60) > 0).astype(int)
    counts = {"steps": 0, "blocks": 0, "choices": 0}
    grow, blocked, choice = tree._grow, tree._blocked, tree._Draws.choice

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(tree, "_CHUNK_BYTES", 64)
    monkeypatch.setattr(tree, "_grow", lambda X, y, split, *a, **kw: grow(X, y, counted("steps", split), *a, **kw))
    monkeypatch.setattr(tree, "_blocked", lambda score, cap: blocked(counted("blocks", score), cap))
    monkeypatch.setattr(tree._Draws, "choice", lambda self, *a: counted("choices", choice)(self, *a))
    extratrees_fit(make_dataset(rows, labels), n_trees=20, seed=1)
    assert counts["choices"] == counts["steps"] > 0
    assert counts["blocks"] > 2 * counts["steps"]


def test_forest_peak_memory_stays_near_the_step_bound():
    # 100 trees on 1 000 rows take 100 000 rows at their first step. Under a
    # 32 768-row step cap, scoring in 8 192-row blocks and keeping no split
    # records, the forest peaks at 3.1 MB under tracemalloc: 5.8 MB with no
    # step cap, 4.9 MB with no blocks, 10.8 MB keeping every split's record.
    rng = np.random.default_rng(0)
    rows = np.concatenate([rng.normal(size=(1000, 4)), rng.integers(0, 50, size=(1000, 12)) / 4.0], axis=1)
    labels = (rows[:, 0] + rng.normal(size=1000) > 0).astype(int)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_STEP_ROWS", 2**15)
        tracemalloc.start()
        try:
            extratrees_fit(make_dataset(rows, labels), seed=0)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert peak_mb < 4


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 40) | st.integers(200, 400),
    d=st.integers(2, 4),
    coarse=st.booleans(),
    n_repeated=st.integers(0, 40),
    n_trees=st.integers(1, 6),
    roots_like=st.sampled_from(["folds", "any", "sorted"]),
    max_depth=st.sampled_from([None, 0, 1, 3]),
    min_samples_split=st.sampled_from([2, 5]),
    step_rows=st.integers(1, 200),
    chunk_bytes=st.integers(8, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_grown_batch_matches_both_depth_first_growers(
    n, d, coarse, n_repeated, n_trees, roots_like, max_depth, min_samples_split, step_rows, chunk_bytes, seed
):
    """A CART batch grown level by level, under any step and block cap, gives
    every tree the node arrays and importances of the list grower and of the
    one-tree grower byte for byte: deep trees whose many splits on feature 0
    show the order importances are summed in, empty, repeated and unordered
    roots, mixed criteria and min_samples_leaf, and every depth limit."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))  # feature 0 takes most splits
    if coarse:  # the others on a grid: thresholds between ties
        rows[:, 1:] = rng.integers(0, 4, size=(n, d - 1)) / 2.0
    rows[rng.integers(0, n, n_repeated)] = rows[rng.integers(0, n, n_repeated)]  # duplicated rows
    labels = rng.integers(0, 2, n)
    if roots_like == "folds":  # all rows but one fold's, as a cross-validated grid grows them
        fold = rng.integers(0, n_trees + 1, n)
        roots = [np.flatnonzero(fold != t) for t in range(n_trees)]
    else:  # any rows in any order, repeats included, or sorted with repeats
        roots = [rng.integers(0, n, rng.integers(0, 2 * n)) for _ in range(n_trees)]
        roots = [np.sort(r) for r in roots] if roots_like == "sorted" else roots
    if n_trees > 1:
        roots[rng.integers(0, n_trees)] = np.zeros(0, dtype=np.int64)
    criteria = rng.choice(CRITERIA, n_trees).tolist()
    leaves = rng.choice([1, 2, 5], n_trees).tolist()
    ds = make_dataset(rows, labels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_STEP_ROWS", step_rows)
        mp.setattr(tree, "_CHUNK_BYTES", chunk_bytes)
        batch = tree.dt_fit_batch(ds, roots, criteria, leaves, max_depth, min_samples_split)
    rule = cart_split_per_tree(rows, labels, criteria, leaves)
    arrays, importances = grow_reference(
        rows, labels, lambda trees, c, r, seg, starts: rule(np.asarray(trees), c, r, seg, np.asarray(starts)),
        roots, max_depth, min_samples_split)
    for model, want, imp, root, criterion, msl in zip(batch, arrays, importances, roots, criteria, leaves,
                                                     strict=True):
        for name in _TREE_ARRAYS[:-1]:
            a, b = getattr(model, name), want[name]
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert model.feature_importances.tobytes() == imp.tobytes()
        if root.size:
            old = _dt_fit_reference(ds.take(root), criterion, max_depth, min_samples_split, msl)
            for name in _TREE_ARRAYS:
                a, b = getattr(model, name), getattr(old, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 40) | st.integers(100, 200),
    d=st.integers(1, 4),
    n_trees=st.integers(1, 8),
    max_depth=st.sampled_from([None, 0, 1, 3, 6]),
    min_samples_split=st.sampled_from([2, 5, 20]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cart_batch_asks_the_rule_once_per_level(n, d, n_trees, max_depth, min_samples_split, seed):
    """When no step cap binds, a CART batch asks its rule once per level of
    the nodes it asks about, all trees together: 1 + the deepest such node's
    depth, however many nodes each level holds."""
    rng = np.random.default_rng(seed)
    rows, labels = rng.normal(size=(n, d)), rng.integers(0, 2, n)
    roots = [rng.integers(0, n, rng.integers(1, 2 * n)) for _ in range(n_trees)]
    criteria, leaves = rng.choice(CRITERIA, n_trees).tolist(), rng.choice([1, 2], n_trees).tolist()
    steps, rule = [0], tree._cart_split

    def counted(*args):
        split = rule(*args)

        def step(*a):
            steps[0] += 1
            return split(*a)
        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_cart_split", counted)
        batch = tree.dt_fit_batch(make_dataset(rows, labels), roots, criteria, leaves, max_depth,
                                  min_samples_split)
    asked = [depth[(model.counts.min(axis=1) > 0) & (model.counts.sum(axis=1) >= min_samples_split)
                   & (depth < (max_depth if max_depth is not None else depth.size))]
             for model, depth in ((m, _depths(m)) for m in batch)]
    deepest = max((int(a.max()) for a in asked if a.size), default=-1)
    assert steps[0] == 1 + deepest


def _per_tree_batch(ds, roots, criteria, leaves, max_depth=None, min_samples_split=2):
    """`dt_fit_batch` on the grower and CART rule it had before trees shared
    nodes: every tree's every node sorted and scored for itself."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_grow", lambda X, y, split, roots, max_depth, min_samples_split, **kw:
                   grow_per_tree(X, y, split, roots, max_depth, min_samples_split))
        mp.setattr(tree, "_cart_split", cart_split_per_tree)
        return tree.dt_fit_batch(ds, roots, criteria, leaves, max_depth, min_samples_split)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 40) | st.integers(150, 300),
    d=st.integers(1, 4),
    coarse=st.booleans(),
    n_repeated=st.integers(0, 30),
    n_roots=st.integers(1, 3),
    n_trees=st.integers(1, 12),
    copies=st.floats(0, 1),
    max_depth=st.sampled_from([None, 0, 1, 2, 3, 5]),
    min_samples_split=st.sampled_from([2, 3, 5, 10]),
    step_rows=st.integers(1, 400),
    chunk_bytes=st.integers(8, 4000),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_node_batch_matches_the_per_tree_grower(
    n, d, coarse, n_repeated, n_roots, n_trees, copies, max_depth, min_samples_split, step_rows, chunk_bytes, seed
):
    """Trees that share nodes get the node arrays and importances of the
    grower that grew every tree's nodes for itself, byte for byte: roots
    repeated as one object and as equal copies, min_samples_leaf limits that
    part the trees' picks at many depths, mixed criteria, every depth and
    split limit, and any step and block cap."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    if coarse:  # all but feature 0 on a grid: thresholds between ties
        rows[:, 1:] = rng.integers(0, 4, size=(n, d - 1)) / 2.0
    rows[rng.integers(0, n, n_repeated)] = rows[rng.integers(0, n, n_repeated)]  # duplicated rows
    ds = make_dataset(rows, rng.integers(0, 2, n))
    fold = rng.integers(0, n_roots + 1, n)
    bases = [np.flatnonzero(fold != r) if rng.random() < 0.5 else rng.integers(0, n, rng.integers(0, 2 * n))
             for r in range(n_roots)]
    roots = [bases[i] for i in rng.integers(0, n_roots, n_trees)]
    roots = [root.copy() if rng.random() < copies else root for root in roots]
    criteria = rng.choice(CRITERIA, n_trees).tolist()
    leaves = rng.choice([1, 2, 3, 5, 8], n_trees).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_STEP_ROWS", step_rows)
        mp.setattr(tree, "_CHUNK_BYTES", chunk_bytes)
        batch = tree.dt_fit_batch(ds, roots, criteria, leaves, max_depth, min_samples_split)
    want = _per_tree_batch(ds, roots, criteria, leaves, max_depth, min_samples_split)
    for new, old in zip(batch, want, strict=True):
        for name in _TREE_ARRAYS:
            a, b = getattr(new, name), getattr(old, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def _scored(fit, per_tree=False):
    """The nodes the CART rule scores while `fit()` runs, as (member trees,
    rows) pairs, and `fit()`'s value; `per_tree` runs the grower and rule
    that grew every tree's nodes for itself, whose nodes have one member."""
    nodes = []

    def recorded(*args):
        split = (cart_split_per_tree if per_tree else rule)(*args)

        def step(trees, *rest):
            node, (counts, rows, seg, starts) = (np.arange(len(trees)) if per_tree else rest[0]), rest[-4:]
            sizes = np.diff(np.append(starts, rows.size))
            nodes.extend((tuple(np.asarray(trees)[node == b].tolist()), int(sizes[b])) for b in range(len(starts)))
            return split(trees, *rest)
        return step

    rule = tree._cart_split
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_cart_split", recorded)
        if per_tree:
            mp.setattr(tree, "_grow", lambda X, y, split, roots, max_depth, min_samples_split, **kw:
                       grow_per_tree(X, y, split, roots, max_depth, min_samples_split))
        return nodes, fit()


@pytest.mark.parametrize("criterion,leaf", [("gini", 1), ("entropy", 2), ("gini", 5)])
def test_trees_on_one_root_score_the_rows_of_one_tree(criterion, leaf):
    rng = np.random.default_rng(4)
    rows = np.concatenate([rng.normal(size=(300, 2)), rng.integers(0, 6, size=(300, 3)) / 2.0], axis=1)
    ds = make_dataset(rows, (rows[:, 0] + rng.normal(size=300) > 0).astype(int))
    root = rng.permutation(300)[:250]
    one, (alone,) = _scored(lambda: tree.dt_fit_batch(ds, [root], [criterion], [leaf]))
    for k in (2, 3, 7):
        roots = [root] + [root.copy() for _ in range(k - 1)]
        shared, batch = _scored(lambda: tree.dt_fit_batch(ds, roots, [criterion] * k, [leaf] * k))
        assert sum(size for _, size in shared) == sum(size for _, size in one) > 0
        assert {members for members, _ in shared} == {tuple(range(k))}  # every node holds every tree
        for model in batch:
            for name in _TREE_ARRAYS:
                assert getattr(model, name).tobytes() == getattr(alone, name).tobytes(), name


def test_default_grid_scores_at_most_055_of_the_per_tree_rows():
    # The 48 trees of DT_opt's grid on group VII's training partition of the
    # default run (8 folds × 2 criteria × min_samples_leaf 1, 2 and 5), and
    # its final tree: sharing scores 0.43 of the rows the per-tree grower does.
    config = ExperimentConfig.from_dict({})  # the default run
    data = load_config_data(config)
    split = stratified_shuffle_split(data.labels, config.test_fraction, seed=config.seed)

    def cell():
        return run_cell_fitted(data, group_by_id("VII"), MODEL_SPECS["DT_opt"], config, split)[0]

    shared, got = _scored(cell)
    per_tree, want = _scored(cell, per_tree=True)
    assert got == want
    assert max(len(members) for members, _ in shared) == 3
    assert {len(members) for members, _ in per_tree} == {1}
    assert sum(size for _, size in shared) <= 0.55 * sum(size for _, size in per_tree)


def test_dt_batch_rejects_arguments_of_other_lengths():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.normal(size=(20, 2)), rng.integers(0, 2, 20))
    root = np.arange(20)
    for roots, criteria, leaves, lengths in (([root], ["gini", "entropy"], [1, 1], "1, 2, 2"),
                                             ([root, root], ["gini"], [1, 2], "2, 1, 2"),
                                             ([root, root], ["gini", "gini"], [1], "2, 2, 1"),
                                             ([], ["gini"], [], "0, 1, 0")):
        with pytest.raises(ValueError, match=f"one per tree, got lengths {lengths}$"):
            tree.dt_fit_batch(ds, roots, criteria, leaves)
