from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers

from spineml.errors import (
    ClassSmallerThanFoldsError,
    ClassTooSmallError,
    EmptyGridError,
    SingleClassError,
)
from spineml.metrics import confusion, f1
from spineml.model_selection import (
    ParamGrid,
    default_grid,
    grid_search,
    select_features,
    stratified_kfold,
    stratified_shuffle_split,
    univariate_f_scores,
)
from spineml import model_selection, neighbors
from spineml.errors import PipelineError
from helpers import _score, derive_seed
from spineml.model_selection import _with_appended, _with_copies
from spineml.neighbors import _distances, _nearest, knn_fit, knn_predict, knn_predict_many
from spineml.resampling import ResamplePlan, oversample
from spineml.tree import dt_fit, dt_predict_many

from helpers import make_dataset, predict_constrained


def _labels(n0, n1):
    return np.array([0] * n0 + [1] * n1)


def test_split_published_cohort_sizes():
    labels = _labels(117, 127)
    split = stratified_shuffle_split(labels, 0.25, seed=0)
    assert split.test_idx.size == 61
    assert split.train_idx.size == 183


def test_split_balanced_hundred():
    labels = _labels(50, 50)
    split = stratified_shuffle_split(labels, 0.25, seed=3)
    assert split.test_idx.size == 25
    per_class = [int(np.sum(labels[split.test_idx] == c)) for c in (0, 1)]
    assert sorted(per_class) == [12, 13]


def test_split_is_partition_and_deterministic():
    labels = _labels(30, 20)
    a = stratified_shuffle_split(labels, 0.3, seed=9)
    b = stratified_shuffle_split(labels, 0.3, seed=9)
    assert a.train_idx.tolist() == b.train_idx.tolist()
    assert a.test_idx.tolist() == b.test_idx.tolist()
    combined = np.sort(np.concatenate([a.train_idx, a.test_idx]))
    assert combined.tolist() == list(range(50))
    c = stratified_shuffle_split(labels, 0.3, seed=10)
    assert a.test_idx.tolist() != c.test_idx.tolist()


def test_split_per_class_deviation_bounded():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n1 = int(rng.integers(5, 120))
        n0 = int(rng.integers(5, 120))
        labels = rng.permutation(_labels(n0, n1))
        frac = float(rng.uniform(0.1, 0.5))
        split = stratified_shuffle_split(labels, frac, seed=int(rng.integers(1e6)))
        assert split.test_idx.size == round(frac * labels.size)
        for c, n_c in ((0, n0), (1, n1)):
            got = int(np.sum(labels[split.test_idx] == c))
            assert abs(got - frac * n_c) <= 1.0


def test_split_class_too_small():
    with pytest.raises(ClassTooSmallError):
        stratified_shuffle_split(np.array([0, 0, 0, 1]), 0.25, seed=0)


def _split_outcome(split, labels, test_fraction, seed):
    try:
        out = split(labels, test_fraction, seed)
    except (ValueError, PipelineError) as exc:  # the type and message must match too
        return (type(exc), str(exc))
    return [(idx.dtype, idx.tobytes()) for idx in (out.train_idx, out.test_idx)]


@settings(max_examples=500, deadline=None)
@given(
    classes=st.lists(st.integers(-3, 9), min_size=1, max_size=5, unique=True),
    sizes=st.lists(st.integers(2, 60) | st.integers(1, 3), min_size=5, max_size=5),
    test_fraction=st.floats(0.0, 1.0) | st.floats(0.0, 0.05) | st.floats(0.95, 1.0)
    | st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 1.0, -0.25, 1.5]),
    seed=st.integers(0, 2**32 - 1),
    order=st.integers(0, 2**32 - 1),
)
@example(classes=[0, 1], sizes=[5, 5, 5, 5, 5], test_fraction=0.5, seed=0, order=0)  # both miss by 0.5: a tie
def test_split_allocates_in_one_pass_what_the_per_row_loop_allocated(classes, sizes, test_fraction, seed, order):
    """The one-pass test allocation gives the loop's indices, or its
    exception type and message: 1–5 classes of 1–60 rows in any label
    order, test fractions near 0 and 1, and fractions outside (0, 1)."""
    rows = np.array([c for c, k in zip(classes, sizes) for _ in range(k)], dtype=np.int64)
    labels = np.random.default_rng(order).permutation(rows)
    want = _split_outcome(helpers.stratified_shuffle_split_loop, labels, test_fraction, seed)
    assert _split_outcome(stratified_shuffle_split, labels, test_fraction, seed) == want


def test_kfold_sizes_183():
    labels = np.array([0] * 88 + [1] * 95)
    plan = stratified_kfold(labels, 8, seed=1)
    sizes = sorted(len(f) for f in plan.folds)
    assert sizes == [22] + [23] * 7


def test_kfold_exact_divisibility():
    labels = _labels(8, 8)
    plan = stratified_kfold(labels, 8, seed=2)
    for fold in plan.folds:
        assert len(fold) == 2
        assert sorted(labels[fold]) == [0, 1]


def test_kfold_is_partition():
    labels = np.random.default_rng(5).integers(0, 2, 100)
    labels[:16] = [0, 1] * 8
    plan = stratified_kfold(labels, 8, seed=4)
    merged = np.sort(np.concatenate(plan.folds))
    assert merged.tolist() == list(range(100))
    sizes = [len(f) for f in plan.folds]
    assert max(sizes) - min(sizes) <= 1
    # per-class spread within 1 as well
    for c in (0, 1):
        counts = [int(np.sum(labels[f] == c)) for f in plan.folds]
        assert max(counts) - min(counts) <= 1


def test_kfold_class_smaller_than_folds():
    with pytest.raises(ClassSmallerThanFoldsError):
        stratified_kfold(_labels(20, 5), 8, seed=0)


def test_kfold_deterministic():
    labels = _labels(40, 30)
    a = stratified_kfold(labels, 8, seed=6)
    b = stratified_kfold(labels, 8, seed=6)
    assert all(x.tolist() == y.tolist() for x, y in zip(a.folds, b.folds))


def _fold_outcome(deal, labels, n_folds, seed):
    try:
        plan = deal(labels, n_folds, seed)
    except ClassSmallerThanFoldsError as exc:
        return ("error", str(exc))
    return [(f.dtype, f.shape, f.tobytes()) for f in plan.folds]


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n_folds=st.integers(2, 10),
    classes=st.lists(st.integers(-3, 9), min_size=0, max_size=4, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_kfold_deals_the_folds_the_per_row_loop_dealt(data, n_folds, classes, seed):
    """Dealing all classes' permutations end to end in one array gives the
    bytes of the per-row loop it replaced: 1–4 classes in any label order,
    classes of exactly n_folds rows or fewer, and empty labels."""
    sizes = [data.draw(st.sampled_from([n_folds, n_folds - 1]) | st.integers(0, 3 * n_folds)) for _ in classes]
    labels = data.draw(st.permutations([c for c, k in zip(classes, sizes) for _ in range(k)]))
    labels = np.array(labels, dtype=np.int64)
    want = _fold_outcome(helpers.stratified_kfold_reference, labels, n_folds, seed)
    assert _fold_outcome(stratified_kfold, labels, n_folds, seed) == want
    if not labels.size:
        assert want == [(np.dtype(np.int64), (0,), b"")] * n_folds


def test_f_scores_constant_feature_is_zero():
    ds = make_dataset([[1.0, 0.0], [1.0, 1.0], [1.0, 5.0], [1.0, 6.0]], [0, 0, 1, 1])
    scores = univariate_f_scores(ds)
    assert scores[0] == 0.0
    assert scores[1] > 0


def test_f_scores_hand_case_against_scipy():
    a = [0.0, 0.0, 1.0]
    b = [4.0, 5.0, 5.0]
    ds = make_dataset([[v] for v in a + b], [0, 0, 0, 1, 1, 1])
    scores = univariate_f_scores(ds)
    expected = scipy.stats.f_oneway(a, b).statistic
    assert scores[0] == pytest.approx(expected, rel=1e-12)
    assert scores[0] == pytest.approx(84.5, abs=1e-9)


def test_f_scores_permutation_invariant():
    rng = np.random.default_rng(12)
    rows = rng.normal(0, 1, size=(30, 3))
    labels = rng.integers(0, 2, 30)
    labels[:2] = [0, 1]
    base = univariate_f_scores(make_dataset(rows, labels))
    perm = rng.permutation(30)
    shuffled = univariate_f_scores(make_dataset(rows[perm], labels[perm]))
    assert np.allclose(base, shuffled, rtol=1e-12)


def test_f_scores_affine_invariant():
    rng = np.random.default_rng(15)
    rows = rng.normal(0, 1, size=(40, 2))
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    base = univariate_f_scores(make_dataset(rows, labels))
    rows2 = rows.copy()
    rows2[:, 0] = 5.0 * rows2[:, 0] - 11.0
    transformed = univariate_f_scores(make_dataset(rows2, labels))
    assert np.allclose(base, transformed, rtol=1e-9)


def test_f_scores_separating_feature_is_infinite():
    ds = make_dataset([[0.0], [0.0], [1.0], [1.0]], [0, 0, 1, 1])
    assert univariate_f_scores(ds)[0] == np.inf


def test_f_scores_single_class():
    with pytest.raises(SingleClassError):
        univariate_f_scores(make_dataset([[1.0], [2.0], [3.0]], [0, 0, 0]))


def test_select_features_default_keeps_all():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng.normal(0, 1, size=(40, 5)), rng.integers(0, 2, 40))
    kept = select_features(ds, seed=0, n_trees=10)
    assert (kept.dtype, kept.tolist()) == (np.int64, [0, 1, 2, 3, 4])


def test_top_m_union_rule(monkeypatch):
    # top 2 by F score: 0, 1; by importance: 1, 3
    monkeypatch.setattr(model_selection, "univariate_f_scores", lambda train: np.array([10.0, 9.0, 1.0, 2.0]))
    monkeypatch.setattr(model_selection, "extratrees_fit", lambda *args, **kwargs: np.array(
        [0.1, 0.5, 0.05, 0.35]))
    ds = make_dataset(np.zeros((4, 4)), [0, 0, 1, 1])
    kept = select_features(ds, keep_fraction=0.5)
    assert (kept.dtype, kept.tolist()) == (np.int64, [0, 1, 3])


def test_select_features_finds_signal_feature():
    rng = np.random.default_rng(19)
    rows = rng.normal(0, 1, size=(500, 5))
    labels = (rows[:, 2] + 0.3 * rng.normal(size=500) > 0).astype(int)
    kept = select_features(make_dataset(rows, labels), keep_fraction=0.2, seed=5, n_trees=30)
    assert 2 in kept.tolist()
    assert len(kept) <= 2  # union of two singletons


def test_param_grid_combos_order_and_empty():
    grid = ParamGrid("knn", {"k": (3, 7), "weighting": ("uniform",), "metric": ("euclidean",)})
    combos = grid.combos()
    assert combos[0]["k"] == 3 and combos[1]["k"] == 7
    with pytest.raises(EmptyGridError):
        ParamGrid("knn", {}).combos()
    with pytest.raises(EmptyGridError):
        ParamGrid("knn", {"k": ()}).combos()


def test_default_grids_match_documented_shapes():
    assert len(default_grid("knn").combos()) == 8 * 2 * 2
    assert len(default_grid("dt").combos()) == 2 * 6 * 3 * 3


def _blobs(n, seed, noise=1.6):
    rng = np.random.default_rng(seed)
    half = n // 2
    rows = np.vstack([
        rng.normal(0, noise, size=(half, 2)),
        rng.normal(1.5, noise, size=(n - half, 2)),
    ])
    labels = np.array([0] * half + [1] * (n - half))
    perm = rng.permutation(n)
    return make_dataset(rows[perm], labels[perm])


def test_grid_search_singleton():
    ds = _blobs(64, seed=2)
    folds = stratified_kfold(ds.labels, 8, seed=0)
    grid = ParamGrid("knn", {"k": (3,), "weighting": ("uniform",), "metric": ("euclidean",)})
    best, table = grid_search(ds, grid, folds)
    assert best == {"k": 3, "weighting": "uniform", "metric": "euclidean"}
    assert len(table) == 1
    assert len(table[0]["fold_scores"]) == 8


def test_grid_search_prefers_smoother_k_on_noisy_blobs():
    ds = _blobs(200, seed=7)
    folds = stratified_kfold(ds.labels, 8, seed=1)
    grid = ParamGrid("knn", {"k": (1, 9), "weighting": ("uniform",), "metric": ("euclidean",)})
    best, table = grid_search(ds, grid, folds)
    assert best["k"] == 9
    assert table[1]["mean_score"] > table[0]["mean_score"]


def test_grid_search_tie_breaks_to_earlier_combo():
    # perfectly separable: every k scores 1.0 -> first (simplest) wins
    ds = make_dataset(
        [[0.0], [0.1], [0.2], [0.3], [0.4], [0.5], [0.6], [0.7],
         [10.0], [10.1], [10.2], [10.3], [10.4], [10.5], [10.6], [10.7]],
        [0] * 8 + [1] * 8,
    )
    folds = stratified_kfold(ds.labels, 8, seed=0)
    grid = ParamGrid("knn", {"k": (3, 7), "weighting": ("uniform",), "metric": ("euclidean",)})
    best, table = grid_search(ds, grid, folds)
    assert table[0]["mean_score"] == table[1]["mean_score"] == 1.0
    assert best["k"] == 3


def test_grid_search_failing_combo_scores_zero_and_flags():
    ds = _blobs(40, seed=3)
    folds = stratified_kfold(ds.labels, 8, seed=0)
    grid = ParamGrid("knn", {"k": (3, 500), "weighting": ("uniform",), "metric": ("euclidean",)})
    best, table = grid_search(ds, grid, folds)
    assert best["k"] == 3
    assert table[1]["mean_score"] == 0.0
    assert table[1]["error"] is not None


def _naive_grid_recompute(ds, grid, folds, resample, scoring_seed):
    """From-scratch refit of every combination x fold."""
    all_idx = np.arange(ds.n)
    results = []
    for ci, combo in enumerate(grid.combos()):
        fold_scores = []
        for fi, val_idx in enumerate(folds.folds):
            tr_idx = np.setdiff1d(all_idx, val_idx)
            sub = ds.take(tr_idx)
            if resample is not None:
                sub = oversample(sub, replace(resample, seed=derive_seed(scoring_seed, ci, fi)))
            if grid.family == "knn":
                model = knn_fit(sub, combo["k"], combo["weighting"], combo["metric"])
                preds = knn_predict_many(model, ds.rows[val_idx])
            else:
                model = dt_fit(sub, combo["criterion"], combo["max_depth"],
                               combo["min_samples_split"], combo["min_samples_leaf"])
                preds = dt_predict_many(model, ds.rows[val_idx])
            fold_scores.append(f1(confusion(ds.labels[val_idx], preds)))
        results.append(float(np.mean(fold_scores)))
    return results


@pytest.mark.parametrize("family", ["knn", "dt"])
def test_grid_search_matches_independent_recomputation(family):
    ds = _blobs(80, seed=11)
    folds = stratified_kfold(ds.labels, 8, seed=2)
    if family == "knn":
        grid = ParamGrid("knn", {"k": (1, 3, 5), "weighting": ("uniform", "inverse-distance"),
                                 "metric": ("euclidean", "manhattan")})
    else:
        grid = ParamGrid("dt", {"criterion": ("gini", "entropy"), "max_depth": (2, 4, None),
                                "min_samples_split": (2, 5), "min_samples_leaf": (1, 2)})
    best, table = grid_search(ds, grid, folds, seed=77)
    recomputed = _naive_grid_recompute(ds, grid, folds, None, 77)
    for row, fresh in zip(table, recomputed):
        assert abs(row["mean_score"] - fresh) < 1e-12
    assert best == grid.combos()[int(np.argmax(recomputed))]


def test_grid_search_with_resampling_matches_recomputation():
    ds = _blobs(60, seed=13)
    # force imbalance 40/20
    labels = np.array([0] * 40 + [1] * 20)
    ds = make_dataset(ds.rows, labels)
    folds = stratified_kfold(ds.labels, 8, seed=3)
    grid = ParamGrid("knn", {"k": (3, 5), "weighting": ("uniform",), "metric": ("euclidean",)})
    plan = ResamplePlan("random_over")
    best, table = grid_search(ds, grid, folds, resample=plan, seed=55)
    recomputed = _naive_grid_recompute(ds, grid, folds, plan, 55)
    for row, fresh in zip(table, recomputed):
        assert abs(row["mean_score"] - fresh) < 1e-12


def test_grid_search_rejects_a_dt_grid_with_resampling():
    ds = _blobs(40, seed=5)
    folds = stratified_kfold(ds.labels, 4, seed=0)
    grid = ParamGrid("dt", {"criterion": ("gini",), "max_depth": (2,),
                            "min_samples_split": (2,), "min_samples_leaf": (1,)})
    with pytest.raises(ValueError, match="resampling"):
        grid_search(ds, grid, folds, resample=ResamplePlan("random_over"))


def _naive_knn_cv_table(ds, grid, folds, resample, scoring_seed):
    """From-scratch refit of every combination x fold, predicting one record
    at a time, with failures scored 0 and flagged by the last failing fold."""
    all_idx = np.arange(ds.n)
    table = []
    for ci, combo in enumerate(grid.combos()):
        fold_scores, error = [], None
        for fi, val_idx in enumerate(folds.folds):
            try:
                sub = ds.take(np.setdiff1d(all_idx, val_idx))
                if resample is not None:
                    sub = oversample(sub, replace(resample, seed=derive_seed(scoring_seed, ci, fi)))
                model = knn_fit(sub, combo["k"], combo["weighting"], combo["metric"])
            except PipelineError as exc:
                fold_scores.append(0.0)
                error = str(exc)
                continue
            preds = [knn_predict(model, x)[0] for x in ds.rows[val_idx]]
            fold_scores.append(f1(confusion(ds.labels[val_idx], preds)))
        table.append({"fold_scores": fold_scores, "error": error})
    return table


@pytest.mark.parametrize("weighting", ["uniform", "inverse-distance"])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("method", ["random_over", "smote"])
def test_fold_cached_knn_search_matches_refitting_every_fold(method, metric, weighting):
    ds = _blobs(60, seed=13)
    ds = make_dataset(np.round(ds.rows, 1), np.array([0] * 40 + [1] * 20))
    folds = stratified_kfold(ds.labels, 8, seed=3)
    # fold training sets hold 52-53 rows and 70 after oversampling: k=4 is
    # even, k=60 needs appended rows, k=80 exceeds the oversampled fold
    grid = ParamGrid("knn", {"k": (1, 4, 7, 60, 80), "weighting": (weighting,), "metric": (metric,)})
    plan = ResamplePlan(method)
    _, table = grid_search(ds, grid, folds, resample=plan, seed=55)
    naive = _naive_knn_cv_table(ds, grid, folds, plan, 55)
    assert [(r["fold_scores"], r["error"]) for r in table] == [
        (r["fold_scores"], r["error"]) for r in naive
    ]
    assert table[-1]["error"] == "k must be in [1, 70], got 80"
    assert all(r["error"] is None for r in table[:-1])


@pytest.mark.parametrize("chunk_bytes", [1, 6000])
@pytest.mark.parametrize("method", ["random_over", "smote"])
def test_fold_cached_knn_search_is_the_same_in_small_blocks(method, chunk_bytes, monkeypatch):
    # fold training sets hold about 18 appended rows of 2 features, so one
    # (combination, query row) pair takes 288 bytes: 1 byte gives one pair per
    # block, 6 000 bytes a block of 2 to 3 combinations × all validation rows
    ds = _blobs(60, seed=13)
    ds = make_dataset(np.round(ds.rows, 1), np.array([0] * 40 + [1] * 20))
    folds = stratified_kfold(ds.labels, 8, seed=3)
    grid = ParamGrid("knn", {"k": (1, 4, 7, 60), "weighting": ("uniform", "inverse-distance"),
                             "metric": ("euclidean", "manhattan")})
    want = grid_search(ds, grid, folds, resample=ResamplePlan(method), seed=55)
    monkeypatch.setattr(neighbors, "_CHUNK_BYTES", chunk_bytes)
    assert grid_search(ds, grid, folds, resample=ResamplePlan(method), seed=55) == want


def test_fold_cached_knn_search_keeps_resampling_errors():
    # 3 minority rows over 2 folds: one fold keeps a single minority row,
    # which SMOTE rejects; the other oversamples normally
    rng = np.random.default_rng(8)
    rows = np.vstack([rng.normal(0, 1, size=(17, 2)), rng.normal(6, 0.5, size=(3, 2))])
    ds = make_dataset(rows, np.array([0] * 17 + [1] * 3))
    folds = stratified_kfold(ds.labels, 2, seed=1)
    grid = ParamGrid("knn", {"k": (1, 3), "weighting": ("uniform",), "metric": ("euclidean",)})
    plan = ResamplePlan("smote")
    _, table = grid_search(ds, grid, folds, resample=plan, seed=4)
    naive = _naive_knn_cv_table(ds, grid, folds, plan, 4)
    assert [(r["fold_scores"], r["error"]) for r in table] == [
        (r["fold_scores"], r["error"]) for r in naive
    ]
    assert table[0]["error"] == "SMOTE needs at least 2 minority rows"
    assert sorted(table[0]["fold_scores"]) == [0.0, 1.0]


def _tie_heavy_fold(rng, n, d, q, duplicates):
    """Coarse-grid fold rows with duplicated minority rows, and validation
    rows on training rows (distance 0) and between them."""
    points = rng.integers(-2, 3, size=(n, d)).astype(float)
    labels = rng.integers(0, 2, n)
    labels[0], labels[1] = 0, 1
    minority = int(rng.integers(0, 2))
    dup = rng.choice(np.flatnonzero(labels == minority), size=duplicates)
    points, labels = np.vstack([points, points[dup]]), np.concatenate([labels, labels[dup]])
    X = np.vstack([points[:q], rng.integers(-4, 5, size=(q, d)) / 2.0])
    return points, labels, minority, X


FOLD = dict(
    n=st.integers(2, 40),
    d=st.integers(1, 3),
    q=st.integers(1, 10),
    k=st.integers(1, 21),
    combos=st.integers(1, 4),
    need=st.integers(1, 30),
    duplicates=st.integers(0, 10),
    metric=st.sampled_from(["euclidean", "manhattan"]),
    block_rows=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(far=st.booleans(), **FOLD)
def test_copy_merge_equals_measuring_the_copies(n, d, q, k, combos, need, duplicates, metric,
                                               block_rows, seed, far):
    """Random oversampling merged by multiplicities equals measuring every
    copy and sorting it into the cached lists (the old merge, kept in
    helpers): ties among originals, copies and duplicated minority rows,
    copies of rows outside the cached lists, and blocks split small."""
    rng = np.random.default_rng(seed)
    points, labels, minority, X = _tie_heavy_fold(rng, n, d, q, duplicates)
    pool = np.flatnonzero(labels == minority)
    src = pool[rng.integers(0, pool.size, size=(combos, need))]
    if far:  # half the copies from the minority row farthest from query row 0
        src[:, : need // 2] = pool[np.argmax(_distances(points[pool], X[:1], (metric,))[metric][0])]
    counts = np.stack([np.bincount(s, minlength=len(points)) for s in src])
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(neighbors, "_CHUNK_BYTES", block_rows * 8 * points.size)
            mp.setattr(helpers, "_CHUNK_BYTES", block_rows * 8 * need * d)
        dist, idx = _nearest(points, X, metric, k)
        want = helpers._with_appended(dist[None], labels[idx][None], points[src], minority, X, metric, k)
    got = _with_copies(dist, idx, labels[idx], counts, minority, k)
    assert got[0].shape == want[0].shape and got[1].dtype == want[1].dtype
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@settings(max_examples=200, deadline=None)
@given(**FOLD)
def test_appended_merge_equals_the_sorting_merge(n, d, q, k, combos, need, duplicates, metric,
                                                 block_rows, seed):
    """SMOTE's merge, `_top_k` over a cached list and its appended rows,
    equals the old full stable sort of them, with appended rows on the same
    coarse grid so that they tie with originals and with each other."""
    rng = np.random.default_rng(seed)
    points, labels, minority, X = _tie_heavy_fold(rng, n, d, q, duplicates)
    extra = rng.integers(-4, 5, size=(combos, need, d)) / 2.0
    dist, idx = _nearest(points, X, metric, k)
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            for module in (neighbors, helpers):
                mp.setattr(module, "_CHUNK_BYTES", block_rows * 8 * need * d)
        want = helpers._with_appended(dist[None], labels[idx][None], extra, minority, X, metric, k)
        got = _with_appended(dist[None], labels[idx][None], extra, minority, X, metric, k)
    assert got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_appended_merge_blocks_under_the_neighbors_byte_cap(monkeypatch):
    """`_with_appended` reads `neighbors._CHUNK_BYTES` when it is called:
    patching that one name splits its distances into one block per
    (combination, query row) pair, with the same lists."""
    rng = np.random.default_rng(4)
    points, labels, minority, X = _tie_heavy_fold(rng, 20, 2, 5, 3)
    combos, need, d, k = 3, 4, 2, 7
    extra = rng.integers(-4, 5, size=(combos, need, d)) / 2.0
    dist, idx = _nearest(points, X, "euclidean", k)
    args = dist[None], labels[idx][None], extra, minority, X, "euclidean", k
    calls, real = [], model_selection._distances
    monkeypatch.setattr(model_selection, "_distances", lambda *a: calls.append(1) or real(*a))
    want = _with_appended(*args)
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(neighbors, "_CHUNK_BYTES", 8 * need * d)
    got = _with_appended(*args)
    assert len(calls) == combos * len(X)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_grid_search_accuracy_scoring():
    ds = _blobs(64, seed=4)
    folds = stratified_kfold(ds.labels, 8, seed=0)
    grid = ParamGrid("knn", {"k": (5,), "weighting": ("uniform",), "metric": ("euclidean",)})
    _, table_f1 = grid_search(ds, grid, folds, scoring="f1")
    _, table_acc = grid_search(ds, grid, folds, scoring="accuracy")
    assert table_f1[0]["mean_score"] != table_acc[0]["mean_score"]


# `_dt_grid_shared` as it was before the lockstep batch, one dt_fit per
# (criterion, min_samples_leaf, fold) on the fold's own rows, kept verbatim
# as the oracle.
def _dt_grid_per_fold(train, combos, fold_train, fold_val, scoring, scores, flags):
    """Grow one unconstrained tree per (criterion, min_samples_leaf, fold) and
    evaluate depth/split-size combos by constrained routing — identical to
    refitting because split choice is local to the node."""
    keys = dict.fromkeys((combo["criterion"], combo["min_samples_leaf"]) for combo in combos)
    cache = {}
    for criterion, msl in keys:
        for fi, tr in enumerate(fold_train):
            try:
                cache[(criterion, msl, fi)] = dt_fit(
                    train.take(tr), criterion, max_depth=None, min_samples_split=2,
                    min_samples_leaf=msl,
                )
            except PipelineError as exc:
                cache[(criterion, msl, fi)] = exc
    for ci, combo in enumerate(combos):
        for fi in range(len(fold_val)):
            entry = cache[(combo["criterion"], combo["min_samples_leaf"], fi)]
            if isinstance(entry, PipelineError):
                scores[ci, fi] = 0.0
                flags[ci] = str(entry)
                continue
            preds = predict_constrained(
                entry, train.rows[fold_val[fi]], combo["max_depth"], combo["min_samples_split"]
            )
            scores[ci, fi] = _score(scoring, train.labels[fold_val[fi]], preds)


@pytest.mark.parametrize("scoring", ["f1", "accuracy"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dt_grid_batch_matches_per_fold_fits(seed, scoring, monkeypatch):
    """The DT grid's one lockstep batch gives the CV table of the per-fold
    dt_fit loop it replaced."""
    rng = np.random.default_rng(seed)
    rows = np.concatenate([rng.normal(size=(150, 3)), rng.integers(0, 4, size=(150, 5)) / 2.0], axis=1)
    labels = (rows[:, 0] + rows[:, 4] + rng.normal(size=150) > 1).astype(int)
    ds, folds = make_dataset(rows, labels), stratified_kfold(labels, 8, seed=seed)
    got = grid_search(ds, default_grid("dt"), folds, scoring=scoring)
    monkeypatch.setattr(model_selection, "_dt_grid_shared", _dt_grid_per_fold)
    assert got == grid_search(ds, default_grid("dt"), folds, scoring=scoring)


def test_dt_grid_flags_a_fold_with_no_training_rows(monkeypatch):
    ds = _blobs(40, seed=3)
    folds = model_selection.FoldPlan((np.arange(40),))  # one fold: nothing left to train on
    grid = ParamGrid("dt", {"criterion": ("gini", "entropy"), "max_depth": (2, None),
                            "min_samples_split": (2,), "min_samples_leaf": (1, 2)})
    got = grid_search(ds, grid, folds)
    assert {row["error"] for row in got[1]} == {"cannot fit a tree on zero rows"}
    monkeypatch.setattr(model_selection, "_dt_grid_shared", _dt_grid_per_fold)
    assert got == grid_search(ds, grid, folds)


@pytest.mark.parametrize("family", ["knn", "dt"])
def test_grid_search_refuses_folds_that_share_a_row(family):
    # Each row's fold is kept once, so a row in two folds would train the
    # fold it validates.
    ds = _blobs(40, seed=3)
    grid = model_selection.default_grid(family)
    with pytest.raises(ValueError, match="folds must not share a row"):
        grid_search(ds, grid, model_selection.FoldPlan((np.arange(25), np.arange(20, 40))))
    with pytest.raises(ValueError, match="folds must not share a row"):
        grid_search(ds, grid, model_selection.FoldPlan((np.array([0, 0, 1]), np.arange(2, 40))))
