"""Stratified splitting, stratified k-fold plans, feature scoring, grid search.

Everything here is seed-deterministic: splits and folds shuffle within
class from an explicit seed, and every grid cell derives its stream from
(seed, combination index, fold index), so results never depend on
evaluation order or worker count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (
    ClassSmallerThanFoldsError,
    ClassTooSmallError,
    EmptyGridError,
    PipelineError,
    SingleClassError,
    TooFewRowsError,
)
from .metrics import accuracy, confusion, f1
# _distances and knn_predict_many stay importable from this module
# (perfbench's tracing tests check that their bindings here are rebound).
from .neighbors import _distances, _nearest, _vote, knn_fit, knn_predict_many  # noqa: F401
from .resampling import ResamplePlan, minority_basis, oversample
from .tree import dt_fit_batch, extratrees_fit, predict_constrained


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer context (seed, combination, fold, ...)."""
    seq = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(seq.generate_state(1)[0])


@dataclass(frozen=True)
class SplitIndices:
    train_idx: np.ndarray
    test_idx: np.ndarray


def stratified_shuffle_split(labels, test_fraction: float = 0.25, seed: int = 0) -> SplitIndices:
    """Class-proportional train/test partition by seeded within-class shuffle.

    Each class contributes round(test_fraction × class count) test rows,
    adjusted by ±1 on the most misallocated class so the test total equals
    round(test_fraction × n).
    """
    y = np.asarray(labels)
    n = y.size
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    classes, counts = np.unique(y, return_counts=True)
    if (counts < 2).any():
        small = classes[counts < 2]
        raise ClassTooSmallError(f"class {small[0]} has fewer than 2 rows")

    total_target = round(test_fraction * n)
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


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[np.ndarray, ...]


def stratified_kfold(labels, n_folds: int = 8, seed: int = 0) -> FoldPlan:
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


def univariate_f_scores(train: Dataset) -> np.ndarray:
    """One-way ANOVA F statistic per feature between the two label groups.

    Zero within-group variance scores +inf when the group means differ
    (perfectly separating feature) and 0 when they do not.
    """
    if train.n < 3:
        raise TooFewRowsError("need at least 3 rows for F scores")
    classes = np.unique(train.labels)
    if classes.size < 2:
        raise SingleClassError("F scores need both classes present")
    grand = train.rows.mean(axis=0)
    ssb = np.zeros(train.width)
    ssw = np.zeros(train.width)
    for c in classes:
        block = train.rows[train.labels == c]
        mean_c = block.mean(axis=0)
        ssb += block.shape[0] * (mean_c - grand) ** 2
        ssw += ((block - mean_c) ** 2).sum(axis=0)
    df_within = train.n - classes.size
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = (ssb / (classes.size - 1)) / (ssw / df_within)
    scores = np.where(ssw == 0, np.where(ssb > 0, np.inf, 0.0), scores)
    return scores


@dataclass(frozen=True)
class SelectionResult:
    scores: np.ndarray
    importances: np.ndarray
    kept: np.ndarray


def _top_m(values: np.ndarray, m: int) -> set[int]:
    order = np.argsort(-values, kind="stable")
    return set(int(i) for i in order[:m])


def select_features(
    train: Dataset,
    keep_fraction: float = 1.0,
    seed: int = 0,
    n_trees: int = 100,
) -> SelectionResult:
    """Union of the top-m features by F score and by forest importance.

    m = max(1, ceil(keep_fraction × d)); the default keep_fraction of 1.0
    keeps every feature.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    d = train.width
    m = max(1, math.ceil(keep_fraction * d))
    scores = univariate_f_scores(train)
    forest = extratrees_fit(train, n_trees=n_trees, seed=seed)
    kept = sorted(_top_m(scores, m) | _top_m(forest.importances, m))
    return SelectionResult(
        scores=scores,
        importances=forest.importances,
        kept=np.array(kept, dtype=np.int64),
    )


@dataclass(frozen=True)
class ParamGrid:
    """Named candidate lists; combinations enumerate in declared order with
    the simplest values first, which is also the tie-break order."""

    family: str
    params: dict[str, tuple]

    def combos(self) -> list[dict]:
        if not self.params or any(len(v) == 0 for v in self.params.values()):
            raise EmptyGridError(f"empty grid for family {self.family}")
        names = list(self.params)
        return [
            dict(zip(names, values))
            for values in itertools.product(*self.params.values())
        ]


def default_knn_grid() -> ParamGrid:
    return ParamGrid(
        "knn",
        {
            "k": (1, 3, 5, 7, 9, 11, 15, 21),
            "weighting": ("uniform", "inverse-distance"),
            "metric": ("euclidean", "manhattan"),
        },
    )


def default_dt_grid() -> ParamGrid:
    return ParamGrid(
        "dt",
        {
            "criterion": ("gini", "entropy"),
            "max_depth": (2, 3, 4, 5, 8, None),
            "min_samples_split": (2, 5, 10),
            "min_samples_leaf": (1, 2, 5),
        },
    )


def _score(scoring: str, y_true, y_pred) -> float:
    cm = confusion(y_true, y_pred)
    return f1(cm) if scoring == "f1" else accuracy(cm)


def grid_search(
    train: Dataset,
    grid: ParamGrid,
    folds: FoldPlan,
    resample: ResamplePlan | None = None,
    scoring: str = "f1",
    seed: int = 0,
) -> tuple[dict, list[dict]]:
    """Exhaustive cross-validated search; best = highest mean score, ties to
    the earlier (simpler) combination.

    When a resampling plan is given (KNN grids only) it is applied to the
    CV-training folds only, reseeded per (combination, fold). A failing
    combination scores 0 on the failed folds and carries an error flag in
    the CV table.

    Work that depends only on the fold is done once per fold: KNN caches
    each validation row's k_max nearest training rows of the fold (and
    SMOTE's neighbor lists), and DT grows the trees of every
    (criterion, min_samples_leaf, fold) as one lockstep batch. The scores
    equal refitting every (combination, fold) from scratch.
    """
    if scoring not in ("f1", "accuracy"):
        raise ValueError(f"unknown scoring: {scoring}")
    combos = grid.combos()
    if grid.family not in ("knn", "dt"):
        raise ValueError(f"unknown grid family: {grid.family}")
    if grid.family == "dt" and resample is not None:
        raise ValueError("a dt grid search takes no resampling plan")
    n_folds = len(folds.folds)
    all_idx = np.arange(train.n)
    fold_val = [np.asarray(f, dtype=np.int64) for f in folds.folds]
    fold_train = [np.setdiff1d(all_idx, f) for f in fold_val]

    scores = np.zeros((len(combos), n_folds))
    flags: list[str | None] = [None] * len(combos)

    if grid.family == "knn":
        _knn_grid(train, combos, fold_train, fold_val, resample, seed, scoring, scores, flags)
    else:
        _dt_grid_shared(train, combos, fold_train, fold_val, scoring, scores, flags)

    means = scores.mean(axis=1)
    best_i = int(np.argmax(means))
    cv_table = [
        {
            "params": combos[i],
            "fold_scores": [float(s) for s in scores[i]],
            "mean_score": float(means[i]),
            "error": flags[i],
        }
        for i in range(len(combos))
    ]
    return dict(combos[best_i]), cv_table


def _knn_grid(train, combos, fold_train, fold_val, resample, seed, scoring, scores, flags):
    """Score KNN combinations from per-(metric, fold) sorted neighbor lists.

    The cache holds, for each validation row, the top-k_max original fold
    rows in (distance, index) order. An oversampled fold is those rows
    followed by appended rows, so per (combination, fold) only the distances
    to the appended rows are new. Their stable top-k goes after the cached
    top-k, and a stable sort of that merge is the (distance, stored index)
    order of sorting the whole oversampled matrix. SMOTE's neighbor lists
    come from one `minority_basis` per fold.
    """
    subs = [train.take(tr) for tr in fold_train]
    X_val = [train.rows[va] for va in fold_val]
    k_max = max(combo["k"] for combo in combos)
    cache = {}
    for metric in dict.fromkeys(combo["metric"] for combo in combos):
        for fi, sub in enumerate(subs):
            dist, idx = _nearest(sub.rows, X_val[fi], metric, k_max)
            cache[(metric, fi)] = (dist, sub.labels[idx])
    bases = {}
    for ci, combo in enumerate(combos):
        k, weighting, metric = combo["k"], combo["weighting"], combo["metric"]
        for fi, sub in enumerate(subs):
            try:
                fitted = sub
                if resample is not None:
                    if fi not in bases:
                        bases[fi] = minority_basis(sub, resample)
                    fitted = oversample(sub, resample.with_seed(derive_seed(seed, ci, fi)), bases[fi])
                knn_fit(fitted, k, weighting, metric)
            except PipelineError as exc:
                scores[ci, fi] = 0.0
                flags[ci] = str(exc)
                continue
            dist, labels = cache[(metric, fi)]
            dist, labels = dist[:, :k], labels[:, :k]
            if fitted.n > sub.n:
                extra, top = _nearest(fitted.rows[sub.n:], X_val[fi], metric, k)
                dist = np.concatenate([dist, extra], axis=1)
                labels = np.concatenate([labels, fitted.labels[sub.n:][top]], axis=1)
                top = np.argsort(dist, axis=1, kind="stable")[:, :k]
                dist = np.take_along_axis(dist, top, axis=1)
                labels = np.take_along_axis(labels, top, axis=1)
            scores[ci, fi] = _score(scoring, train.labels[fold_val[fi]], _vote(dist, labels, weighting))


def _dt_grid_shared(train, combos, fold_train, fold_val, scoring, scores, flags):
    """Grow the unconstrained trees of every (criterion, min_samples_leaf,
    fold) as one lockstep batch over the cell's rows and evaluate depth and
    split-size combos by constrained routing — identical to refitting
    because split choice is local to the node."""
    keys = list(dict.fromkeys((combo["criterion"], combo["min_samples_leaf"]) for combo in combos))
    trees = dt_fit_batch(train, fold_train * len(keys), *zip(*(key for key in keys for _ in fold_train)))
    for ci, combo in enumerate(combos):
        k = keys.index((combo["criterion"], combo["min_samples_leaf"]))
        for fi, (tr, va) in enumerate(zip(fold_train, fold_val)):
            if tr.size == 0:
                scores[ci, fi], flags[ci] = 0.0, "cannot fit a tree on zero rows"
                continue
            preds = predict_constrained(trees[k * len(fold_val) + fi], train.rows[va],
                                        combo["max_depth"], combo["min_samples_split"])
            scores[ci, fi] = _score(scoring, train.labels[va], preds)
