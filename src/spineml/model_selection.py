"""Stratified splitting, stratified k-fold plans, feature scoring, grid search.

`HYPERPARAMETERS` declares each tuned family's untuned values, default grid
and config value rules once; the experiment reads them from there.

Everything here is seed-deterministic: splits and folds shuffle within
class from an explicit seed, and every grid cell derives its stream from
(seed, combination index, fold index), so results never depend on
evaluation order or worker count. An oversampled grid's cell (combination
ci, fold fi) draws from `default_rng(s)`, s being the first word of
`SeedSequence((seed, ci, fi)).generate_state(1)`. Vectorized hashes
give the streams of all its cells at once, and a fold's rows for all its
combinations are drawn in one pass (`resampling._draw_many`), bit for bit
those numpy's own generators would draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Integral

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
from . import neighbors
from .metrics import accuracy_many, confusion_counts, f1_many
# _vote and knn_predict_many stay imported here: perfbench's tracing tests
# check that the tracer wraps them and rebinds these bindings.
from .neighbors import (  # noqa: F401
    METRICS, WEIGHTINGS, KNNModel, NeighborTables, _distances, _prefix_vote, _top_k, _vote, _within,
    knn_predict_many,
)
from .resampling import ResamplePlan, _draw_many, minority_basis
from .streams import _entropy, _rng_words, _seed_hash
from .tree import CRITERIA, DT_LIMITS, _route, dt_fit_batch, extratrees_fit


@dataclass(frozen=True)
class SplitIndices:
    train_idx: np.ndarray
    test_idx: np.ndarray


def stratified_shuffle_split(labels, test_fraction: float = 0.25, seed: int = 0) -> SplitIndices:
    """Class-proportional train/test partition by seeded within-class shuffle.

    Each class contributes round(test_fraction × class count) test rows. If
    these miss round(test_fraction × n) by diff, each of the |diff| classes
    with the largest sign(diff) × (test_fraction × count − rows), among those
    that can move, moves one row by sign(diff), ties to the lower label; with
    two classes |diff| ≤ 1. It fails on one-class labels and on sizes that
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
    sizes = [int(k) for k in counts]
    targets = [round(test_fraction * k) for k in sizes]
    diff = total_target - sum(targets)
    step = 1 if diff > 0 else -1
    movable = [i for i, (t, k) in enumerate(zip(targets, sizes)) if (t < k if step > 0 else t > 0)]
    for i in sorted(movable, key=lambda i: -step * (test_fraction * sizes[i] - targets[i]))[:abs(diff)]:
        targets[i] += step
    for c, t, k in zip(classes, targets, sizes):
        if t == k:
            raise TooFewRowsError(f"test_fraction {test_fraction} of {n} rows leaves no class {int(c)} row to train on")

    rng = np.random.default_rng(seed)
    test_parts, train_parts = [], []
    for c, t in zip(classes, targets):
        perm = rng.permutation(np.flatnonzero(y == c))
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
    cursor across classes so fold sizes differ by at most one overall: all
    classes' permutations end to end, row i going to fold i mod n_folds."""
    y = np.asarray(labels)
    classes, counts = np.unique(y, return_counts=True)
    if (counts < n_folds).any():
        small = classes[counts < n_folds]
        raise ClassSmallerThanFoldsError(
            f"class {small[0]} has fewer rows than {n_folds} folds"
        )
    rng = np.random.default_rng(seed)
    dealt = np.concatenate([np.zeros(0, np.int64), *(rng.permutation(np.flatnonzero(y == c)) for c in classes)])
    return FoldPlan(tuple(np.sort(dealt[f::n_folds]) for f in range(n_folds)))


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


def select_features(train: Dataset, keep_fraction: float = 1.0, seed: int = 0, n_trees: int = 100,
                    importances: np.ndarray | None = None) -> np.ndarray:
    """The sorted int64 indices of the union of the top-m columns by F score
    and by forest importance (`extratrees_fit`), each ranked by a stable sort
    of its values, highest first, so that ties go to the lower column. Given
    `importances`, the forest's, fitted beforehand, are not fitted again.

    m = max(1, ceil(keep_fraction × d)); the default keep_fraction of 1.0
    keeps every feature.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    m = max(1, math.ceil(keep_fraction * train.width))
    forest = extratrees_fit(train, n_trees, seed=seed) if importances is None else importances
    rankings = univariate_f_scores(train), forest
    return np.union1d(*(np.argsort(-values, kind="stable")[:m] for values in rankings))


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


def _at_least(low: int, none: bool = False):
    """The rule of an integer (not a bool) from `low` to 2**63 − 1, the largest
    a model file holds, or also None where `none`."""
    return lambda v: v is None and none or isinstance(v, Integral) and not isinstance(v, bool) and low <= v < 2**63


# Each tuned family's parameters in combination order: (untuned value, default
# grid values, simplest first as ties go, the rule every value of a config's
# grid must meet; `default_grid` reads the grids). An integer above 2**63 − 1
# fails the config; a k too large for a fold passes and fails only that cell.
HYPERPARAMETERS = {
    "knn": {
        "k": (5, (1, 3, 5, 7, 9, 11, 15, 21), _at_least(1)),
        "weighting": ("uniform", WEIGHTINGS, WEIGHTINGS.__contains__),
        "metric": ("euclidean", METRICS, METRICS.__contains__),
    },
    "dt": {
        "criterion": ("gini", CRITERIA, CRITERIA.__contains__),
        "max_depth": (None, (2, 3, 4, 5, 8, None), _at_least(DT_LIMITS["max_depth"], none=True)),
        "min_samples_split": (2, (2, 5, 10), _at_least(DT_LIMITS["min_samples_split"])),
        "min_samples_leaf": (1, (1, 2, 5), _at_least(DT_LIMITS["min_samples_leaf"])),
    },
}


def default_grid(family: str) -> ParamGrid:
    """A tuned family's ("knn" or "dt") default grid."""
    return ParamGrid(family, {name: grid for name, (_, grid, _) in HYPERPARAMETERS[family].items()})


SCORINGS = ("f1", "accuracy")


def _fold_scores(scoring: str, y_true, P) -> np.ndarray:
    """Each combination's score on one fold, from its row of the
    (combinations, validation rows) prediction matrix P."""
    counts = confusion_counts(y_true, P)
    return f1_many(counts) if scoring == "f1" else accuracy_many(counts)


def grid_search(
    train: Dataset,
    grid: ParamGrid,
    folds: FoldPlan,
    resample: ResamplePlan | None = None,
    scoring: str = "f1",
    seed: int = 0,
    tables: NeighborTables | None = None,
) -> tuple[dict, list[dict]]:
    """Exhaustive cross-validated search; best = highest mean score, ties to
    the earlier (simpler) combination.

    When a resampling plan is given (KNN grids only) it is applied to the
    CV-training folds only, reseeded per (combination, fold). A failing
    combination scores 0 on the failed folds and carries an error flag in
    the CV table. Fold f trains on every row outside it; no row may be in
    two folds.

    Each fold's combinations are scored together: KNN votes for every
    combination from the fold's sorted neighbor lists, DT routes each
    fold's validation rows once through the trees of every
    (criterion, min_samples_leaf) for all depth and split-size limits, and
    one `confusion_counts` per fold counts them all. The scores equal
    refitting every (combination, fold) from scratch. A KNN grid reads its
    neighbor lists from `tables`, which must be `train`'s own; without
    them, it builds its own.
    """
    if scoring not in SCORINGS:
        raise ValueError(f"unknown scoring: {scoring}")
    combos = grid.combos()
    if grid.family not in ("knn", "dt"):
        raise ValueError(f"unknown grid family: {grid.family}")
    if grid.family == "dt" and resample is not None:
        raise ValueError("a dt grid search takes no resampling plan")
    n_folds = len(folds.folds)
    fold_val = [np.asarray(f, dtype=np.int64) for f in folds.folds]
    fold_of = np.full(train.n, n_folds)  # a row of no fold trains in every fold
    for f, va in enumerate(fold_val):
        fold_of[va] = f
    if np.count_nonzero(fold_of < n_folds) != sum(va.size for va in fold_val):
        raise ValueError("folds must not share a row")

    scores = np.zeros((len(combos), n_folds))
    flags: list[str | None] = [None] * len(combos)

    if grid.family == "knn":
        _knn_grid(train, combos, fold_of, fold_val, resample, seed, scoring, scores, flags,
                  tables or NeighborTables(train.rows, train.labels))
    else:
        fold_train = [np.flatnonzero(fold_of != f) for f in range(n_folds)]
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


def _knn_grid(train, combos, fold_of, fold_val, resample, seed, scoring, scores, flags, tables):
    """Score KNN combinations fold by fold from per-(metric, fold) sorted
    neighbor lists. Fold f trains on the rows whose `fold_of` is not f, and
    that one mask, `inside`, selects them from `tables` for both `_within`
    and `minority_basis`.

    The cache holds, for each validation row, the top-k_max fold training
    rows in (distance, index) order. It is read from one `neighbor_table`
    of `train` (`tables`), which keeps k_max + `NeighborTables.SPARE` of
    every row's nearest: a validation row's list minus its own fold's rows,
    cut to k_max (`neighbors._within`), and computed directly for the few
    rows that fall short. `_prefix_vote` takes the votes of every k from
    one set of prefix sums over it. An oversampled fold is those rows
    followed by the combination's appended rows. One `minority_basis` per
    fold serves them all, its SMOTE lists read from the same `tables`, and
    one `_draw_many` draws every combination's rows at once, each from its
    own stream (see the module docstring), whose seeds are hashed once per
    grid. Random oversampling appends copies, so
    `_with_copies` merges them by their multiplicities with no distance
    computed; SMOTE's new rows go through `_with_appended`.
    """
    ks, weightings = np.array([c["k"] for c in combos]), [c["weighting"] for c in combos]
    k_max = int(ks.max())
    metric_of = np.array([combo["metric"] for combo in combos])
    table_metrics = tuple(m for m in METRICS if m in metric_of)
    known = np.array([c["weighting"] in WEIGHTINGS and c["metric"] in METRICS for c in combos])
    if resample is not None:  # the streams of every (combination, fold), as the module docstring says
        fi_of, ci_of = np.divmod(np.arange(len(fold_val) * len(combos)), len(combos))
        # ci and fi are one entropy word each, and so is a derived seed
        entropy = np.column_stack([np.tile(_entropy(seed), (ci_of.size, 1)), ci_of, fi_of])
        derived = _seed_hash(entropy.astype(np.uint32), 1)
        stream_seeds = _rng_words(derived).reshape(len(fold_val), len(combos), 4)
    for fi, va in enumerate(fold_val):
        inside = fold_of != fi
        sub, X_val = train.take(np.flatnonzero(inside)), train.rows[va]
        try:
            basis = None if resample is None else minority_basis(tables, resample, inside)
        except PipelineError as exc:
            flags[:] = [str(exc)] * len(combos)
            continue
        need = 0 if basis is None else max(basis.need, 0)
        ok = known & (ks >= 1) & (ks <= sub.n + need)
        for ci in np.flatnonzero(~ok).tolist():  # the check flags a k out of range, raises on an unknown name
            try:
                KNNModel.check(combos[ci]["k"], weightings[ci], combos[ci]["metric"], sub.n + need)
            except PipelineError as exc:
                flags[ci] = str(exc)
        if not ok.any():
            continue
        copies = need > 0 and resample.method == "random_over"
        if copies:  # over row ids, the draws are the ids copied; drawn[c] counts combination c's copies
            ids = _draw_many(np.arange(sub.n), resample.method, basis, stream_seeds[fi])
            drawn = np.bincount((ids + sub.n * np.arange(len(combos))[:, None]).ravel(),
                                minlength=len(combos) * sub.n).reshape(len(combos), sub.n)
        elif need:  # drawn[c] holds combination c's new rows
            drawn = _draw_many(sub.rows, resample.method, basis, stream_seeds[fi])
        lists = tables.lists(table_metrics, k_max)
        P = np.zeros((len(combos), va.size), dtype=np.int64)
        metrics = dict.fromkeys(metric_of[ok].tolist())
        near = _within({m: lists[m] for m in metrics}, train.rows, va, inside, k_max)
        for metric, (dist, idx) in near.items():
            at = np.flatnonzero(ok & (metric_of == metric))
            labels = sub.labels[idx]
            if copies:
                dist, labels = _with_copies(dist, idx, labels, drawn[at], basis.minority, k_max)
            elif need:
                dist, labels = _with_appended(dist[None], labels[None], drawn[at], basis.minority, X_val,
                                              metric, k_max)
            else:
                dist, labels = dist[None], labels[None]
            P[at] = _prefix_vote(dist, labels, ks[at], [weightings[ci] for ci in at])
        scores[ok, fi] = _fold_scores(scoring, train.labels[va], P[ok])


def _with_copies(dist, idx, labels, counts, minority, k):
    """The (C, q, ≤ k) top-k neighbor lists of C randomly oversampled folds:
    the cached (q, k0) lists `dist`, `idx`, `labels` of the original fold
    rows, where `counts[c]` holds how many copies of each fold row
    combination c appends. Equal to `_with_appended` on the copied rows.

    A copy's distance is its source row's, bit for bit, and its stored index
    is above every original's, so in (distance, index) order a group of
    equal distances lists its originals, then the copies of its minority
    rows. Copies of rows outside a cached list are no nearer than its last
    entry, so they come after it. Each cached entry is thus followed by the
    copies of its whole tie group when it is the group's last, and all
    copies are `minority` rows at that distance.
    """
    n_combos, (q, k0) = counts.shape[0], dist.shape
    width = min(k, k0 + int(counts[0].sum()))
    last = np.ones((q, k0), dtype=bool)
    last[:, :-1] = dist[:, 1:] != dist[:, :-1]
    copied = np.cumsum(counts[:, idx], axis=2)
    # copies listed before each cached entry: those of every earlier group
    before = np.maximum.accumulate(np.where(last, copied, 0), axis=2)
    slot = np.arange(k0) + np.concatenate([np.zeros((n_combos, q, 1), dtype=np.int64), before[:, :, :-1]],
                                          axis=2)
    # 1 + the cached entry at each output slot; 0 where a copy sits
    entry = np.zeros((n_combos, q, width + 1), dtype=np.int64)
    np.put_along_axis(entry, np.minimum(slot, width), np.arange(1, k0 + 1), axis=2)
    entry = entry[:, :, :width]
    src = np.maximum.accumulate(entry, axis=2) - 1
    out_dist = np.take_along_axis(dist[None], src, axis=2)
    out_labels = np.where(entry > 0, np.take_along_axis(labels[None], src, axis=2), minority)
    return out_dist, out_labels


def _with_appended(dist, labels, extra, minority, X_val, metric, k):
    """The (C, q, ≤ k) top-k neighbor lists of C oversampled folds: the
    cached (1, q, k0) lists `dist`, `labels` of the original fold rows
    followed by combination c's appended rows `extra[c]`, all labelled
    `minority`. Grid search calls it for SMOTE's new rows.

    `_top_k` of a cached list followed by the distances to the appended
    rows is the (distance, stored index) order of the whole oversampled
    matrix, and its first k serve every smaller k too. The distances come
    in blocks of (combination, query row) pairs whose difference tensor
    stays under `neighbors._CHUNK_BYTES`, read at each call.
    """
    n_combos, need, d = extra.shape
    q, k0 = dist.shape[1:]
    width = min(k, k0 + need)
    out_dist, out_labels = np.empty((n_combos, q, width)), np.empty((n_combos, q, width), dtype=np.int64)
    pairs = max(1, neighbors._CHUNK_BYTES // (8 * need * d))
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
            top, order = _top_k(cand.reshape(-1, k0 + need), width)
            picked = np.take_along_axis(cand_labels.reshape(-1, k0 + need), order, axis=1)
            out_dist[c:c + c_step, r:r + q_step] = top.reshape(shape[:2] + (width,))
            out_labels[c:c + c_step, r:r + q_step] = picked.reshape(shape[:2] + (width,))
    return out_dist, out_labels


def _dt_grid_shared(train, combos, fold_train, fold_val, scoring, scores, flags):
    """Grow the unconstrained trees of every (criterion, min_samples_leaf,
    fold) as one lockstep batch over the cell's rows, level by level (each
    grower step takes the pending nodes of all of them, and each tree gets
    its depth-first node ids and importances back at the end; a fold's trees
    of one criterion share each node until their min_samples_leaf picks
    part, so it is sorted and scored once for all of them), then route
    each fold's validation rows once through that fold's trees for every
    (max_depth, min_samples_split) pair — identical to refitting because
    split choice is local to the node. Routing fold by fold keeps the path
    matrix at one fold's rows."""
    keys = list(dict.fromkeys((combo["criterion"], combo["min_samples_leaf"]) for combo in combos))
    limits = list(dict.fromkeys((combo["max_depth"], combo["min_samples_split"]) for combo in combos))
    trees = dt_fit_batch(train, fold_train * len(keys), *zip(*(key for key in keys for _ in fold_train)))
    key_of = np.array([keys.index((combo["criterion"], combo["min_samples_leaf"])) for combo in combos])
    limit_of = np.array([limits.index((combo["max_depth"], combo["min_samples_split"])) for combo in combos])
    for fi, (tr, va) in enumerate(zip(fold_train, fold_val)):
        if tr.size == 0:
            flags[:] = ["cannot fit a tree on zero rows"] * len(combos)
            continue
        # one column block of labels per key, in key order
        labels = _route(trees[fi::len(fold_train)], [train.rows[va]] * len(keys), limits)
        P = labels[limit_of[:, None], key_of[:, None] * va.size + np.arange(va.size)]
        scores[:, fi] = _fold_scores(scoring, train.labels[va], P)
