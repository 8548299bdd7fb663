"""k-nearest-neighbors classifier over a stored training matrix.

Every tie is broken deterministically: neighbor-cutoff ties go to the
lower stored-row index, vote ties to the class with the smaller summed
distance and then to the lower label.

Every neighbor lookup (prediction here, grid search's fold cache and
SMOTE's neighbor lists) goes through `_nearest`, which keeps each query
row's k nearest one block of query rows at a time, so memory grows with
n_query × k, not n_query × n_train. Batch prediction votes for all query
rows at once (`_vote`), and grid search for all k of a combination list
from one set of prefix sums (`_prefix_vote`); a row whose two class
weights are equal up to rounding is settled by the one-row rule
(`_vote_one`) that single-record prediction uses, so all give the same
labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import KOutOfRangeError, WidthMismatchError

WEIGHTINGS = ("uniform", "inverse-distance")
METRICS = ("euclidean", "manhattan")

_INV_EPS = 1e-12
# Class weights closer than this, relative to the larger, count as tied: a
# different summation order may flip them, so the one-row rule decides.
_TIE_RTOL = 1e-9
# Upper bound on the bytes of one (query block × n_train × d) float64
# difference tensor: `_nearest` passes `_distances` blocks of query rows
# sized to stay under it.
_CHUNK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class KNNModel:
    k: int
    weighting: str
    metric: str
    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # Checked here so that a loaded model file is held to the same rules.
        self.check(self.k, self.weighting, self.metric, len(self.points))

    @staticmethod
    def check(k: int, weighting: str, metric: str, n_train: int) -> None:
        """The settings check of a model over `n_train` stored points; grid
        search applies it to each (combination, fold) without building one."""
        if not 1 <= k <= n_train:
            raise KOutOfRangeError(f"k must be in [1, {n_train}], got {k}")
        if weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting: {weighting}")
        if metric not in METRICS:
            raise ValueError(f"unknown metric: {metric}")


def knn_fit(train: Dataset, k: int, weighting: str = "uniform", metric: str = "euclidean") -> KNNModel:
    return KNNModel(k=k, weighting=weighting, metric=metric,
                    points=train.rows, labels=train.labels)


def _distances(points: np.ndarray, X: np.ndarray, metric: str) -> np.ndarray:
    """(n_query, n_train) distances from each row of X to each stored point.

    Each entry is reduced over its own d differences, so the values do not
    depend on how `_nearest` splits the queries into blocks.
    """
    diff = X[:, None, :] - points[None, :, :]
    # squared or made absolute in place, so a block holds one difference tensor
    if metric == "euclidean":
        return np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=2))
    return np.abs(diff, out=diff).sum(axis=2)


def _nearest(points: np.ndarray, X: np.ndarray, metric: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and indices of each query row's k nearest points, in
    (distance, index) order: a full stable argsort cut to min(k, n_train)
    columns. Query rows go to `_distances` in blocks sized so that a block's
    difference tensor stays under _CHUNK_BYTES.
    """
    step = max(1, _CHUNK_BYTES // max(1, 8 * points.shape[0] * points.shape[1]))
    blocks = []
    for start in range(0, max(1, X.shape[0]), step):
        dist = _distances(points, X[start:start + step], metric)
        order = np.argsort(dist, axis=1, kind="stable")[:, :k].copy()  # frees the full sort
        blocks.append((dist[np.arange(dist.shape[0])[:, None], order], order))
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def _vote_one(dist_k: np.ndarray, labels_k: np.ndarray, weighting: str) -> tuple[int, float]:
    """Winning label of one row of k neighbors and its weight fraction."""
    if weighting == "uniform":
        weights = np.ones_like(dist_k)
    else:
        weights = 1.0 / (dist_k + _INV_EPS)
    classes = np.unique(labels_k)
    totals = np.array([weights[labels_k == c].sum() for c in classes])
    best = totals.max()
    tied = classes[totals == best]
    if tied.size > 1:
        sums = np.array([dist_k[labels_k == c].sum() for c in tied])
        tied = tied[sums == sums.min()]
    winner = int(tied.min())
    frac = float(totals[list(classes).index(winner)] / weights.sum())
    return winner, frac


def _prefix_vote(dist: np.ndarray, labels: np.ndarray, ks, weightings) -> np.ndarray:
    """The (C, q) winning labels of C combinations, combination c voting with
    `weightings[c]` over the first `ks[c]` of each row's neighbors.

    `dist` and `labels` are (C or 1, q, k_max) neighbor lists in (distance,
    index) order. The class weights of every k are prefix sums along the
    neighbor axis. Rows whose two weights are equal up to rounding go to
    `_vote_one` on exactly their first k neighbors, so each row of the
    result is `_vote(dist[c, :, :k], labels[c, :, :k], weighting)`.
    """
    ks = np.asarray(ks)
    inverse = np.array([w == "inverse-distance" for w in weightings])[:, None, None]
    weights = np.where(inverse, 1.0 / (dist + _INV_EPS), 1.0)
    at = np.arange(ks.size)[:, None], np.arange(dist.shape[1]), (ks - 1)[:, None]
    ones = np.cumsum(weights * labels, axis=2)[at]
    zeros = np.cumsum(weights * (1 - labels), axis=2)[at]
    winners = (ones > zeros).astype(np.int64)
    close = ~(np.abs(ones - zeros) > _TIE_RTOL * np.maximum(ones, zeros))
    for c, i in zip(*np.nonzero(close)):
        c0, k = min(c, dist.shape[0] - 1), ks[c]
        winners[c, i] = _vote_one(dist[c0, i, :k], labels[c0, i, :k], weightings[c])[0]
    return winners


def _vote(dist: np.ndarray, labels: np.ndarray, weighting: str) -> np.ndarray:
    """Winning label of each row of (q, k) neighbor distances and 0/1 labels;
    every label equals the one-row rule's."""
    return _prefix_vote(dist[None], labels[None], [dist.shape[1]], [weighting])[0]


def knn_predict(model: KNNModel, x) -> tuple[int, float]:
    """Winning label among the k nearest neighbors and its weight fraction."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.points.shape[1],):
        raise WidthMismatchError(
            f"expected {model.points.shape[1]} features, got {x.shape}"
        )
    dist, idx = _nearest(model.points, x[None, :], model.metric, model.k)
    return _vote_one(dist[0], model.labels[idx[0]], model.weighting)


def knn_predict_many(model: KNNModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.points.shape[1]:
        raise WidthMismatchError(
            f"expected {model.points.shape[1]} features, got {X.shape[1]}"
        )
    dist, idx = _nearest(model.points, X, model.metric, model.k)
    return _vote(dist, model.labels[idx], model.weighting)
