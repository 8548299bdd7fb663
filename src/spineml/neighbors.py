"""k-nearest-neighbors classifier over a stored training matrix.

Every tie is broken deterministically: neighbor-cutoff ties go to the
lower stored-row index, vote ties to the class with the smaller summed
distance and then to the lower label.

Every neighbor lookup (prediction here, grid search's fold cache and
SMOTE's neighbor lists) keeps each query row's k nearest in (distance,
index) order by one rule, `_top_k`: partition to the k-th smallest
distance, keep every column at or below it, and order only those. The
lookups run one block of query rows at a time, so memory grows with
n_query × k, not n_query × n_train. Both metrics' lists come from one
difference tensor per block (`_nearest_each`). Batch prediction
votes for all query rows at once (`_vote`), and grid search for all k of a
combination list from one set of prefix sums (`_prefix_vote`); a row whose
two class weights are equal up to rounding is settled by the one-row rule
(`_vote_one`) that single-record prediction uses, so all give the same
labels. One distance kernel owns the order of the sums (`_each_distances`).

Grid search and SMOTE measure a training partition once: `neighbor_table`
lists every row's K nearest rows of the partition, itself included, from
tiles of the upper triangle of the distance matrix, and `_within` reads a
subset's lists from it: a fold's training rows for the fold's validation
rows, or a fold's minority rows for SMOTE. K is the widest list a caller
reads plus `NeighborTables.SPARE` (8): k_max + 8 for the grid, smote_k + 9
for SMOTE's table over the rows of the minority label. A row whose list
holds fewer rows of the subset than it needs is measured directly by
`_nearest_each`. `NeighborTables` builds each table on first use; a
`TableStore` shares them between the cells of a group whose partitions are
equal byte for byte. Each job of the experiment runner owns one store,
which goes when the job returns.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, predictor_input
from .errors import KOutOfRangeError

WEIGHTINGS = ("uniform", "inverse-distance")
METRICS = ("euclidean", "manhattan")

_INV_EPS = 1e-12
# Class weights closer than this, relative to the larger, count as tied: a
# different summation order may flip them, so the one-row rule decides.
_TIE_RTOL = 1e-9
# Upper bound on the bytes of one (query block × n_train × d) float64
# difference tensor: `_nearest_each` passes blocks of query rows sized to
# stay under it. At 4 MB rather than 8 MB, an n = 1 000 group VII run of the
# four KNN models peaks at 48 MB max RSS instead of 56 MB, in no more time.
_CHUNK_BYTES = 4 * 2**20


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
    """`_each_distances` for one metric."""
    return _each_distances(points, X, (metric,))[metric]


def _measure(points: np.ndarray, X: np.ndarray, metrics) -> dict:
    """`_each_distances`, a lone metric through `_distances`: the benchmark's
    tracer counts the distance work from the calls of that name."""
    return _each_distances(points, X, metrics) if metrics[1:] else {m: _distances(points, X, m) for m in metrics}


def _each_distances(points: np.ndarray, X: np.ndarray, metrics) -> dict:
    """(n_query, n_train) distances from each row of X to each stored point,
    for each of `metrics`, from one difference tensor.

    Each entry is reduced over its own d differences, so the values do not
    depend on how `_nearest` splits the queries into blocks, nor on the
    inputs' layout: the tensor is C-ordered, so each sum runs in numpy's
    pairwise order, as a one-row query's does (a strided sum would not from
    d = 8 on). The kernels own this rule, not the callers that make blocks:
    the benchmark's parity reference scores a Fortran-ordered test block,
    C-ordering `train.rows[:, kept]` would move `gnb_fit`'s bits and so model
    files, and fitted points keep their block's layout, loaded ones not.
    """
    diff = np.subtract(X[:, None, :], points[None, :, :], order="C")
    # made absolute, then squared, in place, so a block holds one tensor; a
    # metric's values are the same alone or not, as |a|·|a| rounds like a·a
    out = {}
    if "manhattan" in metrics:
        out["manhattan"] = np.abs(diff, out=diff).sum(axis=2)
    if "euclidean" in metrics:
        out["euclidean"] = np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=2))
    return out


def _top_k(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first min(k, n) columns in (distance, column) order, the
    order of a full stable sort, with their distances.

    `np.partition` finds each row's k-th smallest distance, and every column
    at or below it is a candidate, so a tie at the cut keeps all its
    columns; a row whose k-th value is NaN keeps every column. A key sort of
    each row's candidates by (distance, column) orders them, NaN last as in
    a full sort.
    """
    b, n = dist.shape
    k = min(k, n)
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    keep = ~(dist > kth)
    flat = np.flatnonzero(keep)
    if b == 1 or flat.size == b * k:  # one row, or no row tied at its cut
        width = flat.size if b == 1 else k
        cand, cols = dist.ravel()[flat].reshape(b, width), (flat % n).reshape(b, width)
    else:
        _, cand, cols = _packed(dist, flat)
    order = np.lexsort((cols, cand), axis=1)[:, :k]
    rows = np.arange(b)[:, None]
    return cand[rows, order], cols[rows, order]


def _packed(dist: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of `dist` at flat positions `flat` (ascending), by row:
    the rows that have any, and their entries' distances and columns
    left-aligned in column order, rows with fewer padded with (inf, n),
    which sorts after every entry."""
    b, n = dist.shape
    row_of, col = np.divmod(flat, n)
    counts = np.bincount(row_of, minlength=b)
    at = (np.cumsum(counts > 0) - 1)[row_of], np.arange(flat.size) - (np.cumsum(counts) - counts)[row_of]
    shape = (np.count_nonzero(counts), counts.max())
    cand, cols = np.full(shape, np.inf), np.full(shape, n)
    cand[at], cols[at] = dist[row_of, col], col
    return np.flatnonzero(counts), cand, cols


def _nearest(points: np.ndarray, X: np.ndarray, metric: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and indices of each query row's k nearest points, in
    (distance, index) order: `_top_k` of `_distances`, equal to a full
    stable sort cut to min(k, n_train) columns."""
    return _nearest_each(points, X, (metric,), k)[metric]


def _nearest_each(points: np.ndarray, X: np.ndarray, metrics, k: int) -> dict:
    """`_nearest` for each of `metrics`, one block of query rows at a time.

    Distances come from `_measure`, both metrics' from one difference
    tensor. Blocks are sized so that a block's difference tensor
    stays under _CHUNK_BYTES.
    """
    step = max(1, _CHUNK_BYTES // max(1, 8 * points.size))
    blocks = []
    for start in range(0, max(1, X.shape[0]), step):
        dists = _measure(points, X[start:start + step], metrics)
        blocks.append({metric: _top_k(dists[metric], k) for metric in metrics})
    if len(blocks) == 1:
        return blocks[0]
    return {metric: tuple(np.concatenate([b[metric][i] for b in blocks]) for i in (0, 1))
            for metric in metrics}


def neighbor_table(points: np.ndarray, metrics, k: int) -> dict:
    """For each of `metrics`, every row's first min(k, n) rows of `points`
    in (distance, index) order, itself included: the (n, ≤ k) distances,
    bit for bit, and indices of `_nearest_each(points, points, metrics, k)`.

    The table is built from square tiles of the upper triangle of the
    distance matrix, each holding a quarter of _CHUNK_BYTES of distances
    per metric, measured in row blocks under _CHUNK_BYTES of differences.
    A distance is the same double either way round, so tile (a, b) feeds
    the running lists of row block a and, transposed, of row block b.
    Tiles go row block by row block, so each block receives its candidate
    columns in ascending index order; `_top_k` of a list followed by later
    columns is then the (distance, index) order of both. Once a list is
    full, only candidates below its last entry can enter it, so a merge
    takes just those. The lists are filled in place in preallocated (n, k)
    arrays, indices in the smallest unsigned type that holds n.
    """
    n, d = points.shape
    k = min(k, n)
    lists = {metric: (np.empty((n, k)), np.empty((n, k), dtype=np.min_scalar_type(n))) for metric in metrics}
    step = max(1, math.isqrt(_CHUNK_BYTES // 32))
    rows_per = max(1, _CHUNK_BYTES // max(1, 8 * d * step))
    filled = dict.fromkeys(range(0, n, step), 0)  # each block's list width so far

    def merge(start, width, new, first, dist, idx):
        """Merge candidates `new` into the `width`-wide lists of the rows
        from `start`, the candidates' columns counting from `first`."""
        rows, cols = np.arange(start, start + new.shape[0]), np.broadcast_to(np.arange(new.shape[1]), new.shape)
        if width == k:  # a NaN last entry sorts after every value
            last = dist[rows, k - 1:]
            enter = new < last
            enter[np.isnan(last[:, 0])] = True
            flat = np.flatnonzero(enter)
            if not flat.size:
                return
            hit, new, cols = _packed(new, flat)
            rows = rows[hit]
        top, order = _top_k(np.concatenate([dist[rows, :width], new], axis=1), k)
        cand = np.concatenate([idx[rows, :width], first + cols], axis=1)
        dist[rows, :top.shape[1]], idx[rows, :top.shape[1]] = top, np.take_along_axis(cand, order, axis=1)

    tile = {metric: np.empty((min(step, n), min(step, n))) for metric in metrics}
    for a in filled:
        size_a = min(step, n - a)
        for b in range(a, n, step):
            against, size_b = points[b:b + step], min(step, n - b)
            for r in range(0, size_a, rows_per):  # the tile's rows, under _CHUNK_BYTES of differences each
                block = points[a + r:a + min(r + rows_per, size_a)]
                for metric, part in _measure(against, block, metrics).items():
                    tile[metric][r:r + len(block), :size_b] = part
            for metric, (dist, idx) in lists.items():
                new = tile[metric][:size_a, :size_b]
                merge(a, filled[a], new, b, dist, idx)
                if b > a:
                    merge(b, filled[b], new.T, a, dist, idx)
            filled[a] = min(k, filled[a] + size_b)
            if b > a:
                filled[b] = min(k, filled[b] + size_a)
    return lists


def _within(lists: dict, points: np.ndarray, rows: np.ndarray, inside: np.ndarray, k: int) -> dict:
    """`_nearest_each(points[inside], points[rows], metrics, k)`, read from
    `lists`, each metric's `neighbor_table` of `points`.

    Since the rows of `points[inside]` keep their order, a row's list minus
    the rows outside, cut to min(k, inside rows), is its list there, with
    indices renumbered to positions among the inside rows. A row left with
    fewer entries than that (its table list was cut before enough inside
    rows came) is computed directly by `_nearest_each`.
    """
    width = min(k, int(np.count_nonzero(inside)))
    position = np.cumsum(inside) - 1
    out, short = {}, np.zeros(rows.size, dtype=bool)
    for metric, (dist, idx) in lists.items():
        near = idx[rows]
        keep = inside[near]
        keep &= np.cumsum(keep, axis=1) <= width
        full = np.count_nonzero(keep, axis=1) == width
        short |= ~full
        keep[~full] = False
        got_dist, got_idx = np.zeros((rows.size, width)), np.zeros((rows.size, width), dtype=np.intp)
        got_dist[full] = dist[rows][keep].reshape(-1, width)
        got_idx[full] = position[near[keep]].reshape(-1, width)
        out[metric] = got_dist, got_idx
    if short.any():
        direct = _nearest_each(points[inside], points[rows[short]], tuple(lists), width)
        for metric, (got_dist, got_idx) in out.items():
            got_dist[short], got_idx[short] = direct[metric]
    return out


class NeighborTables:
    """The `neighbor_table`s of one matrix and its labels, each built on
    first use and then kept: all rows over all rows, and the rows of one
    label over those rows."""

    # Rows a table keeps beyond the widest list its callers read, so that
    # few rows fall short once a fold's rows are taken out.
    SPARE = 8

    def __init__(self, points: np.ndarray, labels: np.ndarray):
        self.points, self.labels, self._built = points, labels, {}

    def lists(self, metrics: tuple, k: int, label: int | None = None) -> dict:
        """The table of `metrics` over every row, or only over the rows
        labelled `label`, keeping k + SPARE of each row's nearest."""
        key = metrics, k, label
        if key not in self._built:
            points = self.points if label is None else self.points[self.labels == label]
            self._built[key] = neighbor_table(points, metrics, k + self.SPARE)
        return self._built[key]


class TableStore:
    """`NeighborTables` by the bytes of a matrix and its labels, so that the
    cells of one group whose training partitions are equal share them."""

    def __init__(self):
        self._by_key = {}

    def tables(self, points: np.ndarray, labels: np.ndarray) -> NeighborTables:
        digest = hashlib.sha256(np.ascontiguousarray(points))
        digest.update(np.ascontiguousarray(labels))
        return self._by_key.setdefault((points.shape, digest.hexdigest()), NeighborTables(points, labels))


def _vote_one(dist_k: np.ndarray, labels_k: np.ndarray, weighting: str) -> tuple[int, float]:
    """Winning label of one row of k neighbors with 0/1 labels, and its
    weight fraction. Where every inverse-distance weight is 0 (all k
    neighbors at an infinite distance), the weights are equal, the limit of
    equal distances, so the fraction is a number in [0, 1], not 0/0."""
    weights = np.ones_like(dist_k) if weighting == "uniform" else 1.0 / (dist_k + _INV_EPS)
    total = weights.sum()
    if total == 0:
        weights, total = np.ones_like(dist_k), dist_k.size
    members = {c: labels_k == c for c in (0, 1)}
    totals = {c: weights[m].sum() for c, m in members.items() if m.any()}
    tied = [c for c, t in totals.items() if t == max(totals.values())]
    if len(tied) > 1:
        sums = {c: dist_k[members[c]].sum() for c in tied}
        tied = [c for c in tied if sums[c] == min(sums.values())]
    return tied[0], float(totals[tied[0]] / total)


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
    x = predictor_input(x, model.points.shape[1], ndim=1)
    dist, idx = _nearest(model.points, x[None, :], model.metric, model.k)
    return _vote_one(dist[0], model.labels[idx[0]], model.weighting)


def knn_predict_many(model: KNNModel, X: np.ndarray) -> np.ndarray:
    X = predictor_input(X, model.points.shape[1])
    dist, idx = _nearest(model.points, X, model.metric, model.k)
    return _vote(dist, model.labels[idx], model.weighting)
