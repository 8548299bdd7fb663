"""k-nearest-neighbors classifier over a stored training matrix.

Every tie is broken deterministically: neighbor-cutoff ties go to the
lower stored-row index, vote ties to the class with the smaller summed
distance and then to the lower label.

Every neighbor lookup (prediction here, grid search's fold cache and
SMOTE's neighbor lists) keeps each query row's k nearest in (distance,
index) order by one rule, `_top_k`: partition to the k-th smallest
distance, keep every column at or below it, and order only those. The
lookups run one block of query rows at a time, so memory grows with
n_query × k, not n_query × n_train. Both metrics' lists come from the same
coordinate differences per block (`_nearest_each`). Batch prediction
votes for all query rows at once (`_vote`), and grid search for all k of a
combination list from one set of prefix sums (`_prefix_vote`); a row whose
two class weights are equal up to rounding is settled by the one-row rule
(`_vote_one`) that single-record prediction uses, so all give the same
labels. One kernel, `_distances`, forms every coordinate difference and
owns the order of its sums and its overflow rule: each distance's d terms
are added in the order of numpy's pairwise sum over a contiguous row
(Higham, SIAM J. Sci. Comput. 14, 1993), so every block, layout and form
gives a one-row query's bits. A block of two or more query rows and at
least _PLANE_FLOOR (query row × point) pairs is measured as column
planes, one (rows × points) difference plane per column, walked in row
sub-blocks of _SUB_PAIRS pairs; any other block, and any with more than
_PAIRWISE_BLOCK columns, as one C-ordered difference tensor summed by
numpy. Callers size their blocks by distances: a block's take at most a
quarter of _CHUNK_BYTES per metric, a table tile's half.

A single Euclidean record (`knn_predict`) skips most of that work
(`_filtered_top_k`), the GEMM-then-re-rank scheme of Johnson, Douze and
Jégou (*Billion-scale similarity search with GPUs*, 2017): one
matrix-vector product ranks every point by s = ‖y‖² − 2x·y, and only the
points within a margin of the k-th s are measured by the kernel's own
rule. The margin bounds the rounding of s, of the kernel's sum and of its
square root, whatever the order of BLAS's sums, so every list keeps its
bits. Measured against the direct lookup (2 vCPU, OpenBLAS 0.3.31), it
took 0.59–0.70× the time over 750 points, 0.84–1.00× over 128 and
0.94–1.13× over 16 to 64, where both take a few µs. A record holding NaN
or ±inf, or whose norms could overflow, a model whose points do, k above
1/_FILTER_CAP of the points and a record with more candidates than that
are measured directly. Blocks of query rows (batch prediction, the
neighbor tables, SMOTE and the grid's appended rows) and Manhattan
always are: no measured workload has shown a block gain.

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
from functools import cached_property

import numpy as np

from .dataset import Dataset, predictor_input
from .errors import KOutOfRangeError

WEIGHTINGS = ("uniform", "inverse-distance")
METRICS = ("euclidean", "manhattan")

_INV_EPS = 1e-12
# Class weights closer than this, relative to the larger, count as tied: a
# different summation order may flip them, so the one-row rule decides.
_TIE_RTOL = 1e-9
# The memory of one block of neighbor work. Its float64 (query rows ×
# points) distances take at most a quarter of it per metric in the blocks
# of `_nearest_each` and `model_selection._with_appended`, and half in the
# tiles of `neighbor_table`, leaving room for the candidate lists and sort
# buffers made from them. Sized by measurement (2 vCPU, glibc, group VII's
# k-NN cells): a quarter takes no longer than a whole at n = 10 000 and
# peaks lower. At n = 1 000, tiles of a quarter, or each metric's distances
# in an array of their own, made the allocator hand back and refetch its
# pages: about 20 000 page faults more per run, some 15% of its time.
_CHUNK_BYTES = 4 * 2**20
# `_distances` measures a block of one query row, or of fewer (query row ×
# point) pairs than this, as one difference tensor, which is cheaper there
# than planes: a one-row block would copy the points' columns for one use.
_PLANE_FLOOR = 512
# (query row × point) pairs per row sub-block of the plane form: its
# difference planes and partial sums, 0.5 MB each, stay in a core's cache.
_SUB_PAIRS = 8192
# numpy's pairwise_sum adds up to this many terms with eight partial sums
# and splits longer rows in halves.
_PAIRWISE_BLOCK = 128
# numpy's ufunc buffer, in elements, while the plane form runs: with the
# default 8 192, a broadcast subtraction of rows shorter than that is
# buffered and takes about four times as long.
_UFUNC_BUFSIZE = 64
# k, and a record's candidates, at most 1/_FILTER_CAP of the points take
# the Euclidean filter of one record (`_filtered_top_k`); with more, it
# would measure most points twice.
_FILTER_CAP = 4
# ‖x‖² + max ‖y‖² above this goes direct: every s, margin and squared
# distance of the filter then stays finite.
_FILTER_MAX_NORM = 2.0**1019


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

    @cached_property
    def _norms(self) -> tuple | None:
        """The stored points' squared norms ‖y‖², summed in float64 in any
        order (integer points would wrap), and their largest, NaN or inf when
        a point holds NaN or ±inf or a norm overflows; None for Manhattan.
        Made on the first `knn_predict` for `_filtered_top_k`, and not
        written to a model file."""
        if self.metric != "euclidean":
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.einsum("ij,ij->i", self.points, self.points, dtype=float)
        return sq, float(sq.max())


def knn_fit(train: Dataset, k: int, weighting: str = "uniform", metric: str = "euclidean") -> KNNModel:
    return KNNModel(k=k, weighting=weighting, metric=metric,
                    points=train.rows, labels=train.labels)


def _distances(points: np.ndarray, X: np.ndarray, metrics) -> dict:
    """(n_query, n_train) distances from each row of X to each stored point,
    for each of `metrics`. It is the one function that forms the coordinate
    differences of (query row × point) blocks, so the benchmark's tracer,
    which counts the calls of this name, sees all of them; the Euclidean
    filter of one record re-measures its few candidates by `_tensor_sums`.

    Each entry is its own d terms (|a| or a·a of each difference) added in
    the order of numpy's `pairwise_sum` over a contiguous row, so the values
    do not depend on how the callers split the queries into blocks, nor on
    the inputs' layout, and equal a one-row query's. The kernels own this
    rule, not the callers that make blocks: the benchmark's parity reference
    scores a Fortran-ordered test block, C-ordering `train.rows[:, kept]`
    would move `gnb_fit`'s bits and so model files, and fitted points keep
    their block's layout, loaded ones not. Two forms keep it:

    - A block of one query row (every single-record prediction) or of
      fewer than _PLANE_FLOOR (query row × point) pairs forms one C-ordered
      difference tensor and lets numpy sum its rows, which is cheaper at
      that size. So does any d above _PAIRWISE_BLOCK, where numpy splits a
      row's sum in halves, with the tensor walked in row blocks of at most
      _CHUNK_BYTES.
    - Every other block forms one (rows, n_train) difference plane per
      column, eight columns per np.subtract, both metrics sharing them, and
      adds the planes in numpy's order (`_plane_sums`), in row sub-blocks
      of _SUB_PAIRS pairs, with numpy's ufunc buffer at _UFUNC_BUFSIZE.

    A square or sum that overflows is +inf, which `_top_k` orders last and
    `_vote_one` votes on, so the overflow warns nothing.
    """
    q, (n, d) = X.shape[0], points.shape
    with np.errstate(over="ignore"):
        if (q < 2 or q * n < _PLANE_FLOOR) and d <= _PAIRWISE_BLOCK:
            return _tensor_sums(points, X, metrics)
        out = dict(zip(metrics, np.zeros((len(metrics), q, n))))  # one allocation for all metrics
        if d > _PAIRWISE_BLOCK:
            step = max(1, _CHUNK_BYTES // (8 * n * d))
            for r in range(0, q, step):
                for metric, part in _tensor_sums(points, X[r:r + step], metrics).items():
                    out[metric][r:r + step] = part
            return out
        columns = np.ascontiguousarray(points.T)[:, None, :]  # (d, 1, n)
        queries = np.ascontiguousarray(X.T)[:, :, None]  # (d, q, 1)
        step = max(1, _SUB_PAIRS // n)
        # one sub-block's difference planes and partial sums, reused by each
        diff = np.empty((min(d, 8), min(step, q), n))
        partial = {metric: np.empty((8, min(step, q), n)) for metric in metrics} if d >= 8 else {}
        np.setbufsize(_UFUNC_BUFSIZE)  # until the errstate block ends
        for r in range(0, q, step):
            _plane_sums(queries[:, r:r + step], columns, {metric: out[metric][r:r + step] for metric in metrics},
                        diff, partial)
        if "euclidean" in out:
            np.sqrt(out["euclidean"], out=out["euclidean"])
    return out


def _tensor_sums(points: np.ndarray, X: np.ndarray, metrics) -> dict:
    """`_distances` from one C-ordered difference tensor, each row summed by
    numpy. The tensor is made absolute, then squared, in place, so a block
    holds one; a metric's values are the same alone or not, as |a|·|a|
    rounds like a·a."""
    diff = np.subtract(X[:, None, :], points[None, :, :], order="C")
    out = {}
    if "manhattan" in metrics:
        out["manhattan"] = np.abs(diff, out=diff).sum(axis=2)
    if "euclidean" in metrics:
        out["euclidean"] = np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=2))
    return out


def _plane_sums(queries: np.ndarray, columns: np.ndarray, sums: dict, diff: np.ndarray, partial: dict) -> None:
    """Add each metric's d terms of (rows, n) pairs into sums[metric], zeros,
    in the order of numpy's `pairwise_sum` for d ≤ _PAIRWISE_BLOCK terms: for
    d < 8 one after another; else eight partial sums r_j of the terms j,
    j + 8, … up to the last whole group of eight, combined as ((r0 + r1) +
    (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and then the d mod 8 others one
    after another. `queries` is (d, rows, 1) and `columns` (d, 1, n); each
    np.subtract forms the planes of up to eight columns at once into `diff`,
    and `partial` holds each metric's eight partial sums."""
    d, rows = queries.shape[:2]
    whole = d - d % 8 if d >= 8 else 0
    partial = {metric: r[:, :rows] for metric, r in partial.items()}
    for i in range(0, whole, 8):
        _add_terms(np.subtract(queries[i:i + 8], columns[i:i + 8], out=diff[:, :rows]), partial, i == 0)
    for metric, r in partial.items():
        np.add(r[0::2], r[1::2], out=r[0::2])  # r0 + r1, r2 + r3, r4 + r5, r6 + r7
        np.add(r[0::4], r[2::4], out=r[0::4])
        np.add(r[0], r[4], out=sums[metric])
    if whole < d:
        terms = np.subtract(queries[whole:], columns[whole:], out=diff[:d - whole, :rows])
        for metric, term in (("manhattan", np.abs), ("euclidean", np.square)):
            if metric in sums:
                for plane in term(terms, out=terms):  # |a|·|a| rounds like a·a
                    np.add(sums[metric], plane, out=sums[metric])


def _add_terms(planes: np.ndarray, partial: dict, first: bool) -> None:
    """Add each metric's terms of the difference planes, |a| for Manhattan
    and a·a for Euclidean, into its partial sums, or with `first` put them
    there. The planes are made absolute, then squared, in place; |a|·|a|
    rounds like a·a."""
    for metric, term in (("manhattan", np.abs), ("euclidean", np.square)):
        if metric in partial:
            if first:
                term(planes, out=partial[metric])
            else:
                np.add(partial[metric], term(planes, out=planes), out=partial[metric])


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


def _filtered_top_k(points: np.ndarray, norms: tuple, x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`_nearest(points, x[None], "euclidean", k)`, bit for bit, from a
    filter; `norms` are the points' squared norms and their largest
    (`KNNModel._norms`).

    One matrix-vector product gives s_y = ‖y‖² − 2x·y, which is
    ‖x − y‖² − ‖x‖², for every point y, and `np.partition` the k-th value
    T. The candidates are the points with s ≤ T + margin. They are
    measured again by the kernel's own rule (`_tensor_sums`: one contiguous
    row of d squared differences per point, summed by numpy, then `sqrt`)
    and ordered by (distance, index), and the first k are the list.

    The margin, with u = 2⁻⁵³, γ_j = ju / (1 − ju), M the largest ‖y‖²,
    X² = ‖x‖² + M and D_y the exact ‖x − y‖², is 8·γ_{d+4}·X² +
    16(d + 4)·2⁻¹⁰⁷⁴. Let z be one of the k points at or below T, and y a
    point with ŝ_y > T + margin (ŝ: s as computed):
    - The error of s. ‖y‖² and x·y are each within γ_d of the sum of their
      terms' absolute values, in any order of summation, and one rounded
      subtraction follows (Higham, *Accuracy and Stability of Numerical
      Algorithms*, §3.1): |ŝ − s| ≤ γ_{d+1}(2‖y‖² + ‖x‖²) ≤ 2γ_{d+1}·X², on
      each side of the cut, so D_y − D_z = s_y − s_z > margin − 4γ_{d+1}·X².
    - The kernel's sum. K_y, of d terms each rounded twice (the difference,
      its square), is within γ_{d+2}·D_y of D_y, and D_y ≤ 2X².
    - Its square root. sqrt(K_y) rounds to a larger double than sqrt(K_z)
      once K_y − K_z > 4u·K_y. Two sums closer than that may round to one
      double, and then the lower index goes first.

    So y follows z in (distance, index) order once D_y − D_z > γ_{d+2}(D_y
    + D_z) + 4u·K_y, which 4γ_{d+4}·X² bounds, and a margin of (4γ_{d+1} +
    4γ_{d+4})·X² leaves y out of the list. 8γ_{d+4}·X² holds 12u·X² more,
    for the rounding of X², of the margin and of T + margin; the last term
    covers gradual underflow, at most 2⁻¹⁰⁷⁵ per rounded product. None of
    this depends on the order of BLAS's sums or on its thread count, so the
    BLAS build may change a candidate set but never a result.

    The direct kernel measures the record when k is above 1/_FILTER_CAP of
    the points, when X² is not finite or above _FILTER_MAX_NORM (x or a
    point holding NaN or ±inf, or norms that overflow), or when more than
    1/_FILTER_CAP of the points are candidates.
    """
    (n, d), (sq, top) = points.shape, norms
    k = min(k, n)
    if k * _FILTER_CAP <= n:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = float(x @ x) + top
        if bound <= _FILTER_MAX_NORM:
            gamma = (d + 4) * 2.0**-53 / (1 - (d + 4) * 2.0**-53)
            margin = 8 * gamma * bound + 16 * (d + 4) * 2.0**-1074
            s = points @ (x * -2.0)
            s += sq
            col = np.flatnonzero(s <= np.partition(s, k - 1)[k - 1] + margin)
            if col.size * _FILTER_CAP <= n:
                near = _tensor_sums(points[col], x[None], ("euclidean",))["euclidean"][0]
                order = np.lexsort((col, near))[:k]
                return near[order][None], col[order][None]
    return _nearest(points, x[None], "euclidean", k)


def _nearest(points: np.ndarray, X: np.ndarray, metric: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and indices of each query row's k nearest points, in
    (distance, index) order: `_top_k` of `_distances`, equal to a full
    stable sort cut to min(k, n_train) columns."""
    return _nearest_each(points, X, (metric,), k)[metric]


def _nearest_each(points: np.ndarray, X: np.ndarray, metrics, k: int) -> dict:
    """`_nearest` for each of `metrics`, one block of query rows at a time.

    Each block's distances come from one `_distances` call, both metrics'
    from the same differences. A block's distances take at most a quarter
    of _CHUNK_BYTES per metric.
    """
    step = max(1, _CHUNK_BYTES // max(1, 32 * len(points)))
    blocks = []
    for start in range(0, max(1, X.shape[0]), step):
        dists = _distances(points, X[start:start + step], metrics)
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
    distance matrix, each holding half of _CHUNK_BYTES of distances per
    metric and measured by one `_distances` call. A distance is the same double either way
    round, so tile (a, b) feeds the running lists of row block a and,
    transposed, of row block b. Tiles go row block by row block, so each
    block receives its candidate columns in ascending index order; `_top_k`
    of a list followed by later columns is then the (distance, index) order
    of both. Once a list is full, only candidates below its last entry can
    enter it, so a merge takes just those. The lists are filled in place in
    preallocated (n, k) arrays, indices in the smallest unsigned type that
    holds n.
    """
    n = len(points)
    k = min(k, n)
    lists = {metric: (np.empty((n, k)), np.empty((n, k), dtype=np.min_scalar_type(n))) for metric in metrics}
    step = max(1, math.isqrt(_CHUNK_BYTES // 16))
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

    for a in filled:
        size_a = min(step, n - a)
        for b in range(a, n, step):
            size_b = min(step, n - b)
            tile = _distances(points[b:b + step], points[a:a + step], metrics)
            for metric, (dist, idx) in lists.items():
                new = tile[metric]
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
    if model._norms:
        dist, idx = _filtered_top_k(model.points, model._norms, x, model.k)
    else:
        dist, idx = _nearest(model.points, x[None, :], model.metric, model.k)
    return _vote_one(dist[0], model.labels[idx[0]], model.weighting)


def knn_predict_many(model: KNNModel, X: np.ndarray) -> np.ndarray:
    X = predictor_input(X, model.points.shape[1])
    dist, idx = _nearest(model.points, X, model.metric, model.k)
    return _vote(dist, model.labels[idx], model.weighting)
