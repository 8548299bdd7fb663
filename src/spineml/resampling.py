"""Training-set class-balance correction: random duplication and SMOTE.

Both methods only append rows; original rows are never touched and
majority rows never change. Applied to training partitions only — the
experiment runner keeps validation and test rows out of reach.

Oversampling is split into a seed-independent basis (`minority_basis`: the
minority pool and SMOTE's neighbor lists) and the seeded draws
(`_draw_many`), so grid search builds the basis once per fold and draws
the rows of every combination's seed in one pass. The draws are those of
`numpy.random.default_rng(seed)`'s `integers` and `random`, bit for bit,
made for many seeds at once from their raw PCG64 words by `streams._Draws`,
as the feature-selection forest's are; no Generator is made. `_draw` is
the one-seed case, which `oversample` uses.
A basis reads the `neighbors.NeighborTables` of a training partition and
a boolean mask of the partition's rows it is built from: a fold's rows, or
all of them for the final fit. SMOTE's neighbor lists come from one
Euclidean table over the partition's rows of the minority label (which
keeps `SPARE` = 8 more than the k + 1 a basis reads), filtered to the
masked rows; a row left short by the filter is measured directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import MinorityTooSmallError, SingleClassError
from .neighbors import NeighborTables, _within
from .streams import _Draws, _entropy, _rng_words

METHODS = ("random_over", "smote")


@dataclass(frozen=True)
class ResamplePlan:
    method: str
    target_ratio: float = 1.0
    smote_k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown resampling method: {self.method}")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError(f"target_ratio must be in (0, 1], got {self.target_ratio}")
        if self.smote_k < 1:
            raise ValueError(f"smote_k must be ≥ 1, got {self.smote_k}")


@dataclass(frozen=True)
class MinorityBasis:
    """The seed-independent part of oversampling one training set.

    `neighbors` (SMOTE only, and only when rows are needed) holds, for each
    minority row, the pool positions of its k nearest minority rows.
    """

    minority: int
    need: int
    pool: np.ndarray
    neighbors: np.ndarray | None = None


def minority_basis(tables: NeighborTables, plan: ResamplePlan, held: np.ndarray | None = None) -> MinorityBasis:
    """Minority label (a tie goes to label 1), rows needed, minority pool and
    SMOTE neighbor lists of the training set that the boolean mask `held`
    (all rows when None) marks among the rows of the `tables`' matrix; the
    pool numbers its rows among those rows.

    Depends on the training set and the plan but not on its seed, so one
    basis serves every reseeded `oversample` of the same set.
    """
    held = np.ones(tables.labels.size, dtype=bool) if held is None else held
    labels = tables.labels[held]
    counts = np.bincount(labels, minlength=2).tolist()
    if 0 in counts:
        raise SingleClassError("resampling needs both classes present")
    minority = int(counts[0] >= counts[1])
    pool = np.flatnonzero(labels == minority)
    if plan.method == "smote" and pool.size < 2:
        raise MinorityTooSmallError("SMOTE needs at least 2 minority rows")
    need = math.ceil(plan.target_ratio * counts[1 - minority]) - counts[minority]
    if plan.method == "random_over" or need <= 0:
        return MinorityBasis(minority, need, pool)
    members = tables.labels == minority
    inside = held[members]  # the pool, among the matrix's minority rows
    k = min(plan.smote_k, pool.size - 1)
    lists = tables.lists(("euclidean",), plan.smote_k + 1, minority)
    _, near = _within(lists, tables.points[members], np.flatnonzero(inside), inside, k + 1)["euclidean"]
    # Drop each row itself; when k + 1 lower-index duplicates come first,
    # the row is not among them and the last one goes instead.
    keep = near != np.arange(pool.size)[:, None]
    keep[keep.all(axis=1), -1] = False
    return MinorityBasis(minority, need, pool, near[keep].reshape(pool.size, k))


def _draw_many(rows: np.ndarray, method: str, basis: MinorityBasis, rng_words: np.ndarray) -> np.ndarray:
    """The (S, need, ...) rows that oversampling a training matrix `rows` by
    `method` appends, one block per stream, whose PCG64 is seeded with a row
    of the (S, 4) `rng_words` (`streams._rng_words`: `default_rng(seed)`'s
    stream); `basis.need` must be positive. The draws of all streams are
    made together and equal numpy's: random oversampling picks pool rows by
    `integers(0, pool size, need)`; SMOTE takes a start by
    `integers(0, pool size)`, a neighbor column by `integers(0, k, need)`
    and the gaps by `random(need)`. Random oversampling only indexes
    `rows`, so given the row ids `np.arange(n)` it returns the ids of the
    rows it copies, in append order."""
    need, n_pool, streams = basis.need, basis.pool.size, np.arange(len(rng_words))
    if method == "random_over":
        draws = _Draws(rng_words, (need + 1) // 2)  # one 32-bit draw per row
        return rows[basis.pool[draws.bounded(streams, np.full(need, n_pool))]]
    k = basis.neighbors.shape[1]
    draws = _Draws(rng_words, (2 + need * (k > 1)) // 2 + need)  # the start, the picks, then the gaps
    points = rows[basis.pool]
    drawn = draws.bounded(streams, np.concatenate([[n_pool], np.full(need, k)]))  # the start, then the picks
    seeds = (drawn[:, :1] + np.arange(need)) % n_pool
    picks = basis.neighbors[seeds, drawn[:, 1:]]
    u = draws.random(streams, np.full(streams.size, need)).reshape(-1, need, 1)
    x, new = points.take(seeds, axis=0), points.take(picks, axis=0)
    new -= x  # x + u · (z − x), in place: the same operations on the same values
    new *= u
    new += x
    return new


def _draw(rows: np.ndarray, method: str, basis: MinorityBasis, seed: int) -> np.ndarray:
    """`_draw_many` for the one stream `default_rng(seed)`: the rows that
    `oversample` appends under `seed`."""
    return _draw_many(rows, method, basis, _rng_words([_entropy(seed)]))[0]


def oversample(train: Dataset, plan: ResamplePlan, tables: NeighborTables | None = None) -> Dataset:
    """`train` followed by the rows that oversampling it by `plan` appends,
    all labelled with the minority label; `train` itself when none are needed.

    SMOTE seed points rotate round-robin over the minority rows from a seeded
    start, one of the seed's k nearest minority neighbors (euclidean) is
    chosen uniformly, and the synthetic point is x + u·(z − x), u ∈ [0, 1).
    `tables`, if given, are `train`'s own.
    """
    basis = minority_basis(tables or NeighborTables(train.rows, train.labels), plan)
    if basis.need <= 0:
        return train
    new = _draw(train.rows, plan.method, basis, plan.seed)
    return Dataset(train.schema, np.vstack([train.rows, new]),
                   np.concatenate([train.labels, np.full(len(new), basis.minority, dtype=np.int64)]))
