"""Training-set class-balance correction: random duplication and SMOTE.

Both methods only append rows; original rows are never touched and
majority rows never change. Applied to training partitions only — the
experiment runner keeps validation and test rows out of reach.

Oversampling is split into a seed-independent basis (`minority_basis`: the
minority pool and SMOTE's neighbor lists) and the seeded draws
(`_draw`), so grid search builds the basis once per fold and reseeds only
the draws. SMOTE's neighbor lists come from one Euclidean table over a
training partition's rows of the minority label (`neighbors.NeighborTables`,
which keeps `SPARE` = 8 more than the k + 1 a basis reads): a fold's basis
filters it to the fold's rows, the final fit's basis reads it as it is, and
a row left short by the filter is measured directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import MinorityTooSmallError, SingleClassError
from .neighbors import NeighborTables, _within

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


def _minority_majority(ds: Dataset) -> tuple[int, int]:
    n0, n1 = ds.class_counts()
    if n0 == 0 or n1 == 0:
        raise SingleClassError("resampling needs both classes present")
    return (0, 1) if n0 < n1 else (1, 0)


def _target_count(plan: ResamplePlan, n_majority: int) -> int:
    return math.ceil(plan.target_ratio * n_majority)


def _append(ds: Dataset, new_rows: np.ndarray, minority_label: int) -> Dataset:
    rows = np.vstack([ds.rows, new_rows])
    labels = np.concatenate(
        [ds.labels, np.full(new_rows.shape[0], minority_label, dtype=np.int64)]
    )
    return Dataset(ds.schema, rows, labels)


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


def minority_basis(train: Dataset, plan: ResamplePlan, tables: NeighborTables | None = None,
                   rows: np.ndarray | None = None) -> MinorityBasis:
    """Minority label, rows needed, minority pool and SMOTE neighbor lists.

    Depends on the training set and the plan but not on its seed, so one
    basis serves every reseeded `oversample` of the same set. `tables` are
    those of a matrix whose sorted rows `rows` (all when None) `train`
    holds; without them, `train` gets its own.
    """
    minority, majority = _minority_majority(train)
    counts = train.class_counts()
    pool = np.flatnonzero(train.labels == minority)
    if plan.method == "smote" and pool.size < 2:
        raise MinorityTooSmallError("SMOTE needs at least 2 minority rows")
    need = _target_count(plan, counts[majority]) - counts[minority]
    if plan.method == "random_over" or need <= 0:
        return MinorityBasis(minority, need, pool)
    if tables is None:
        tables = NeighborTables(train.rows, train.labels)
    held = np.zeros(tables.labels.size, dtype=bool)
    held[slice(None) if rows is None else rows] = True
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


def oversample(train: Dataset, plan: ResamplePlan, tables: NeighborTables | None = None) -> Dataset:
    """Oversample `train` by `plan`.

    SMOTE seed points rotate round-robin over the minority rows from a seeded
    start, one of the seed's k nearest minority neighbors (euclidean) is
    chosen uniformly, and the synthetic point is x + u·(z − x), u ∈ [0, 1).
    `tables`, if given, are `train`'s own.
    """
    basis = minority_basis(train, plan, tables)
    if basis.need <= 0:
        return train
    return _append(train, _draw(train.rows, plan.method, basis, plan.seed), basis.minority)
