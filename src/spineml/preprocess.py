"""Train-fitted preprocessing: ordinal code mapping and column scaling.

All states are fitted on training rows only and applied unchanged to test
rows, so no test-partition statistic can reach a fitted model.

Each step has one array-level implementation, `rank_encode` and `scale`,
which works on a block of rows of the affected columns. The Dataset
wrappers (`apply_ordinal_encoder`, `apply_standardizer`, `apply_minmax`)
serve training; `experiment.FittedCell.preprocess` runs the same two
functions on the raw test partition and on a predicted record.

A column whose training max equals its min (or whose stddev is 0) is
constant: min-max maps it to 0, and standardizing divides by 1, not by a
stddev of rounding error. A `ScalerState`, a loaded one too, checks its values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ColumnMismatchError,
    NonFiniteScalerError,
    NonIntegerCategoricalError,
    TooFewRowsError,
)
from .dataset import Dataset
from .schema import KIND_BINARY, KIND_CONTINUOUS, KIND_ORDINAL


@dataclass(frozen=True)
class ScalerState:
    """Per-column mean/stddev (sample, n−1), min/max and constant flag over
    the training rows, refusing values no fit gives: a value that is no
    finite number, a stddev ≤ 0, a max below the min, or equal to it in a
    column not flagged constant. A fit whose statistics overflow fails with
    `NonFiniteScalerError` rather than give a state no model file can hold."""

    columns: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    constant: np.ndarray

    def __post_init__(self):
        for name in ("mean", "std", "minimum", "maximum", "constant"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (len(self.columns),):
                raise ValueError(f"scaler {name} has shape {arr.shape} for {len(self.columns)} columns")
            if not np.isfinite(arr).all():
                raise NonFiniteScalerError(f"scaler {name} must be finite, got {arr.tolist()}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.std > 0).all():
            raise ValueError(f"scaler std must be finite and > 0, got {self.std.tolist()}")
        if not ((self.maximum > self.minimum) | (self.constant & (self.maximum == self.minimum))).all():
            raise ValueError(f"scaler max must be ≥ min, and > min unless the column is constant, got min "
                             f"{self.minimum.tolist()} and max {self.maximum.tolist()}")


def fit_standardizer(train: Dataset, columns=None) -> ScalerState:
    """Fit per-column statistics over the training rows.

    columns defaults to the continuous feature columns of the schema.
    """
    if train.n < 2:
        raise TooFewRowsError("need at least 2 training rows to fit a scaler")
    if columns is None:
        columns = [
            c.name for c in train.schema.feature_columns if c.kind == KIND_CONTINUOUS
        ]
    columns = tuple(columns)
    idx = [train.schema.feature_index(name) for name in columns]
    block = train.rows[:, idx]
    with np.errstate(over="ignore", invalid="ignore"):  # ScalerState refuses what overflows
        mean, std = block.mean(axis=0), block.std(axis=0, ddof=1)
    lo, hi = block.min(axis=0), block.max(axis=0)
    constant = (hi == lo) | (std == 0.0)  # a column of 0.7 has a std of 2.2e-16
    std = np.where(constant, 1.0, std)
    return ScalerState(columns, mean, std, lo, hi, constant)


def _column_indices(ds: Dataset, columns, what: str) -> list[int]:
    missing = [c for c in columns if c not in ds.schema.feature_names]
    if missing:
        raise ColumnMismatchError(f"{what} absent from data: {missing}")
    return [ds.schema.feature_index(c) for c in columns]


SCALING_MODES = ("standardize", "minmax")


def scale(block: np.ndarray, state: ScalerState, mode: str) -> np.ndarray:
    """Scale a (rows × state.columns) block.

    "standardize": x → (x − mean) / stddev. "minmax": x → (x − min) /
    (max − min), clamped to [0, 1]; constant columns map to 0.
    """
    if mode == "standardize":
        return (block - state.mean) / state.std
    span = np.where(state.constant, 1.0, state.maximum - state.minimum)
    scaled = np.clip((block - state.minimum) / span, 0.0, 1.0)
    scaled[:, state.constant] = 0.0
    return scaled


def _apply_scaler(ds: Dataset, state: ScalerState, mode: str) -> Dataset:
    idx = _column_indices(ds, state.columns, "scaler columns")
    rows = ds.rows.copy()
    rows[:, idx] = scale(rows[:, idx], state, mode)
    return ds.with_rows(rows)


def apply_standardizer(ds: Dataset, state: ScalerState) -> Dataset:
    """x → (x − mean) / stddev on the state's columns; others pass through."""
    return _apply_scaler(ds, state, "standardize")


def apply_minmax(ds: Dataset, state: ScalerState) -> Dataset:
    """x → (x − min) / (max − min), clamped to [0, 1]; constant columns map to 0."""
    return _apply_scaler(ds, state, "minmax")


@dataclass(frozen=True)
class OrdinalEncoderState:
    """Sorted distinct training codes per encoded column (rank encoding)."""

    codes: dict[str, np.ndarray]


def fit_ordinal_encoder(train: Dataset) -> OrdinalEncoderState:
    """Learn the distinct sorted codes of each ordinal/binary column."""
    codes = {}
    for c in train.schema.feature_columns:
        if c.kind in (KIND_ORDINAL, KIND_BINARY):
            col = train.column(c.name)
            if not np.array_equal(col, np.round(col)):
                raise NonIntegerCategoricalError(c.name)
            codes[c.name] = np.unique(col)
    return OrdinalEncoderState(codes)


def code_table(codes) -> np.ndarray:
    """One row per column of its sorted codes, padded with +inf to one
    place more than the longest, so every rank has an entry above it."""
    codes = list(codes)
    table = np.full((len(codes), max(map(len, codes), default=0) + 1), np.inf)
    for i, c in enumerate(codes):
        table[i, : len(c)] = c
    return table


def rank_encode(block: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Rank of the nearest code in each column's `code_table` row (ties
    toward the lower code), for a (rows × table rows) block."""
    pos = (table < block[:, :, None]).sum(axis=2)  # searchsorted, side="left"
    cols = np.arange(table.shape[0])
    below = table[cols, np.maximum(pos - 1, 0)]
    above = table[cols, pos]  # +inf past the last code
    return np.where((pos > 0) & (block - below <= above - block), pos - 1, pos)


def apply_ordinal_encoder(ds: Dataset, state: OrdinalEncoderState) -> Dataset:
    """Map each encoded column's values to consecutive ranks 0..m−1.

    Values unseen at fit time map to the rank of the nearest trained code
    so a legitimate test split cannot abort a run.
    """
    idx = _column_indices(ds, list(state.codes), "encoded columns")
    rows = ds.rows.copy()
    rows[:, idx] = rank_encode(rows[:, idx], code_table(state.codes.values()))
    return ds.with_rows(rows)
