"""Train-fitted preprocessing: ordinal code mapping and column scaling.

All states are fitted on training rows only and applied unchanged to test
rows, so no test-partition statistic can reach a fitted model.

Each step has one array-level implementation, run on training rows, the
test partition and a predicted record alike. `rank_encode` counts the
adjacent code pairs whose upper code is strictly nearer to the value: every
pair below the value counts, none above it does, and the pair around it
counts only if the upper code is nearer, so the count is the nearest code's
rank, ties toward the lower (its docstring gives the proof). `scale` is one
full-width expression by a `scaler_plan`, the scaler laid out over every
column in feature order (min-max then clips its own columns). The Dataset wrappers (`apply_*`) serve training,
`experiment.FittedCell.preprocess` (its plan built once per cell) the rest.

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


def scaler_plan(state: ScalerState, mode: str, positions, width: int) -> tuple:
    """The scaler over `width` columns in feature order, its own at `positions`:
    a shift and a divisor per column and, for min-max, the positions to clip
    and the constant ones. Any other column gets (x − 0) / 1, x bit for bit
    (−0.0 too), and no clip."""
    shift, divisor = np.zeros(width), np.ones(width)
    if mode == "standardize":
        shift[positions], divisor[positions] = state.mean, state.std
        return shift, divisor, None
    positions = np.asarray(positions, dtype=np.intp)
    shift[positions], divisor[positions] = state.minimum, np.where(state.constant, 1.0, state.maximum - state.minimum)
    return shift, divisor, (positions, positions[state.constant])


def scale(rows: np.ndarray, plan: tuple) -> np.ndarray:
    """A scaled (C-ordered) copy of full-width rows by a `scaler_plan`:
    "standardize" x → (x − mean) / stddev; "minmax" x → (x − min) /
    (max − min), clamped to [0, 1], and constant columns map to 0."""
    shift, divisor, clip = plan
    scaled = np.subtract(rows, shift, order="C")
    np.divide(scaled, divisor, out=scaled)
    if clip is not None:  # scalar bounds: numpy's clip keeps -0.0 only with those
        positions, constant = clip
        scaled[:, positions] = np.clip(scaled.take(positions, axis=1), 0.0, 1.0)
        scaled[:, constant] = 0.0
    return scaled


def _apply_scaler(ds: Dataset, state: ScalerState, mode: str) -> Dataset:
    idx = _column_indices(ds, state.columns, "scaler columns")
    return ds.with_rows(scale(ds.rows, scaler_plan(state, mode, idx, ds.width)))


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


def code_table(codes) -> tuple[np.ndarray, np.ndarray]:
    """Each column's sorted codes, padded with +inf to one place more than
    the longest so every rank has an entry above it, as the (lower, upper)
    codes of each adjacent pair: one row per column, each array contiguous."""
    codes = list(codes)
    table = np.full((len(codes), max(map(len, codes), default=0) + 1), np.inf)
    for i, c in enumerate(codes):
        table[i, : len(c)] = c
    return table[:, :-1].copy(), table[:, 1:].copy()


def rank_encode(block: np.ndarray, table: tuple) -> np.ndarray:
    """Rank of the nearest code in each column's `code_table` row (ties
    toward the lower code), for a (rows × table rows) block: the number of
    adjacent code pairs whose upper code is strictly nearer to the value.

    Proof: with t[p−1] < v ≤ t[p] (t[p] may be a +inf pad), a pair below
    (t[j+1] < v) compares v − t[j] > 0 with t[j+1] − v < 0 and counts; a
    pair above (v ≤ t[j]) compares a difference ≤ 0 with one ≥ 0 and does
    not. Rounding keeps each sign (x − y is 0 only if x = y), and so does an
    overflow to ±inf. So the count is p − 1 plus the pivot pair's
    v − t[p−1] > t[p] − v, the searchsorted rule's own two subtractions,
    and 0 if p = 0 or v is NaN. +inf gets the last code's rank (inf − inf is
    NaN at the pads), where the searchsorted rule gave one past it; no CSV
    row or record holds ±inf (`schema.first_misfit`), so no output moves."""
    v = block[:, :, None]
    lower, upper = table
    with np.errstate(over="ignore"):  # an overflow keeps the difference's sign
        return ((v - lower) > (upper - v)).sum(axis=2)


def apply_ordinal_encoder(ds: Dataset, state: OrdinalEncoderState) -> Dataset:
    """Map each encoded column's values to consecutive ranks 0..m−1.

    Values unseen at fit time map to the rank of the nearest trained code
    so a legitimate test split cannot abort a run.
    """
    idx = _column_indices(ds, list(state.codes), "encoded columns")
    rows = ds.rows.copy()
    rows[:, idx] = rank_encode(rows[:, idx], code_table(state.codes.values()))
    return ds.with_rows(rows)
