"""Dataset container, CSV ingestion/export, outcome derivation, group slicing.

CSV conventions: UTF-8 (a leading byte-order mark is skipped),
comma-separated, header row with schema names, decimal point '.', no
thousands separators. Canonical output prints integers without a
fraction and other reals with up to 9 significant digits
(round-half-even), which round-trips every value the synthetic generator
or a loaded file can contain bit-exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyAfterFilteringError,
    MalformedCsvError,
    MissingColumnError,
    OutOfRangeError,
    WidthMismatchError,
)
from .schema import Schema, VariableGroup, column_limits, default_schema, first_misfit


@dataclass(frozen=True)
class Dataset:
    """Feature matrix + binary outcome labels bound to a schema.

    rows has one column per non-outcome schema column, in schema order.
    Arrays are frozen after construction; all pipeline operations return
    new Dataset instances.
    """

    schema: Schema
    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d matrix")
        if rows.shape[1] != len(self.schema.feature_names):
            raise ValueError(
                f"rows width {rows.shape[1]} != schema feature count "
                f"{len(self.schema.feature_names)}"
            )
        if labels.shape != (rows.shape[0],):
            raise ValueError("labels length must equal row count")
        if rows.size and not np.isfinite(rows).all():
            raise ValueError("rows contain non-finite values")
        if labels.size and not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be 0 or 1")
        rows.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def width(self) -> int:
        return self.rows.shape[1]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.schema.feature_names

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.schema.feature_index(name)]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.schema, self.rows[idx], self.labels[idx])

    def with_rows(self, rows: np.ndarray) -> "Dataset":
        return Dataset(self.schema, rows, self.labels)

    def class_counts(self) -> tuple[int, int]:
        return int(np.sum(self.labels == 0)), int(np.sum(self.labels == 1))


def predictor_input(X, width: int, ndim: int = 2) -> np.ndarray:
    """A predictor's input as floats, (rows × width) or one row with ndim=1;
    any other shape raises WidthMismatchError. Values are not checked."""
    X = np.asarray(X, dtype=float)
    if X.ndim != ndim or X.shape[-1] != width:
        raise WidthMismatchError(f"expected {width} features, got {X.shape}")
    return X


@dataclass(frozen=True)
class IngestionReport:
    """Bookkeeping for load_csv: rows kept and rows dropped (1-based data-row numbers)."""

    n_loaded: int
    dropped: tuple[tuple[int, str], ...] = ()

    @property
    def n_dropped(self) -> int:
        return len(self.dropped)

def derive_success(sat_surgical_6m, sat_pain_6m) -> int:
    """Surgical success label: 1 iff both six-month satisfaction answers are ≤ 1.

    Inputs are the ordinal answer codes 0–4 (0 best, 4 worst).
    """
    out = []
    for v in (sat_surgical_6m, sat_pain_6m):
        f = float(v)
        if f != int(f) or not 0 <= f <= 4:
            raise OutOfRangeError(v)
        out.append(int(f))
    return 1 if out[0] <= 1 and out[1] <= 1 else 0


def format_value(v: float) -> str:
    """Canonical decimal rendering: integers bare, reals at ≤ 9 significant digits."""
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return format(f, ".9g")


def _number(text: str) -> float:
    """The float that `float()` reads from a stripped CSV field, or NaN."""
    try:
        return float(text.strip())
    except ValueError:
        return math.nan


def load_csv(path, schema: Schema | None = None) -> tuple[Dataset, IngestionReport]:
    """Read a CSV whose header names a superset of the schema columns.

    Columns are reordered to schema order. Every field is read by `_number`;
    a feature value must also be one its column can hold (`first_misfit`)
    and a label 0 or 1. A row with a field that fails is dropped and
    recorded in the report by its 1-based data-row number and its first
    failing column in schema order, the label last.
    """
    schema = schema or default_schema()
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsvError(0, "empty file") from None
        header = [h.strip() for h in header]
        positions = {}
        for name in schema.names:
            if name not in header:
                raise MissingColumnError(name)
            positions[name] = header.index(name)
        label_pos = positions[schema.outcome.name]
        feature_pos = [positions[n] for n in schema.feature_names]
        limits = column_limits((c.kind, c.valid_range) for c in schema.feature_columns)

        rows, labels, dropped = [], [], []
        for row_no, record in enumerate(reader, start=1):
            if not record or all(f.strip() == "" for f in record):
                continue  # blank line
            if len(record) != len(header):
                raise MalformedCsvError(row_no, "field count does not match header")
            values = [_number(record[pos]) for pos in feature_pos]
            y = _number(record[label_pos])
            bad = first_misfit(values, limits)
            if bad is not None or y not in (0.0, 1.0):
                dropped.append((row_no, schema.outcome.name if bad is None else schema.feature_names[bad]))
                continue
            rows.append(values)
            labels.append(int(y))

    if not rows:
        raise EmptyAfterFilteringError(f"no usable rows in {path}")
    ds = Dataset(schema, np.array(rows), np.array(labels))
    return ds, IngestionReport(ds.n, tuple(dropped))


def write_csv(ds: Dataset, path) -> None:
    """Write a Dataset in canonical CSV form (schema column order, outcome included)."""
    label_idx = ds.schema.names.index(ds.schema.outcome.name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.schema.names)
        for i in range(ds.n):
            fields = [format_value(v) for v in ds.rows[i]]
            fields.insert(label_idx, str(int(ds.labels[i])))
            writer.writerow(fields)


def select_group(ds: Dataset, group: VariableGroup) -> Dataset:
    """Dataset restricted to the group's columns (schema order kept) with the same labels."""
    sub = ds.schema.subset(group.column_names)
    cols = [ds.schema.feature_index(n) for n in sub.feature_names]
    return Dataset(sub, ds.rows[:, cols], ds.labels)
