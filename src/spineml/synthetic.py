"""Synthetic patient generator standing in for the private clinical dataset.

Labels realize the published class balance (52.2% success) and GEN the
published gender split (52.5% male) as exact counts in shuffled order, so
a generated file reproduces the reported proportions at any n. The
six-month satisfaction answers are drawn conditionally on the label, so
deriving the success rule from them reproduces the label column exactly.

`signal` in [0, 1] injects predictive structure: with that probability per
cell, pre-surgical and psychometric values are drawn from a label-shifted
distribution (success shifts toward clinically better values). signal=0
leaves every feature independent of the label.

Distribution shapes are generator choices: uniform over the reference
interval for blood-panel columns, discrete uniform for ordinal codes, and
a truncated normal (centered mid-range, sd = range/6) for scores such as
AGE, BMI, VAS, and ODI. Values are quantized to clinically sensible
decimals so canonical CSV output round-trips bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .errors import NTooSmallError, SyntheticSettingError
from .schema import (
    KIND_BINARY,
    KIND_CONTINUOUS,
    KIND_ORDINAL,
    Schema,
    default_schema,
)

# The default cohort: the study's size and success rate, with moderate signal.
SYNTHETIC_DEFAULTS = {"n": 244, "signal": 0.5, "p_success": 0.522}

# The study's share of male patients.
_P_MALE = 0.525

# Fraction of the column range the label-conditional center moves by.
_SHIFT_FRACTION = 1.0 / 12.0

_SIGNAL_ROLES = ("presurgical", "psychometric")

_DECIMALS = {
    "AGE": 0,
    "BMI": 1,
    "LEVELS": 0,
    "MSPQ": 0,
    "ZUNG": 0,
    "PRE_LUMBAR_EVA": 0,
    "PRE_LEG_EVA": 0,
    "M6_LUMBAR_EVA": 0,
    "M6_LEG_EVA": 0,
    "PRE_ODI": 0,
    "M6_POST_ODI": 0,
    "GLU": 1,
    "UREA": 1,
    "URIC_ACID": 2,
    "CREAT": 2,
    "CHOL": 1,
}


def _exact_count_binary(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    ones = int(round(p * n))
    arr = np.zeros(n, dtype=np.int64)
    arr[:ones] = 1
    return rng.permutation(arr)


def _truncated_normal(rng, center, sd, lo, hi, size) -> np.ndarray:
    """Rejection-sampled normal clipped to [lo, hi]; center may be per-row."""
    center = np.broadcast_to(np.asarray(center, dtype=float), (size,))
    out = rng.normal(center, sd)
    bad = (out < lo) | (out > hi)
    while bad.any():
        out[bad] = rng.normal(center[bad], sd)
        bad = (out < lo) | (out > hi)
    return out


def _failure_satisfaction_pairs() -> np.ndarray:
    # All (surgical, pain) answer pairs where at least one response is ≥ 2.
    return np.array(
        [(a, b) for a in range(5) for b in range(5) if max(a, b) >= 2], dtype=float
    )


def check_synthetic(n: int, signal: float, p_success: float, width: int | None = None) -> None:
    """Reject n < 20, an n whose largest array numpy cannot hold (the n rows
    of float64s of the `width` feature columns, the default schema's by
    default, or of the two satisfaction answers), and a signal or p_success
    outside [0, 1] or NaN."""
    if n < 20:
        raise NTooSmallError(f"n must be ≥ 20, got {n}")
    width = len(default_schema().feature_columns) if width is None else width
    if n > (most := np.iinfo(np.intp).max // (8 * max(width, 2))):
        raise SyntheticSettingError(f"n must be ≤ {most} for {width} feature columns, got {n}")
    for name, value in (("signal", signal), ("p_success", p_success)):
        if not 0.0 <= value <= 1.0:
            raise SyntheticSettingError(f"{name} must be in [0, 1], got {value}")


def generate_synthetic(
    n: int,
    seed: int,
    signal: float,
    p_success: float = SYNTHETIC_DEFAULTS["p_success"],
    schema: Schema | None = None,
) -> Dataset:
    """Generate a deterministic synthetic Dataset of n patients."""
    schema = schema or default_schema()
    check_synthetic(n, signal, p_success, len(schema.feature_columns))
    rng = np.random.default_rng(seed)

    labels = _exact_count_binary(rng, n, p_success)
    success = labels == 1

    pair_cols = ("SAT_SURGICAL_6M", "SAT_PAIN_6M")
    sat_6m = np.zeros((n, 2))
    # Success: both answers in {0, 1}; failure: a pair with max ≥ 2.
    sat_6m[success] = rng.integers(0, 2, size=(int(success.sum()), 2))
    fail_pairs = _failure_satisfaction_pairs()
    picks = rng.integers(0, len(fail_pairs), size=int((~success).sum()))
    sat_6m[~success] = fail_pairs[picks]

    columns = {}
    for spec in schema.feature_columns:
        if spec.name == "GEN":
            columns[spec.name] = _exact_count_binary(rng, n, _P_MALE).astype(float)
            continue
        if spec.name in pair_cols:
            columns[spec.name] = sat_6m[:, pair_cols.index(spec.name)]
            continue
        lo, hi = spec.valid_range if spec.valid_range else (0.0, 1.0)
        span = hi - lo
        carries_signal = signal > 0 and spec.role in _SIGNAL_ROLES
        shifted = (
            rng.random(n) < signal if carries_signal else np.zeros(n, dtype=bool)
        )
        if spec.kind == KIND_ORDINAL:
            base = rng.integers(int(lo), int(hi) + 1, size=n).astype(float)
            if carries_signal:
                mid = int((lo + hi) // 2)
                low_draw = rng.integers(int(lo), mid + 1, size=n).astype(float)
                high_draw = rng.integers(mid + 1, int(hi) + 1, size=n).astype(float)
                cond = np.where(success, low_draw, high_draw)
                base = np.where(shifted, cond, base)
            columns[spec.name] = base
        elif spec.kind == KIND_BINARY:
            columns[spec.name] = rng.integers(0, 2, size=n).astype(float)
        elif spec.role == "analytical":
            columns[spec.name] = rng.uniform(lo, hi, size=n)
        else:
            center = (lo + hi) / 2.0
            sd = span / 6.0
            centers = np.full(n, center)
            if carries_signal:
                # Success shifts toward the clinically better (lower) end.
                delta = _SHIFT_FRACTION * span
                centers = np.where(
                    shifted, np.where(success, center - delta, center + delta), center
                )
            columns[spec.name] = _truncated_normal(rng, centers, sd, lo, hi, n)

    rows = np.column_stack([columns[name] for name in schema.feature_names])
    for j, spec in enumerate(schema.feature_columns):
        if spec.kind == KIND_CONTINUOUS:
            rows[:, j] = np.round(rows[:, j], _DECIMALS.get(spec.name, 4))
            if spec.valid_range:
                rows[:, j] = np.clip(rows[:, j], *spec.valid_range)
    return Dataset(schema, rows, labels)
