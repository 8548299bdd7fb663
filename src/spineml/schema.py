"""Column schema for the spine-surgery outcome dataset and the built-in predictor groups.

The default schema covers the 24 columns collected per patient: socioeconomic
status, psychometric scores (MSPQ, Zung, DRAM), pre-surgical clinical
measurements, preoperative blood panel, six-month postoperative outcomes,
the four satisfaction answers, and the binary SUCCESS outcome (1 = success:
both six-month satisfaction answers ≤ 1).

Postoperative (M6_*) and satisfaction (SAT_*) columns are banned from every
predictor group: they encode the outcome and would leak it.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MissingColumnError, UnknownGroupError

KIND_CONTINUOUS = "continuous"
KIND_ORDINAL = "ordinal"
KIND_BINARY = "binary"
KINDS = (KIND_CONTINUOUS, KIND_ORDINAL, KIND_BINARY)

ROLES = (
    "socioeconomic",
    "psychometric",
    "analytical",
    "presurgical",
    "postoperative",
    "satisfaction",
    "outcome",
)

OUTCOME_COLUMN = "SUCCESS"
LABEL_NAMES = {0: "no-success", 1: "success"}

# Column-name prefixes that identify outcome-leaking measurements.
LEAKAGE_PREFIXES = ("M6_", "SAT_")


@dataclass(frozen=True)
class ColumnSpec:
    """One dataset column: name, value kind, clinical role, optional inclusive bounds."""

    name: str
    kind: str
    role: str
    valid_range: tuple[float, float] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"column name must be a string: {self.name!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown column kind: {self.kind}")
        if self.role not in ROLES:
            raise ValueError(f"unknown column role: {self.role}")
        if self.valid_range is not None:
            lo, hi = self.valid_range
            if lo > hi:
                raise ValueError(f"invalid range for {self.name}: [{lo}, {hi}]")


def column_limits(columns) -> list:
    """Each column's terms of `first_misfit`'s rule, from its kind and
    inclusive range or None: its bounds (any finite value without a range)
    and whether it is continuous."""
    return [(*(valid_range or (-sys.float_info.max, sys.float_info.max)), kind == KIND_CONTINUOUS)
            for kind, valid_range in columns]


def first_misfit(values, limits) -> int | None:
    """The index of the first raw value its column (`column_limits`) cannot
    hold: not finite, out of range, or not whole in an ordinal or binary
    column; None if all fit. CSV rows and `predict` records share it."""
    for i, (value, (lo, hi, continuous)) in enumerate(zip(values, limits)):
        if not (lo <= value <= hi and (continuous or value.is_integer())):  # NaN and ±inf fall outside
            return i
    return None


@dataclass(frozen=True)
class Schema:
    """Ordered column list with exactly one outcome column and unique names."""

    columns: tuple[ColumnSpec, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        outcomes = [c for c in self.columns if c.role == "outcome"]
        if len(outcomes) != 1:
            raise ValueError("schema must contain exactly one outcome column")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def outcome(self) -> ColumnSpec:
        return next(c for c in self.columns if c.role == "outcome")

    @property
    def feature_columns(self) -> tuple[ColumnSpec, ...]:
        return tuple(c for c in self.columns if c.role != "outcome")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.feature_columns)

    def feature_index(self, name: str) -> int:
        for i, c in enumerate(self.feature_columns):
            if c.name == name:
                return i
        raise MissingColumnError(name)

    def subset(self, feature_names) -> "Schema":
        """Schema restricted to the given feature columns (schema order) plus the outcome."""
        wanted, have = set(feature_names), set(self.feature_names)
        missing = [name for name in feature_names if name not in have]
        if missing:  # the first in the order asked
            raise MissingColumnError(missing[0])
        cols = tuple(
            c for c in self.columns if c.name in wanted or c.role == "outcome"
        )
        return Schema(cols)


def default_schema() -> Schema:
    """The 24-column patient schema.

    Ranges for AGE/BMI/MSPQ/ZUNG/LEVELS are the instruments' real scales
    (generator defaults); the blood-panel ranges are the reference intervals
    the labs report.
    """
    c = ColumnSpec
    return Schema(
        (
            c("GEN", KIND_BINARY, "socioeconomic", (0, 1)),
            c("AGE", KIND_CONTINUOUS, "socioeconomic", (18, 90)),
            c("BMI", KIND_CONTINUOUS, "presurgical", (15, 45)),
            c("LEVELS", KIND_CONTINUOUS, "presurgical", (1, 5)),
            c("EMP_ST", KIND_ORDINAL, "socioeconomic", (1, 13)),
            c("MSPQ", KIND_CONTINUOUS, "psychometric", (0, 39)),
            c("ZUNG", KIND_CONTINUOUS, "psychometric", (20, 80)),
            c("DRAM", KIND_ORDINAL, "psychometric", (0, 3)),
            c("PRE_LUMBAR_EVA", KIND_CONTINUOUS, "presurgical", (0, 10)),
            c("PRE_LEG_EVA", KIND_CONTINUOUS, "presurgical", (0, 10)),
            c("M6_LUMBAR_EVA", KIND_CONTINUOUS, "postoperative", (0, 10)),
            c("M6_LEG_EVA", KIND_CONTINUOUS, "postoperative", (0, 10)),
            c("PRE_ODI", KIND_CONTINUOUS, "presurgical", (0, 100)),
            c("M6_POST_ODI", KIND_CONTINUOUS, "postoperative", (0, 100)),
            c("SAT_SURGICAL_PROC", KIND_ORDINAL, "satisfaction", (0, 4)),
            c("SAT_PAIN_PRE", KIND_ORDINAL, "satisfaction", (0, 4)),
            c("SAT_SURGICAL_6M", KIND_ORDINAL, "satisfaction", (0, 4)),
            c("SAT_PAIN_6M", KIND_ORDINAL, "satisfaction", (0, 4)),
            c("SUCCESS", KIND_BINARY, "outcome", (0, 1)),
            c("GLU", KIND_CONTINUOUS, "analytical", (70, 110)),
            c("UREA", KIND_CONTINUOUS, "analytical", (16, 49)),
            c("URIC_ACID", KIND_CONTINUOUS, "analytical", (2.4, 5.7)),
            c("CREAT", KIND_CONTINUOUS, "analytical", (0.5, 0.9)),
            c("CHOL", KIND_CONTINUOUS, "analytical", (200, 250)),
        )
    )


@dataclass(frozen=True)
class VariableGroup:
    """A named predictor subset; construction rejects outcome-leaking columns."""

    id: str
    name: str
    column_names: tuple[str, ...]

    def __post_init__(self):
        if not self.column_names:
            raise ValueError(f"group {self.id} has no columns")
        leaky = [
            n for n in self.column_names if n.startswith(LEAKAGE_PREFIXES)
        ]
        if leaky:
            raise ValueError(
                f"group {self.id} selects outcome-leaking columns: {leaky}"
            )
        if OUTCOME_COLUMN in self.column_names:
            raise ValueError(f"group {self.id} selects the outcome column")


_PRESURGICAL = ("BMI", "LEVELS", "PRE_LUMBAR_EVA", "PRE_LEG_EVA", "PRE_ODI")
_SOCIOECONOMIC = ("GEN", "AGE", "EMP_ST")
_PSYCHOMETRIC = ("MSPQ", "ZUNG", "DRAM")
_ANALYTICAL = ("GLU", "UREA", "URIC_ACID", "CREAT", "CHOL")


def builtin_groups() -> dict[str, VariableGroup]:
    """The seven built-in predictor groups, keyed by roman-numeral id."""
    return {
        "I": VariableGroup("I", "Pre-surgical", _PRESURGICAL),
        "II": VariableGroup("II", "Socioeconomic", _SOCIOECONOMIC),
        "III": VariableGroup("III", "Psychometric", _PSYCHOMETRIC),
        "IV": VariableGroup("IV", "Analytical", _ANALYTICAL),
        "V": VariableGroup(
            "V", "Pre-surgical + Analytical", _PRESURGICAL + _ANALYTICAL
        ),
        "VI": VariableGroup(
            "VI", "Socioeconomic + Psychometric", _SOCIOECONOMIC + _PSYCHOMETRIC
        ),
        "VII": VariableGroup(
            "VII",
            "All except postoperative",
            _PRESURGICAL + _SOCIOECONOMIC + _PSYCHOMETRIC + _ANALYTICAL,
        ),
    }


GROUP_IDS = tuple(builtin_groups())


def group_by_id(group_id: str) -> VariableGroup:
    groups = builtin_groups()
    if group_id not in groups:
        raise UnknownGroupError(group_id)
    return groups[group_id]


def read_json(path, error: type[Exception], what: str):
    """The JSON value in the file at `path`. A file that cannot be read, or
    is not UTF-8 JSON, raises `error` with a message naming `what`. A
    leading byte-order mark is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"{what} is not valid JSON: {exc}") from exc


# The JSON types a value of each kind may take: a bool is no integer or
# number, and a number must also be finite.
_JSON_TYPES = {int: {int}, float: {int, float}, str: {str}, bool: {bool}}
_KIND_NAMES = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
               str: ("a string", "strings"), bool: ("true or false", "booleans")}


def typed(value, kind, name: str, array: bool = False):
    """A value read from JSON as `kind` (int, float, str or bool) or, with
    `array`, nested lists of such values as a numpy array of `kind`. Any
    other value raises a ValueError naming `name`."""
    # A finite number takes no numpy; one past float range raises OverflowError here, as in astype.
    if kind is float and not array and type(value) in _JSON_TYPES[float] and math.isfinite(value):
        return float(value)
    cells = np.array(value, dtype=object)  # a scalar is a 0-d array, and an array is not
    ok = (cells.ndim > 0) == array and set(map(type, cells.flat)) <= _JSON_TYPES[kind]
    out = cells.astype(kind) if ok else None
    if not ok or kind is float and not np.isfinite(out).all():
        what = f"an array of {_KIND_NAMES[kind][1]}" if array else _KIND_NAMES[kind][0]
        raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")
    return out if array else out.item()


def load_schema_json(path) -> Schema:
    """Load a schema override file: {"columns": [{"name","kind","min","max","role"}, ...]}.

    An unreadable, malformed or invalid file raises ConfigError.
    """
    raw = read_json(path, ConfigError, f"schema {path}")
    try:
        cols = []
        for entry in raw["columns"]:
            rng = None
            if entry.get("min") is not None or entry.get("max") is not None:
                rng = tuple(typed(entry[key], float, f"{key} of column {entry['name']!r}") for key in ("min", "max"))
            cols.append(
                ColumnSpec(entry["name"], entry["kind"], entry["role"], rng)
            )
        return Schema(tuple(cols))
    except KeyError as exc:
        raise ConfigError(f"schema {path}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"schema {path}: {exc}") from exc

