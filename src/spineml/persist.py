"""Model persistence (versioned JSON) and single-record inference.

A model file holds one `experiment.FittedCell`: the fitted classifier, the
train-fitted preprocessing (ordinal code maps, scaler statistics, kept
feature indices, scaling mode) and training metadata. `_LAYOUT` gives each
field but the classifier its one place in the file and its reader:
`save_model` writes by it, and `load_model` reads a `FittedCell` back by
it, so loading a file reproduces the in-memory model's predictions exactly,
and `predict_single` takes a cell just trained as well as a loaded one. The
classifier is written and read by its family's entry in
`experiment.FAMILIES`. A record's values are read by `schema.typed`'s JSON
number rule, as every JSON input is. A record takes the path the cell's test
partition took: `FittedCell.preprocess`, the kept columns, then the
family's predictor. A malformed file fails at load: each part checks its
content where it is built (its family's model class or reader, or
`preprocess.ScalerState`), and `load_model` the rules that span parts (kept
indices against the features and the classifier, bounds, code lists).

Scores reported by predict_single: GaussianNB posterior, KNN vote
fraction, decision-tree leaf fraction, and for ComplementNB a softmax over
the negated complement-match scores (lower score wins).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from numbers import Real

import numpy as np

from .errors import (
    CorruptFileError,
    KOutOfRangeError,
    MissingFeatureError,
    OutOfSchemaValueError,
    VersionMismatchError,
    WidthMismatchError,
)
from .experiment import FAMILIES, CellResult, FittedCell
from .preprocess import SCALING_MODES
from .schema import KINDS, LABEL_NAMES, first_misfit, read_json, typed

MODEL_FORMAT_VERSION = 1


# Each FittedCell field that a model file holds, but the classifier (its
# family's entry writes and reads that): its place in the file, and the
# reader that `load_model` passes the stored value to (None: kept as read).
_LAYOUT = {
    "model_id": ("model_id", lambda v: typed(v, str, "model_id")),
    "group_id": ("group_id", lambda v: typed(v, str, "group_id")),
    "family": ("family", None),
    "feature_meta": ("features", None),
    "ordinal_codes": ("preprocessing/ordinal_codes",
                      lambda v: {k: typed(c, float, f"codes of {k}", array=True).tolist() for k, c in v.items()}),
    "scaler_columns": ("preprocessing/scaler/columns",
                       lambda v: tuple(typed(v, str, "scaler columns", array=True).tolist())),
    "scaler_mean": ("preprocessing/scaler/mean", lambda v: typed(v, float, "scaler mean", array=True)),
    "scaler_std": ("preprocessing/scaler/std", lambda v: typed(v, float, "scaler std", array=True)),
    "scaler_min": ("preprocessing/scaler/min", lambda v: typed(v, float, "scaler min", array=True)),
    "scaler_max": ("preprocessing/scaler/max", lambda v: typed(v, float, "scaler max", array=True)),
    "scaler_constant": ("preprocessing/scaler/constant", lambda v: typed(v, bool, "scaler constant", array=True)),
    "scaling_mode": ("preprocessing/scaling_mode", None),
    "kept": ("preprocessing/kept", lambda v: typed(v, int, "kept", array=True)),
    "hyperparameters": ("metadata/hyperparameters", None),
    "seed": ("metadata/seed", lambda v: typed(v, int, "seed")),
    "config_hash": ("metadata/config_hash", lambda v: typed(v, str, "config_hash")),
}


def save_model(cell: CellResult, fitted: FittedCell, path) -> None:
    """Write one versioned model file for a successfully evaluated cell."""
    if cell.error is not None:
        raise ValueError("cannot persist a failed cell")
    payload = {"format_version": MODEL_FORMAT_VERSION, "metadata": {"accuracy": cell.accuracy, "f1": cell.f1},
               "classifier": FAMILIES[fitted.family].to_dict(fitted.classifier)}
    for field, (place, _) in _LAYOUT.items():
        *parents, key = place.split("/")
        node = payload
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = getattr(fitted, field)
    with open(path, "w", encoding="utf-8") as fh:  # arrays and numpy scalars go as their lists and numbers
        json.dump(payload, fh, sort_keys=True, indent=2, default=lambda v: v.tolist())
        fh.write("\n")


def load_model(path) -> FittedCell:
    raw = read_json(path, CorruptFileError, "model file")
    if not isinstance(raw, dict) or "format_version" not in raw:
        raise CorruptFileError("model file lacks a format_version field")
    if raw["format_version"] != MODEL_FORMAT_VERSION:
        raise VersionMismatchError(
            f"unsupported model format version: {raw['format_version']}"
        )
    try:
        fields = {}
        for field, (place, read) in _LAYOUT.items():
            value = raw
            for key in place.split("/"):
                value = value[key]
            fields[field] = value if read is None else read(value)
        cell = FittedCell(**fields, classifier=FAMILIES[fields["family"]].from_dict(raw["classifier"]))
        if cell.scaling_mode not in SCALING_MODES:
            raise ValueError(f"unknown scaling_mode: {cell.scaling_mode!r}")
        kept, width = cell.kept, len(cell.feature_meta)
        if kept.ndim != 1 or (np.diff(kept) <= 0).any() or not ((0 <= kept) & (kept < width)).all():
            raise ValueError(f"kept feature indices {kept.tolist()} are not increasing within [0, {width})")
        for f in cell.feature_meta:
            if not (isinstance(f, dict) and isinstance(f.get("name"), str) and f.get("kind") in KINDS
                    and all(isinstance(f.get(b), (Real, type(None))) for b in ("min", "max"))):
                raise ValueError(f"feature {f!r} lacks a string name, a known kind or numeric bounds")
        if not all(cell.ordinal_codes.values()):
            raise ValueError("an ordinal column has no codes")
        # the preprocessing plan: its columns must be features, its scaler state valid
        cell._steps
        try:  # the classifier takes a row of the kept columns
            FAMILIES[cell.family].predict_one(cell.classifier, np.zeros(kept.size))
        except WidthMismatchError as exc:
            raise ValueError(f"kept feature indices {kept.tolist()} do not fit the classifier: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, KOutOfRangeError) as exc:
        raise CorruptFileError(f"model file is malformed: {exc}") from exc
    return cell


def preprocess_record(pm: FittedCell, record: dict) -> tuple[np.ndarray, Callable[[], list]]:
    """Validate, encode and scale one named-value record; returns the kept
    feature vector and a function that builds the per-kept-feature trace."""
    names, columns = pm._bounds
    values = []
    try:  # the program's JSON number rule: no bool, no string, finite
        for name in names:
            values.append(typed(record[name], float, "value"))
    except KeyError:
        raise MissingFeatureError(name) from None
    except (ValueError, OverflowError) as exc:
        raise OutOfSchemaValueError(f"feature {name}: {exc}") from None
    if (bad := first_misfit(values, pm._limits)) is not None:  # the rule of a CSV row's values
        (kind, valid), name = columns[bad], names[bad]
        raise OutOfSchemaValueError(f"feature {name}={values[bad]} is not a value of its {kind} column"
                                    + (f" in [{valid[0]}, {valid[1]}]" if valid else ""))
    raw = np.array([values])

    encoded, scaled = pm.preprocess(raw)

    def trace() -> list:
        r, e, s = raw[0].tolist(), encoded[0].tolist(), scaled[0].tolist()
        return [
            {"name": names[j], "raw": r[j], "encoded": e[j], "scaled": s[j]}
            for j in pm.kept.tolist()
        ]

    return scaled[0].take(pm.kept), trace


def predict_single(pm: FittedCell, record: dict, trace: bool = False) -> dict:
    """Apply a fitted cell's preprocessing and classifier to one record."""
    x, steps = preprocess_record(pm, record)
    label, score = FAMILIES[pm.family].predict_one(pm.classifier, x)
    out = {"label": LABEL_NAMES[label], "score": float(score)}
    if trace:
        out["trace"] = steps()
    return out
