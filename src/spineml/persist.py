"""Model persistence (versioned JSON) and single-record inference.

A model file holds one `experiment.FittedCell`: the fitted classifier, the
train-fitted preprocessing (ordinal code maps, scaler statistics, kept
feature indices, scaling mode) and training metadata. `load_model` returns
a `FittedCell` again, so loading a file reproduces the in-memory model's
predictions exactly, and `predict_single` takes a cell just trained as
well as a loaded one. The classifier is written and read by its family's
entry in `experiment.FAMILIES`. A record takes the path the cell's test
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
import math
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
from .schema import LABEL_NAMES, read_json, typed

MODEL_FORMAT_VERSION = 1


def save_model(cell: CellResult, fitted: FittedCell, path) -> None:
    """Write one versioned model file for a successfully evaluated cell."""
    if cell.error is not None:
        raise ValueError("cannot persist a failed cell")
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "model_id": fitted.model_id,
        "group_id": fitted.group_id,
        "family": fitted.family,
        "features": fitted.feature_meta,
        "preprocessing": {
            "ordinal_codes": fitted.ordinal_codes,
            "scaling_mode": fitted.scaling_mode,
            "scaler": {
                "columns": list(fitted.scaler_columns),
                "mean": fitted.scaler_mean.tolist(),
                "std": fitted.scaler_std.tolist(),
                "min": fitted.scaler_min.tolist(),
                "max": fitted.scaler_max.tolist(),
                "constant": [bool(b) for b in fitted.scaler_constant],
            },
            "kept": [int(i) for i in fitted.kept],
        },
        "classifier": FAMILIES[fitted.family].to_dict(fitted.classifier),
        "metadata": {
            "seed": fitted.seed,
            "config_hash": fitted.config_hash,
            "hyperparameters": fitted.hyperparameters,
            "accuracy": cell.accuracy,
            "f1": cell.f1,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
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
        prep = raw["preprocessing"]
        scaler = prep["scaler"]
        meta = raw["metadata"]
        if prep["scaling_mode"] not in SCALING_MODES:
            raise ValueError(f"unknown scaling_mode: {prep['scaling_mode']!r}")
        kept = typed(prep["kept"], int, "kept", array=True)
        if kept.ndim != 1 or (np.diff(kept) <= 0).any() or not ((0 <= kept) & (kept < len(raw["features"]))).all():
            raise ValueError(f"kept feature indices {kept.tolist()} are not increasing within "
                             f"[0, {len(raw['features'])})")
        cell = FittedCell(
            model_id=typed(raw["model_id"], str, "model_id"),
            group_id=typed(raw["group_id"], str, "group_id"),
            family=raw["family"],
            feature_meta=raw["features"],
            ordinal_codes={k: typed(v, float, f"codes of {k}", array=True).tolist()
                           for k, v in prep["ordinal_codes"].items()},
            scaler_columns=tuple(typed(scaler["columns"], str, "scaler columns", array=True).tolist()),
            **{f"scaler_{key}": typed(scaler[key], float, f"scaler {key}", array=True)
               for key in ("mean", "std", "min", "max")},
            scaler_constant=typed(scaler["constant"], bool, "scaler constant", array=True),
            scaling_mode=prep["scaling_mode"],
            kept=kept,
            classifier=FAMILIES[raw["family"]].from_dict(raw["classifier"]),
            hyperparameters=meta["hyperparameters"],
            seed=typed(meta["seed"], int, "seed"),
            config_hash=typed(meta["config_hash"], str, "config_hash"),
        )
        for f in cell.feature_meta:
            if not (isinstance(f, dict) and isinstance(f.get("name"), str)
                    and all(isinstance(f.get(b), (Real, type(None))) for b in ("min", "max"))):
                raise ValueError(f"feature {f!r} lacks a string name or numeric bounds")
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
    values = []
    for meta in pm.feature_meta:
        name = meta["name"]
        if name not in record:
            raise MissingFeatureError(name)
        try:
            value = float(record[name])
        except (TypeError, ValueError, OverflowError):
            raise OutOfSchemaValueError(
                f"feature {name} is not numeric: {record[name]!r}"
            ) from None
        if not math.isfinite(value):
            raise OutOfSchemaValueError(f"feature {name} is not finite")
        lo, hi = meta.get("min"), meta.get("max")
        if lo is not None and hi is not None and not lo <= value <= hi:
            raise OutOfSchemaValueError(
                f"feature {name}={value} outside valid range [{lo}, {hi}]"
            )
        values.append(value)

    raw = np.array([values])
    encoded, scaled = pm.preprocess(raw)

    def trace() -> list:
        r, e, s = raw[0].tolist(), encoded[0].tolist(), scaled[0].tolist()
        return [
            {"name": pm.feature_meta[j]["name"], "raw": r[j], "encoded": e[j], "scaled": s[j]}
            for j in pm.kept.tolist()
        ]

    return scaled[0, pm.kept], trace


def predict_single(pm: FittedCell, record: dict, trace: bool = False) -> dict:
    """Apply a fitted cell's preprocessing and classifier to one record."""
    x, steps = preprocess_record(pm, record)
    label, score = FAMILIES[pm.family].predict_one(pm.classifier, x)
    out = {"label": LABEL_NAMES[label], "score": float(score)}
    if trace:
        out["trace"] = steps()
    return out
