"""End-to-end experiment runner: the model-by-group matrix.

Pipeline per cell: select group columns → rank-encode ordinals (fitted on
train) → scale (standardize for GNB/KNN/DT, min-max for ComplementNB,
fitted on train) → optional feature selection (fitted on train) → optional
grid search with stratified CV on train (resampling only inside the CV
training folds) → optional oversampling of the full training partition →
final fit → evaluate on the untouched test partition. The test partition
is preprocessed and classified by the cell's `FittedCell`, as a record
given to `persist.predict_single` is.

One stratified split is shared by every cell of a run (configurable to
per-cell splits), and each cell derives its random streams from
(master seed, group index, model index), so results are identical for any
worker count. A job runs one group's cells, or one cell where the run has
fewer groups than workers. With one worker or one job the jobs run in
process, one by one; otherwise they go to a pool of worker processes.

`FAMILIES` holds every per-family operation of the four classifier
families. Training builds a `FittedCell`, which scores the test partition
and which `persist` saves, loads back and predicts single records with.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import cached_property, partial
from itertools import chain
from numbers import Integral, Real
from typing import get_type_hints

import numpy as np

from . import __version__
from .dataset import Dataset, load_csv, select_group
from .errors import (
    ClassSmallerThanFoldsError,
    ConfigError,
    DataSourceError,
    PipelineError,
    UnknownGroupError,
)
from .metrics import ConfusionMatrix, accuracy, confusion, f1, macro_f1
from .model_selection import (
    HYPERPARAMETERS,
    SCORINGS,
    ParamGrid,
    SplitIndices,
    default_grid,
    grid_search,
    select_features,
    stratified_kfold,
    stratified_shuffle_split,
)
from .naive_bayes import (
    ComplementNBModel,
    GaussianNBModel,
    cnb_fit,
    cnb_predict_many,
    gnb_fit,
    gnb_predict_many,
)
from .neighbors import KNNModel, TableStore, knn_fit, knn_predict, knn_predict_many
from .preprocess import (
    ScalerState,
    apply_minmax,
    apply_ordinal_encoder,
    apply_standardizer,
    code_table,
    fit_ordinal_encoder,
    fit_standardizer,
    rank_encode,
    scale,
    scaler_plan,
)
from .resampling import ResamplePlan, oversample
from .schema import (
    GROUP_IDS,
    LABEL_NAMES,
    VariableGroup,
    builtin_groups,
    column_limits,
    load_schema_json,
    typed,
)
from .synthetic import SYNTHETIC_DEFAULTS, check_synthetic, generate_synthetic
from .tree import dt_fit, dt_from_dict, dt_predict, dt_predict_many, dt_to_dict, extratrees_fit_batch

@dataclass(frozen=True)
class ModelSpec:
    """One entry of the model nomenclature: family, tuning, resampling."""

    id: str
    family: str  # gnb | cnb | knn | dt
    uses_grid: bool = False
    resample: str | None = None


# In the paper's order, which is also the order of each cell's seed index.
MODEL_SPECS = {spec.id: spec for spec in (
    ModelSpec("GaussianNB", "gnb"),
    ModelSpec("ComplementNB", "cnb"),
    ModelSpec("KNN", "knn"),
    ModelSpec("KNN_opt", "knn", uses_grid=True),
    ModelSpec("KNN_RO", "knn", uses_grid=True, resample="random_over"),
    ModelSpec("KNN_SMOTE", "knn", uses_grid=True, resample="smote"),
    ModelSpec("DT", "dt"),
    ModelSpec("DT_opt", "dt", uses_grid=True),
)}
MODEL_IDS = tuple(MODEL_SPECS)


def _fields_to_dict(model) -> dict:
    """A model dataclass's fields (not a `cached_property`) as a JSON-ready dict."""
    return {f.name: v.tolist() if isinstance(v := getattr(model, f.name), np.ndarray) else v for f in fields(model)}


def _fields_from_dict(cls, raw: dict, dims: dict):
    """Inverse of `_fields_to_dict`: each field read as its annotated type;
    the label arrays (`classes`, `labels`) must hold integers 0/1, other
    arrays finite numbers. `dims` names the axes of each array, e.g. "cd" for
    (classes, features): an axis name stands for one size ≥ 1 throughout."""
    def convert(name, kind):
        if kind is not np.ndarray:
            return typed(raw[name], kind, name)
        if name not in ("classes", "labels"):
            return typed(raw[name], float, name, array=True)
        labels = typed(raw[name], int, name, array=True)
        if not np.isin(labels, (0, 1)).all():
            raise ValueError(f"{name} must be 0 or 1, got {np.unique(labels).tolist()}")
        return labels

    values = {name: convert(name, kind) for name, kind in get_type_hints(cls).items()}
    sizes = {}
    for name, axes in dims.items():
        shape = values[name].shape
        if len(shape) != len(axes) or any(sizes.setdefault(a, n) != n or n < 1
                                          for a, n in zip(axes, shape)):
            raise ValueError(f"{name} has shape {shape}, not ({', '.join(axes)})")
    return cls(**values)


def _row_zero(batch, score) -> tuple[int, float]:
    """Row 0's label and `score` of its per-class values, from a naive-Bayes
    batch predictor's (labels, values)."""
    labels, values = batch
    return int(labels[0]), float(score(values[0]))


def _cnb_share(scores) -> float:
    """The winner's share of a softmax over the negated scores (lower score
    wins, so the winner's term is exp(0) = 1)."""
    return 1.0 / np.exp(-(scores - scores.min())).sum()


@dataclass(frozen=True)
class Family:
    """Everything that differs between classifier families.

    Each callable entry calls its function through this module's name for
    it, so rebinding that name (as a tracer does) reaches every caller.

    The naive-Bayes families have one predictor each: `predict_one` is row 0
    of a one-row batch call, scored by the winner's GaussianNB posterior or
    ComplementNB softmax share. k-NN and CART keep a one-row function, for
    reasons measured per call on group VII (n = 244, 2 vCPU, CPU time):
    - CART: the one-row walk `dt_predict` takes 5.5–8.1 µs; `dt_predict_many`
      on one row takes 68–69 µs.
    - k-NN: `knn_predict` shares `_vote_one` with the batch vote and takes
      the Euclidean filter of one record: 32–35 µs over 183 points and
      33–38 µs over n = 1 000's 750 points, where `knn_predict_many` on one
      row takes 54–56 µs and 79–104 µs.
    """

    fit: Callable  # (train, params) -> model
    predict_many: Callable  # (model, X) -> labels
    predict_one: Callable  # (model, x) -> (label, score)
    from_dict: Callable  # dict -> model
    to_dict: Callable = _fields_to_dict  # model -> JSON-ready dict
    scaling: str = "standardize"  # or "minmax" (ComplementNB needs x ≥ 0)


FAMILIES = {
    "gnb": Family(
        fit=lambda train, params: gnb_fit(train),
        predict_many=lambda model, X: gnb_predict_many(model, X)[0],
        predict_one=lambda model, x: _row_zero(gnb_predict_many(model, x[None, :]), np.ndarray.max),
        from_dict=lambda raw: _fields_from_dict(
            GaussianNBModel, raw, {"classes": "c", "priors": "c", "means": "cd", "variances": "cd"}),
    ),
    "cnb": Family(
        fit=lambda train, params: cnb_fit(train),
        predict_many=lambda model, X: cnb_predict_many(model, X)[0],
        predict_one=lambda model, x: _row_zero(cnb_predict_many(model, x[None, :]), _cnb_share),
        from_dict=lambda raw: _fields_from_dict(
            ComplementNBModel, raw, {"classes": "c", "weights": "cd"}),
        scaling="minmax",
    ),
    "knn": Family(
        fit=lambda train, params: knn_fit(train, **params),
        predict_many=lambda model, X: knn_predict_many(model, X),
        predict_one=lambda model, x: knn_predict(model, x),
        from_dict=lambda raw: _fields_from_dict(KNNModel, raw, {"points": "nd", "labels": "n"}),
    ),
    "dt": Family(
        fit=lambda train, params: dt_fit(train, **params),
        predict_many=lambda model, X: dt_predict_many(model, X),
        predict_one=lambda model, x: dt_predict(model, x),
        to_dict=lambda model: dt_to_dict(model),
        from_dict=lambda raw: dt_from_dict(raw),
    ),
}

# The synthetic keys, all numeric.
_SYNTHETIC_KEYS = {"n": Integral, "seed": Integral, "signal": Real, "p_success": Real}
_TYPE_NAMES = {Integral: "an integer", Real: "a number", str: "a string",
               bool: "true or false", dict: "an object", list: "a list"}


def _check_type(name: str, value, kind) -> None:
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    csv_path: str | None = None
    schema_path: str | None = None
    synthetic: dict | None = None  # {"n", "seed", "signal", "p_success"}
    groups: tuple[str, ...] = GROUP_IDS
    models: tuple[str, ...] = MODEL_IDS
    test_fraction: float = 0.25
    n_folds: int = 8
    seed: int = 42
    keep_fraction: float = 1.0
    scoring: str = "f1"
    per_cell_split: bool = False
    grids: dict = field(default_factory=dict)
    workers: int = 1
    out_dir: str = "results"
    save_models: bool = False

    def __post_init__(self):
        for name, kind in SETTING_TYPES.items():
            _check_type(name, getattr(self, name), kind)
        for name in ("csv_path", "schema_path"):
            if getattr(self, name) is not None:
                _check_type(name, getattr(self, name), str)
        if not self.groups or not self.models:
            raise ConfigError("groups and models must be non-empty")
        for g in self.groups:
            if g not in GROUP_IDS:
                raise UnknownGroupError(g)
        for m in self.models:
            if m not in MODEL_IDS:
                raise ConfigError(f"unknown model: {m}")
        # Kept in run order, once each, so that every order of a list is one
        # experiment with one hash.
        object.__setattr__(self, "groups", tuple(g for g in GROUP_IDS if g in self.groups))
        object.__setattr__(self, "models", tuple(m for m in MODEL_IDS if m in self.models))
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1): {self.test_fraction}")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError(f"keep_fraction must be in (0, 1]: {self.keep_fraction}")
        if self.n_folds < 2:
            raise ConfigError(f"n_folds must be ≥ 2: {self.n_folds}")
        if self.scoring not in SCORINGS:
            raise ConfigError(f"unknown scoring: {self.scoring}")
        if self.workers < 1:
            raise ConfigError(f"workers must be ≥ 1: {self.workers}")
        if (self.csv_path is None) == (self.synthetic is None):
            raise ConfigError("configure exactly one data source (csv or synthetic)")
        if self.synthetic is not None:
            unknown = set(self.synthetic) - set(_SYNTHETIC_KEYS)
            if unknown:
                raise ConfigError(f"unknown synthetic keys: {sorted(unknown)}")
            for key, value in self.synthetic.items():
                _check_type(f"synthetic {key}", value, _SYNTHETIC_KEYS[key])
            if self.synthetic.get("seed", 0) < 0:
                raise ConfigError(f"synthetic seed must be ≥ 0: {self.synthetic['seed']}")
        if self.seed < 0:
            raise ConfigError(f"seed must be ≥ 0: {self.seed}")
        for fam, grid in self.grids.items():  # keyed by a tuned family's name in upper case
            if fam not in map(str.upper, HYPERPARAMETERS):
                raise ConfigError(f"unknown grid family: {fam}")
            rules = HYPERPARAMETERS[fam.lower()]
            for name, values in grid.items():
                if name not in rules:
                    raise ConfigError(f"unknown grid parameter for {fam}: {name}")
                if not values:
                    raise ConfigError(f"grid {fam} {name} must not be empty")
                for value in values:
                    if not rules[name][2](value):
                        raise ConfigError(f"grid {fam} {name}: invalid value {value!r}")
        if self.synthetic is not None:
            syn = self.canonical_dict()["data"]["synthetic"]
            check_synthetic(syn["n"], syn["signal"], syn["p_success"])
        for name in ("csv_path", "schema_path", "out_dir"):
            if getattr(self, name) == "":
                raise ConfigError(f"{name} must not be empty")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_type("config", raw, dict)
        unknown = set(raw) - {"data", "schema", "groups", "models", "grids", *SETTING_TYPES}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {key: raw[key] for key in SETTING_TYPES if key in raw}
        data = raw.get("data")
        if data is not None:
            if not isinstance(data, dict) or set(data) - {"csv", "synthetic"} or len(data) != 1:
                raise ConfigError("data must hold exactly one of 'csv' or 'synthetic'")
            if "csv" in data:
                kwargs["csv_path"] = data["csv"]
            else:
                _check_type("data.synthetic", data["synthetic"], dict)
                kwargs["synthetic"] = dict(data["synthetic"])
        else:
            kwargs["synthetic"] = {}
        if "schema" in raw:
            kwargs["schema_path"] = raw["schema"]
        for key in ("groups", "models"):
            if key in raw:
                _check_type(key, raw[key], list)
                kwargs[key] = tuple(raw[key])
        if "grids" in raw:
            _check_type("grids", raw["grids"], dict)
            for fam, grid in raw["grids"].items():
                _check_type(f"grid {fam}", grid, dict)
                for name, values in grid.items():
                    _check_type(f"grid {fam} {name}", values, list)
            kwargs["grids"] = {
                fam: {name: tuple(v) for name, v in grid.items()}
                for fam, grid in raw["grids"].items()
            }
        return cls(**kwargs)

    def canonical_dict(self) -> dict:
        """Semantic fields only: excludes the `_RUN_SETTINGS` so the same
        experiment hashes identically wherever and however it runs."""
        if self.csv_path is not None:
            data = {"csv": self.csv_path}
        else:
            data = {"synthetic": {**SYNTHETIC_DEFAULTS, "seed": self.seed, **self.synthetic}}
        return {
            "data": data,
            "schema": self.schema_path,
            "groups": list(self.groups),
            "models": list(self.models),
            **{name: getattr(self, name) for name in SETTING_TYPES if name not in _RUN_SETTINGS},
            "grids": {k: {p: list(v) for p, v in g.items()} for k, g in self.grids.items()},
        }

    def config_hash(self) -> str:
        text = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Each scalar setting of a config file, which is also a `spineml run` flag,
# and the type its value must have (a bool is no number): read from the
# fields of `ExperimentConfig` annotated with a plain scalar type.
_SCALAR_KINDS = {float: Real, int: Integral, str: str, bool: bool}
SETTING_TYPES = {name: _SCALAR_KINDS[hint] for name, hint in get_type_hints(ExperimentConfig).items()
                 if hint in _SCALAR_KINDS}
# The settings that say how a run executes, not what it computes: the
# config hash ignores them.
_RUN_SETTINGS = ("workers", "out_dir", "save_models")


@dataclass
class CellResult:
    group_id: str
    model_id: str
    hyperparameters: dict
    accuracy: float | None = None
    f1: float | None = None
    macro_f1: float | None = None
    confusion: ConfusionMatrix | None = None
    cv_table: list | None = None
    n_test: int = 0
    error: str | None = None


@dataclass
class FittedCell:
    """Everything needed to reproduce a cell's predictions on new records,
    whether just trained or loaded from a model file."""

    model_id: str
    group_id: str
    family: str
    feature_meta: list  # [{"name","kind","min","max"}] in group order
    ordinal_codes: dict  # column -> sorted trained codes (list)
    scaler_columns: tuple
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    scaler_min: np.ndarray
    scaler_max: np.ndarray
    scaler_constant: np.ndarray
    scaling_mode: str  # standardize | minmax
    kept: np.ndarray
    classifier: object
    hyperparameters: dict
    seed: int
    config_hash: str

    @cached_property
    def _steps(self) -> tuple:
        """Row positions of the encoded columns, the code table and the scaler's
        plan over every column: worked out once per cell, not per record."""
        names = [f["name"] for f in self.feature_meta]
        scaler = ScalerState(tuple(self.scaler_columns), self.scaler_mean, self.scaler_std,
                             self.scaler_min, self.scaler_max, self.scaler_constant)
        return (
            np.array([names.index(c) for c in self.ordinal_codes], dtype=np.intp),
            code_table(self.ordinal_codes.values()),
            scaler_plan(scaler, self.scaling_mode, [names.index(c) for c in scaler.columns], len(names)),
        )

    @cached_property
    def _bounds(self) -> tuple:
        """The feature names, and each feature's kind and valid range (none
        unless both bounds are given) as `schema.column_limits` reads them."""
        ranges = [(f.get("min"), f.get("max")) for f in self.feature_meta]
        return ([f["name"] for f in self.feature_meta],
                [(f["kind"], None if None in r else r) for f, r in zip(self.feature_meta, ranges)])

    @cached_property
    def _limits(self) -> list:
        """Each feature's terms of `schema.first_misfit`'s rule."""
        return column_limits(self._bounds[1])

    def preprocess(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Encoded, then scaled, copies of raw rows in `feature_meta` order,
        through the same encoder and scaler as training."""
        encoded_idx, table, plan = self._steps
        encoded = rows.copy()
        encoded[:, encoded_idx] = rank_encode(rows.take(encoded_idx, axis=1), table)
        return encoded, scale(encoded, plan)


def _cell_states(master_seed: int, group_id: str, model_id: str) -> np.ndarray:
    seq = np.random.SeedSequence(
        (int(master_seed), GROUP_IDS.index(group_id), MODEL_IDS.index(model_id))
    )
    return seq.generate_state(5)


def _predict_final(family: str, model, X: np.ndarray) -> np.ndarray:
    return FAMILIES[family].predict_many(model, X)


def _encoded_and_scaled(data: Dataset, group: VariableGroup, spec: ModelSpec, split: SplitIndices) -> tuple:
    """A cell's group columns, its fitted encoder and scaler, and its training
    partition rank-encoded, then scaled: min-max scales every column (for
    ComplementNB), standardize only the continuous ones."""
    gdata = select_group(data, group)
    train = gdata.take(split.train_idx)
    encoder = fit_ordinal_encoder(train)
    train = apply_ordinal_encoder(train, encoder)
    minmax = FAMILIES[spec.family].scaling == "minmax"
    scaler = fit_standardizer(train, columns=train.feature_names if minmax else None)
    return gdata, encoder, scaler, (apply_minmax if minmax else apply_standardizer)(train, scaler)


def run_cell_fitted(
    data: Dataset,
    group: VariableGroup,
    spec: ModelSpec,
    config: ExperimentConfig,
    split: SplitIndices,
    tables: TableStore | None = None,
    importances: np.ndarray | None = None,
) -> tuple[CellResult, FittedCell]:
    """Train, tune and score one cell. An untuned cell fits with its
    family's untuned values in `model_selection.HYPERPARAMETERS` (none for
    the naive-Bayes families); a tuned cell searches the family's default
    grid with the config's (already checked) overrides in place. A tuned
    k-NN cell's grid folds and final SMOTE basis read one set of neighbor
    tables of its training partition, taken from `tables` (a store shared
    by the cells of a job) when given. Feature selection (keep_fraction < 1)
    takes its forest's `importances` when its job fitted them, and fits the
    forest itself when not."""
    if np.intersect1d(split.train_idx, split.test_idx).size:
        raise ValueError("train/test index sets overlap")

    states = _cell_states(config.seed, group.id, spec.id)
    gdata, encoder, scaler, train = _encoded_and_scaled(data, group, spec, split)
    family = FAMILIES[spec.family]

    if config.keep_fraction < 1.0:
        # kept is sorted, so it indexes the columns in the subset schema's order.
        kept = select_features(train, config.keep_fraction, seed=int(states[0]), importances=importances)
        train = Dataset(train.schema.subset([train.feature_names[i] for i in kept]),
                        train.rows[:, kept], train.labels)
    else:
        kept = np.arange(train.width)

    tuned_knn = spec.family == "knn" and spec.uses_grid
    knn_tables = (tables or TableStore()).tables(train.rows, train.labels) if tuned_knn else None
    cv_table = None
    if spec.uses_grid:
        folds = stratified_kfold(train.labels, config.n_folds, seed=int(states[1]))
        overrides = config.grids.get(spec.family.upper(), {})
        grid = ParamGrid(spec.family, {**default_grid(spec.family).params, **overrides})
        plan = ResamplePlan(spec.resample) if spec.resample else None
        params, cv_table = grid_search(
            train, grid, folds, resample=plan, scoring=config.scoring, seed=int(states[2]), tables=knn_tables
        )
    else:
        params = {name: untuned for name, (untuned, _, _) in HYPERPARAMETERS.get(spec.family, {}).items()}

    train_fit = train
    if spec.resample:
        plan = ResamplePlan(spec.resample, seed=int(states[3]))
        train_fit = oversample(train_fit, plan, knn_tables)

    fitted = FittedCell(
        model_id=spec.id, group_id=group.id, family=spec.family,
        feature_meta=[{"name": c.name, "kind": c.kind, **dict(zip(("min", "max"), c.valid_range or (None, None)))}
                      for c in gdata.schema.feature_columns],
        ordinal_codes={k: [float(v) for v in arr] for k, arr in encoder.codes.items()},
        scaler_columns=scaler.columns, scaler_mean=scaler.mean, scaler_std=scaler.std, scaler_min=scaler.minimum,
        scaler_max=scaler.maximum, scaler_constant=scaler.constant, scaling_mode=family.scaling,
        kept=np.asarray(kept), classifier=family.fit(train_fit, params), hyperparameters=dict(params),
        seed=config.seed, config_hash=config.config_hash(),
    )
    # The test partition goes from raw rows to labels as a predicted record does.
    _, scaled = fitted.preprocess(gdata.rows[split.test_idx])
    test_labels = gdata.labels[split.test_idx]
    cm = confusion(test_labels, _predict_final(spec.family, fitted.classifier, scaled[:, fitted.kept]))
    return CellResult(group.id, spec.id, dict(params), accuracy=accuracy(cm), f1=f1(cm), macro_f1=macro_f1(cm),
                      confusion=cm, cv_table=cv_table, n_test=test_labels.size), fitted


@dataclass
class ExperimentMatrix:
    groups: tuple[str, ...]
    models: tuple[str, ...]
    cells: dict  # (group_id, model_id) -> CellResult
    group_stats: dict
    model_stats: dict
    provenance: dict


def load_config_data(config: ExperimentConfig) -> Dataset:
    schema = load_schema_json(config.schema_path) if config.schema_path else None
    if config.csv_path is not None:
        try:
            ds, report = load_csv(config.csv_path, schema)
        except (OSError, UnicodeDecodeError) as exc:
            raise DataSourceError(f"cannot read {config.csv_path}: {exc}") from exc
        if report.dropped:
            row, column = report.dropped[0]
            print(f"note: dropped {report.n_dropped} of {report.n_loaded + report.n_dropped} data rows"
                  f" from {config.csv_path} (first: row {row}: bad {column})", file=sys.stderr)
        return ds
    return generate_synthetic(**config.canonical_dict()["data"]["synthetic"], schema=schema)


def _stats(cells: list, spread: bool) -> dict:
    """Mean accuracy and F1 over the cells that ran, and with `spread` also
    their sample standard deviations (0.0 below two cells)."""
    out = {}
    for key, name in (("accuracy", "acc"), ("f1", "f1")):
        values = [getattr(c, key) for c in cells if c.error is None]
        out[f"mean_{name}"] = float(np.mean(values)) if values else None
        if spread:
            out[f"sd_{name}"] = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return out


def _aggregate(cells: dict, groups, models) -> tuple[dict, dict]:
    return ({g: _stats([cells[(g, m)] for m in models], spread=True) for g in groups},
            {m: _stats([cells[(g, m)] for g in groups], spread=False) for m in models})


def _run_cells(cells: list, data: Dataset, config: ExperimentConfig,
               shared_split: SplitIndices) -> list:
    """One job: each cell's (result, fitted cell or None), for (group id,
    model id) cells of one group in `MODEL_IDS` order. Its k-NN cells share
    one `TableStore`. Its feature-selection forests (keep_fraction < 1),
    one per cell on the cell's encoded and scaled training partition, grow
    as one `extratrees_fit_batch` before the cells run; a cell whose
    preprocessing fails has none, and fails again when it runs. A
    `PipelineError` gives the cell's failed `CellResult`."""
    registry, tables, runs, outcomes = builtin_groups(), TableStore(), [], []
    trains, seeds = {}, []  # the training partition and forest seed of each cell that selects features
    for i, (g, m) in enumerate(cells):
        states = _cell_states(config.seed, g, m)
        split = (stratified_shuffle_split(data.labels, config.test_fraction, int(states[4]))
                 if config.per_cell_split else shared_split)
        runs.append((registry[g], MODEL_SPECS[m], split))
        if config.keep_fraction < 1.0:
            with suppress(PipelineError):  # the cell fails again when it runs
                trains[i] = _encoded_and_scaled(data, *runs[-1])[3]
                seeds.append(int(states[0]))
    importances = dict(zip(trains, extratrees_fit_batch(list(trains.values()), seeds) if trains else ()))
    for i, (group, spec, split) in enumerate(runs):
        try:
            outcomes.append(run_cell_fitted(data, group, spec, config, split, tables, importances.get(i)))
        except PipelineError as exc:
            outcomes.append((CellResult(group.id, spec.id, hyperparameters={}, error=str(exc)), None))
    return outcomes


def run_matrix_fitted(config: ExperimentConfig) -> tuple[ExperimentMatrix, dict]:
    data = load_config_data(config)

    shared_split = stratified_shuffle_split(
        data.labels, config.test_fraction, seed=config.seed
    )
    if any(MODEL_SPECS[m].uses_grid for m in config.models):
        # A grid deals every class of the training partition over the folds;
        # the partition's class sizes are the same for every split seed.
        classes, counts = np.unique(data.labels[shared_split.train_idx], return_counts=True)
        if (counts < config.n_folds).any():
            c, k = classes[counts < config.n_folds][0], counts[counts < config.n_folds][0]
            raise ClassSmallerThanFoldsError(
                f"class {c} has {k} rows in the training partition, fewer than {config.n_folds} folds")

    # A job is one group's cells, or one cell where the run has fewer groups
    # than workers, so that a small run still spreads over the workers.
    keys = [(g, m) for g in config.groups for m in config.models]
    step = 1 if len(config.groups) < config.workers else len(config.models)
    jobs = [keys[i:i + step] for i in range(0, len(keys), step)]
    run = partial(_run_cells, data=data, config=config, shared_split=shared_split)
    size = min(config.workers, len(jobs))
    if size > 1:
        # Imported here: multiprocessing adds about 20 ms to every start of
        # the program, `spineml predict` included.
        from concurrent.futures import ProcessPoolExecutor
        # Last jobs first: the slowest cells, DT_opt and KNN_SMOTE, come late
        # in model order, and started first they leave the shortest tail.
        with ProcessPoolExecutor(max_workers=size) as pool:
            outcomes = list(pool.map(run, jobs[::-1]))[::-1]
    else:
        outcomes = [run(job) for job in jobs]

    cells, fitted = {}, {}
    for gm, (result, fit) in zip(keys, chain.from_iterable(outcomes)):
        cells[gm] = result
        if fit is not None:
            fitted[gm] = fit

    group_stats, model_stats = _aggregate(cells, config.groups, config.models)
    provenance = {
        "artifact_version": __version__,
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config.canonical_dict(),
        "label_coding": {str(k): v for k, v in LABEL_NAMES.items()},
    }
    matrix = ExperimentMatrix(
        groups=config.groups,
        models=config.models,
        cells=cells,
        group_stats=group_stats,
        model_stats=model_stats,
        provenance=provenance,
    )
    return matrix, fitted


def run_matrix(config: ExperimentConfig) -> ExperimentMatrix:
    return run_matrix_fitted(config)[0]
