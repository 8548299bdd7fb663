import hashlib
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from helpers import gnb_log_posteriors_reference, read_record_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from spineml import experiment
from spineml.dataset import Dataset, select_group
from spineml.errors import (
    CorruptFileError,
    MissingFeatureError,
    OutOfSchemaValueError,
    PipelineError,
    VersionMismatchError,
)
from spineml.experiment import (
    MODEL_SPECS,
    ExperimentConfig,
    FittedCell,
    load_config_data,
    run_cell_fitted,
)
from spineml.metrics import confusion
from spineml.model_selection import stratified_shuffle_split
from spineml.naive_bayes import _gnb_log_posteriors, cnb_predict_many, gnb_predict_many
from spineml.neighbors import knn_predict_many
from spineml.persist import _LAYOUT, MODEL_FORMAT_VERSION, load_model, predict_single, preprocess_record, save_model
from spineml.schema import GROUP_IDS, LABEL_NAMES, ColumnSpec, Schema, default_schema, group_by_id
from spineml.tree import dt_predict_many

MODEL_FOR_FAMILY = {
    "gnb": "GaussianNB",
    "cnb": "ComplementNB",
    "knn": "KNN",
    "dt": "DT",
}

PREDICT_MANY = {
    "gnb": lambda model, X: gnb_predict_many(model, X)[0],
    "cnb": lambda model, X: cnb_predict_many(model, X)[0],
    "knn": knn_predict_many,
    "dt": dt_predict_many,
}


@pytest.fixture(scope="module")
def fitted_cells(tmp_path_factory):
    cfg = ExperimentConfig(synthetic={"n": 244, "seed": 7, "signal": 0.8})
    data = load_config_data(cfg)
    split = stratified_shuffle_split(data.labels, 0.25, seed=cfg.seed)
    out = {}
    for family, model_id in MODEL_FOR_FAMILY.items():
        cell, fit = run_cell_fitted(
            data, group_by_id("I"), MODEL_SPECS[model_id], cfg, split
        )
        out[family] = (cell, fit)
    return out


def test_save_load_round_trip_predictions(fitted_cells, tmp_path):
    rng = np.random.default_rng(55)
    for family, (cell, fit) in fitted_cells.items():
        path = tmp_path / f"{family}.json"
        save_model(cell, fit, path)
        pm = load_model(path)
        assert pm.model_id == fit.model_id
        assert pm.group_id == "I"
        width = len(fit.kept)
        low = 0.0 if family == "cnb" else -3.0
        X = rng.uniform(low, 3.0, size=(200, width))
        original = PREDICT_MANY[family](fit.classifier, X)
        reloaded = PREDICT_MANY[family](pm.classifier, X)
        assert np.array_equal(original, reloaded)


def test_knn_round_trip_preserves_stored_matrix(fitted_cells, tmp_path):
    cell, fit = fitted_cells["knn"]
    path = tmp_path / "knn.json"
    save_model(cell, fit, path)
    pm = load_model(path)
    assert pm.classifier.k == fit.classifier.k
    assert pm.classifier.metric == fit.classifier.metric
    assert np.array_equal(pm.classifier.points, fit.classifier.points)
    assert np.array_equal(pm.classifier.labels, fit.classifier.labels)


def test_dt_round_trip_preserves_structure(tmp_path):
    from helpers import make_dataset
    from spineml.tree import dt_fit

    ds = make_dataset([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
    model = dt_fit(ds)
    from spineml.experiment import FAMILIES

    raw = FAMILIES["dt"].to_dict(model)
    back = FAMILIES["dt"].from_dict(raw)
    assert back.feature[0] == 0
    assert back.threshold[0] == 5.5
    assert back.counts[back.left[0]].tolist() == model.counts[model.left[0]].tolist()
    assert FAMILIES["dt"].to_dict(back) == raw


@pytest.mark.parametrize("feature", [-1, 99])
def test_load_model_rejects_a_split_on_a_missing_feature(fitted_cells, tmp_path, feature):
    cell, fit = fitted_cells["dt"]
    path = tmp_path / "dt.json"
    save_model(cell, fit, path)
    raw = json.loads(path.read_text())
    assert "feature" in raw["classifier"]["root"]
    raw["classifier"]["root"]["feature"] = feature
    path.write_text(json.dumps(raw))
    with pytest.raises(CorruptFileError):
        load_model(path)


def test_every_fitted_cell_field_but_the_classifier_has_one_place_in_the_file(fitted_cells, tmp_path):
    assert set(_LAYOUT) == {f.name for f in fields(FittedCell)} - {"classifier"}
    places = [place.split("/") for place, _ in _LAYOUT.values()]
    assert not [(a, b) for a in places for b in places if a is not b and a[:len(b)] == b]  # none inside another
    for family, (cell, fit) in fitted_cells.items():
        path = tmp_path / f"{family}.json"
        save_model(cell, fit, path)
        raw = json.loads(path.read_text())
        for field, (place, _) in _LAYOUT.items():
            *parents, key = place.split("/")
            node = raw
            for parent in parents:
                node = node[parent]
            value = getattr(fit, field)
            assert node.pop(key) == json.loads(json.dumps(
                value.tolist() if isinstance(value, np.ndarray) else value)), (family, field)
        assert raw.pop("classifier") == json.loads(json.dumps(experiment.FAMILIES[fit.family].to_dict(fit.classifier)))
        assert raw == {"format_version": MODEL_FORMAT_VERSION, "preprocessing": {"scaler": {}},
                       "metadata": {"accuracy": cell.accuracy, "f1": cell.f1}}, family


def test_save_model_rejects_failed_cell(fitted_cells, tmp_path):
    cell, fit = fitted_cells["gnb"]
    broken = type(cell)(group_id="I", model_id="GaussianNB",
                        hyperparameters={}, error="boom")
    with pytest.raises(ValueError):
        save_model(broken, fit, tmp_path / "x.json")


def test_load_model_version_mismatch(fitted_cells, tmp_path):
    cell, fit = fitted_cells["gnb"]
    path = tmp_path / "m.json"
    save_model(cell, fit, path)
    raw = json.loads(path.read_text())
    raw["format_version"] = 2
    path.write_text(json.dumps(raw))
    with pytest.raises(VersionMismatchError):
        load_model(path)


def test_load_model_corrupt_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{broken")
    with pytest.raises(CorruptFileError):
        load_model(path)
    path.write_text(json.dumps({"format_version": 1, "family": "knn"}))
    with pytest.raises(CorruptFileError):
        load_model(path)


def _record_for(pm, values_by_name):
    record = {}
    for meta in pm.feature_meta:
        record[meta["name"]] = values_by_name[meta["name"]]
    return record


GROUP_I_RECORD = {
    "BMI": 27.5, "LEVELS": 2, "PRE_LUMBAR_EVA": 7, "PRE_LEG_EVA": 6, "PRE_ODI": 40,
}


def test_predict_single_output_contract(fitted_cells, tmp_path):
    cell, fit = fitted_cells["knn"]
    path = tmp_path / "knn.json"
    save_model(cell, fit, path)
    pm = load_model(path)
    out = predict_single(pm, GROUP_I_RECORD)
    assert out["label"] in ("success", "no-success")
    assert 0.0 <= out["score"] <= 1.0
    assert "trace" not in out
    traced = predict_single(pm, GROUP_I_RECORD, trace=True)
    assert len(traced["trace"]) == len(pm.kept)
    step = traced["trace"][0]
    assert set(step) == {"name", "raw", "encoded", "scaled"}


def test_predict_single_missing_feature(fitted_cells, tmp_path):
    cell, fit = fitted_cells["gnb"]
    path = tmp_path / "g.json"
    save_model(cell, fit, path)
    pm = load_model(path)
    record = dict(GROUP_I_RECORD)
    del record["PRE_ODI"]
    with pytest.raises(MissingFeatureError) as exc:
        predict_single(pm, record)
    assert exc.value.feature == "PRE_ODI"


def test_predict_single_out_of_schema_value(fitted_cells, tmp_path):
    cell, fit = fitted_cells["gnb"]
    path = tmp_path / "g.json"
    save_model(cell, fit, path)
    pm = load_model(path)
    record = dict(GROUP_I_RECORD, PRE_ODI=150)  # ODI caps at 100
    with pytest.raises(OutOfSchemaValueError):
        predict_single(pm, record)
    record = dict(GROUP_I_RECORD, BMI="heavy")
    with pytest.raises(OutOfSchemaValueError):
        predict_single(pm, record)


def test_predict_single_knn_training_row_self_match(tmp_path):
    """A k=1 model fed one of its training rows returns that row's label."""
    cfg = ExperimentConfig(
        synthetic={"n": 244, "seed": 7, "signal": 0.8},
        grids={"KNN": {"k": (1,), "weighting": ("uniform",), "metric": ("euclidean",)}},
    )
    data = load_config_data(cfg)
    split = stratified_shuffle_split(data.labels, 0.25, seed=cfg.seed)
    group = group_by_id("I")
    cell, fit = run_cell_fitted(data, group, MODEL_SPECS["KNN_opt"], cfg, split)
    assert fit.hyperparameters["k"] == 1
    path = tmp_path / "k1.json"
    save_model(cell, fit, path)
    pm = load_model(path)
    row_idx = int(split.train_idx[0])
    record = {name: float(data.column(name)[row_idx]) for name in group.column_names}
    out = predict_single(pm, record)
    expected = "success" if data.labels[row_idx] == 1 else "no-success"
    assert out["label"] == expected
    assert out["score"] == 1.0


def test_predict_single_gnb_separable_confidence(tmp_path):
    from helpers import make_dataset
    from spineml.experiment import FittedCell
    from spineml.naive_bayes import gnb_fit

    ds = make_dataset(
        [[0.0], [0.5], [1.0], [10.0], [10.5], [11.0]], [0, 0, 0, 1, 1, 1],
        names=["PRE_ODI"],
    )
    model = gnb_fit(ds)
    fitted = FittedCell(
        model_id="GaussianNB", group_id="I", family="gnb",
        feature_meta=[{"name": "PRE_ODI", "kind": "continuous", "min": 0, "max": 100}],
        ordinal_codes={},
        scaler_columns=(), scaler_mean=np.array([]), scaler_std=np.array([]),
        scaler_min=np.array([]), scaler_max=np.array([]),
        scaler_constant=np.array([], dtype=bool),
        scaling_mode="standardize", kept=np.array([0]),
        classifier=model, hyperparameters={}, seed=0, config_hash="x",
    )
    from spineml.experiment import CellResult

    cell = CellResult(group_id="I", model_id="GaussianNB", hyperparameters={},
                      accuracy=1.0, f1=1.0, macro_f1=1.0, n_test=1)
    path = tmp_path / "gnb_sep.json"
    save_model(cell, fitted, path)
    pm = load_model(path)
    out = predict_single(pm, {"PRE_ODI": 10.5})
    assert out["label"] == "success"
    assert out["score"] > 0.99


LABEL_CODES = {name: code for code, name in LABEL_NAMES.items()}


@pytest.mark.parametrize("keep_fraction", [1.0, 0.5])
def test_predict_single_reproduces_each_cells_confusion_matrix(tmp_path, keep_fraction):
    """Raw test records fed one at a time through predict_single, on the
    in-memory cell and on its saved and reloaded copy, give the confusion
    matrix the batch pipeline reported for the cell."""
    cfg = ExperimentConfig(synthetic={"n": 160, "seed": 9, "signal": 0.6},
                           keep_fraction=keep_fraction)
    data = load_config_data(cfg)
    split = stratified_shuffle_split(data.labels, cfg.test_fraction, seed=cfg.seed)
    for group_id in ("II", "IV", "VII"):
        group = group_by_id(group_id)
        records = [{c: float(data.column(c)[i]) for c in group.column_names}
                   for i in split.test_idx]
        for model_id in MODEL_FOR_FAMILY.values():
            cell, fit = run_cell_fitted(data, group, MODEL_SPECS[model_id], cfg, split)
            path = tmp_path / f"{model_id}__{group_id}.json"
            save_model(cell, fit, path)
            for served in (fit, load_model(path)):
                preds = [LABEL_CODES[predict_single(served, r)["label"]] for r in records]
                assert confusion(data.labels[split.test_idx], np.array(preds)) == cell.confusion, \
                    f"{model_id} × {group_id} at keep_fraction {keep_fraction}"


def _mirrored_ties(n: int, seed: int):
    """Group VII data in which every test record is equally near a row of
    each class but for rounding, and equally likely under both classes.

    The continuous columns have no bounds and come in pairs (the odd one
    out is constant at 50). Each pair holds integers around 50 whose
    deviations sum to 0, so the two columns of a pair get the same mean
    and standard deviation bits. The i-th training row of class 1 is the
    i-th of class 0 with the two columns of every pair swapped, so the
    classes' means and variances are each other's with the pairs swapped.
    A test record has equal values within each pair, so its differences
    from those two rows, and its per-feature log densities under the two
    classes, are permutations of each other: which sum is smaller is
    decided by the order in which they are summed.
    """
    rng = np.random.default_rng(seed)
    schema = Schema(tuple(ColumnSpec(c.name, c.kind, c.role, None if c.kind == "continuous" else c.valid_range)
                          for c in default_schema().columns))
    labels = np.arange(n) % 2
    split = stratified_shuffle_split(labels, 0.25, seed=seed)
    train = np.sort(split.train_idx)
    first, second = train[labels[train] == 0], train[labels[train] == 1]
    assert first.size == second.size
    rows = np.array([[0.0 if c.valid_range is None else c.valid_range[0] for c in schema.feature_columns]] * n)
    group = group_by_id("VII")
    pairs = [schema.feature_index(c.name) for c in schema.feature_columns
             if c.name in group.column_names and c.kind == "continuous"]
    rows[:, pairs] = 50.0
    for j, k in zip(pairs[0::2], pairs[1::2]):
        a = rng.integers(-3, 4, first.size)
        b = -rng.permutation(a)
        rows[first, j], rows[first, k] = 50 + a, 50 + b
        rows[second, k], rows[second, j] = 50 + a, 50 + b
        rows[split.test_idx, j] = rows[split.test_idx, k] = 50 + rng.integers(-3, 4, split.test_idx.size)
    return Dataset(schema, rows, labels), split


@pytest.mark.parametrize("keep_fraction", [1.0, 0.5])
def test_test_partition_labels_are_predict_single_labels_on_tied_data(tmp_path, monkeypatch, keep_fraction):
    """Each test record's label in the batch that scores the test partition
    is the label predict_single gives it, on the in-memory cell and on its
    saved and reloaded copy, on data where only rounding breaks each
    record's ties (`_mirrored_ties`), for k-NN and GaussianNB alike."""
    data, split = _mirrored_ties(248, seed=0)
    group = group_by_id("VII")
    records = [{c: float(data.column(c)[i]) for c in group.column_names} for i in split.test_idx]
    scored, predict_final = [], experiment._predict_final

    def recorded(*args):  # the labels the cell scores its test partition with
        scored.append(predict_final(*args))
        return scored[-1]

    monkeypatch.setattr(experiment, "_predict_final", recorded)
    cfg = ExperimentConfig(synthetic={}, keep_fraction=keep_fraction)
    for model_id in ("KNN", "KNN_opt", "GaussianNB"):
        cell, fit = run_cell_fitted(data, group, MODEL_SPECS[model_id], cfg, split)
        path = tmp_path / f"{model_id}.json"
        save_model(cell, fit, path)
        for served in (fit, load_model(path)):
            preds = [LABEL_CODES[predict_single(served, r)["label"]] for r in records]
            assert preds == scored[-1].tolist(), f"{model_id} at keep_fraction {keep_fraction}"


# sha256 of the model file each family saves for the config below. A change
# that moves a byte of these files must bump MODEL_FORMAT_VERSION and
# re-record them.
MODEL_FILE_SHA256 = {
    "GaussianNB": "a2240c1be68e93ed2352fc09dac286fddf5c95d6c42abb8c62da9efc6fefffe3",
    "ComplementNB": "7ffb3f5b98f1567d43902d3ca52220d1a1721ce0b85d82f3fa2d2bb7be568900",
    "KNN": "85a8ecc77f5f53e51e4ae36823028a76840498d347d54041950dd9b58d645f8d",
    "DT": "5e11910dfbb64b4dc010efad910b7d2d5b54ad31c7cc210c0c6085582069bf5a",
}


def test_model_file_bytes_are_pinned(tmp_path):
    assert MODEL_FORMAT_VERSION == 1
    cfg = ExperimentConfig(synthetic={"n": 120, "seed": 3, "signal": 0.8})
    data = load_config_data(cfg)
    split = stratified_shuffle_split(data.labels, cfg.test_fraction, seed=cfg.seed)
    for model_id, expected in MODEL_FILE_SHA256.items():
        cell, fit = run_cell_fitted(data, group_by_id("VII"), MODEL_SPECS[model_id], cfg, split)
        path = tmp_path / f"{model_id}.json"
        save_model(cell, fit, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, model_id


@pytest.mark.parametrize("keep_fraction", [1.0, 0.5])
def test_gaussian_nb_log_posteriors_of_loaded_models_have_the_bits_of_per_call_terms(tmp_path, keep_fraction):
    """A loaded GaussianNB model, whose smoothed variances, log(2π·var) and
    log priors are worked out on its first call, gives each group's test
    partition the log posteriors, bit for bit, of the rule that worked them
    out on every call: in one batch and one row at a time, as
    `predict_single` calls it. So does the in-memory model, whose terms
    scoring the test partition made before it was saved."""
    cfg = ExperimentConfig(synthetic={"n": 244, "seed": 13, "signal": 0.5}, keep_fraction=keep_fraction)
    data = load_config_data(cfg)
    split = stratified_shuffle_split(data.labels, cfg.test_fraction, seed=cfg.seed)
    for group_id in GROUP_IDS:
        group = group_by_id(group_id)
        cell, fit = run_cell_fitted(data, group, MODEL_SPECS["GaussianNB"], cfg, split)
        save_model(cell, fit, tmp_path / f"{group_id}.json")
        loaded = load_model(tmp_path / f"{group_id}.json")
        X = loaded.preprocess(select_group(data, group).rows[split.test_idx])[1][:, loaded.kept]
        expected = gnb_log_posteriors_reference(loaded.classifier, X)
        for model in (loaded.classifier, fit.classifier):
            assert _gnb_log_posteriors(model, X).tobytes() == expected.tobytes(), group_id
            for i in range(X.shape[0]):
                assert _gnb_log_posteriors(model, X[i:i + 1]).tobytes() == expected[i].tobytes(), group_id


def _record_value(meta: dict):
    """A strategy for one feature's value: missing (None), a value its
    column holds, or one it must refuse: a bool, a string, a non-finite or
    past-float number, a fraction in a coded column, or one off its range."""
    lo, hi = meta.get("min"), meta.get("max")
    lo, hi = (0.0, 10.0) if lo is None or hi is None else (lo, hi)
    whole = st.integers(int(math.ceil(lo)), int(math.floor(hi)))
    held = whole if meta["kind"] != "continuous" else whole | st.floats(lo, hi)
    return st.one_of(
        held, held, held, st.none(), st.booleans(), st.sampled_from(["7", "", "nan"]),
        st.sampled_from([math.nan, math.inf, -math.inf, 10**400, [1.0]]),
        st.floats(lo, hi).map(lambda v: math.floor(v) + 0.5),
        st.sampled_from([lo - 1, hi + 1, lo - 0.25, hi + 1e9, -1e308]),
    )


@pytest.fixture(scope="module")
def loaded_cells(fitted_cells, tmp_path_factory):
    out = []
    for family, (cell, fit) in fitted_cells.items():
        path = tmp_path_factory.mktemp("records") / f"{family}.json"
        save_model(cell, fit, path)
        out.append(load_model(path))
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_record_reader_with_column_limits_matches_the_old_reader(loaded_cells, data):
    # `preprocess_record` checks a record's values against its cell's
    # `column_limits`, worked out once; the reader it replaced, which worked
    # out each column's bounds per value, is kept verbatim in helpers. Both
    # give the same vector, or the same error and message: a missing key or
    # a value that is not a finite JSON number is reported before any value
    # its column cannot hold.
    pm = data.draw(st.sampled_from(loaded_cells))
    drawn = [(meta["name"], data.draw(_record_value(meta))) for meta in pm.feature_meta]
    record = {name: value for name, value in drawn if value is not None}

    def outcome(read):
        try:
            return read()
        except PipelineError as exc:
            return type(exc).__name__, str(exc)

    want = outcome(lambda: pm.preprocess(np.array([read_record_reference(pm, record)]))[1][0].take(pm.kept))
    got = outcome(lambda: preprocess_record(pm, record)[0])
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
