"""Property tests: any config dict, schema file, predict record, edited
model file or edited results file gives a valid object or a PipelineError,
never another exception."""

import dataclasses
import json
import os
import re
import tempfile

import pytest
from helpers import OracleConfig, failed_and_tuned_matrix, oracle_build_parser, oracle_build_run_config, past_int64
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spineml import cli
from spineml.errors import PipelineError
from spineml.experiment import (
    MODEL_IDS,
    MODEL_SPECS,
    CellResult,
    ExperimentConfig,
    load_config_data,
    run_cell_fitted,
)
from spineml.model_selection import stratified_shuffle_split
from spineml.persist import load_model, predict_single, save_model
from spineml.report import emit_report, load_results, results_json_text
from spineml.schema import (
    GROUP_IDS,
    KINDS,
    LABEL_NAMES,
    ROLES,
    Schema,
    default_schema,
    group_by_id,
    load_schema_json,
)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _maybe(plausible):
    """Mostly plausible values, sometimes any JSON value."""
    return st.one_of(plausible, plausible, JSON)


GRID_VALUES = st.sampled_from(
    [1, 3, 0, -2, 2**63 - 1, 2**64, 2.5, None, True, "uniform", "inverse-distance", "euclidean", "manhattan",
     "gini", "entropy", "foo"]
)
CONFIG_VALUES = {
    "data": _maybe(st.one_of(
        st.fixed_dictionaries({"synthetic": _maybe(st.dictionaries(
            st.sampled_from(["n", "seed", "signal", "p_success", "bogus"]),
            _maybe(st.integers(-5, 300) | st.floats(-1, 2)), max_size=4))}),
        st.fixed_dictionaries({"csv": _maybe(st.text(max_size=8))}),
    )),
    "schema": _maybe(st.none() | st.text(max_size=8)),
    "groups": _maybe(st.lists(st.sampled_from(["I", "IV", "VII", "VIII", "V"]), max_size=3)),
    "models": _maybe(st.lists(st.sampled_from(["KNN", "DT_opt", "GaussianNB", "RF"]), max_size=3)),
    "test_fraction": _maybe(st.floats(-0.5, 1.5)),
    "n_folds": _maybe(st.integers(-1, 10)),
    "seed": _maybe(st.integers(-3, 2**70)),
    "keep_fraction": _maybe(st.floats(-0.5, 1.5)),
    "scoring": _maybe(st.sampled_from(["f1", "accuracy", "auc"])),
    "per_cell_split": _maybe(st.booleans()),
    "grids": _maybe(st.dictionaries(
        st.sampled_from(["KNN", "DT", "SVM"]),
        _maybe(st.dictionaries(
            st.sampled_from(["k", "weighting", "metric", "criterion", "max_depth",
                             "min_samples_split", "min_samples_leaf", "leaf"]),
            _maybe(st.lists(GRID_VALUES, max_size=3)), max_size=3)),
        max_size=2)),
    "workers": _maybe(st.integers(-1, 4)),
    "out_dir": _maybe(st.text(max_size=8)),
    "save_models": _maybe(st.booleans()),
    "typo": JSON,
}
CONFIGS = st.one_of(
    st.lists(st.sampled_from(sorted(CONFIG_VALUES)), unique=True, max_size=6).flatmap(
        lambda keys: st.fixed_dictionaries({k: CONFIG_VALUES[k] for k in keys})
    ),
    JSON,
)


@settings(max_examples=400, deadline=None)
@given(CONFIGS)
def test_any_config_dict_gives_a_config_or_a_pipeline_error(raw):
    try:
        config = ExperimentConfig.from_dict(raw)
    except PipelineError:
        return
    # A config that is accepted hashes, and its canonical form is accepted
    # again and describes the same experiment.
    assert ExperimentConfig.from_dict(config.canonical_dict()).config_hash() == config.config_hash()


def _config_outcome(build):
    """What building a config gives: its fields, canonical form (in key
    order) and hash; the exception's class and message; or the exit code."""
    try:
        config = build()
    except SystemExit as exc:
        return ("exit", exc.code)
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("config", repr(vars(config)), json.dumps(config.canonical_dict()), config.config_hash())


def _in_run_order(config):
    """The oracle's config with its groups and models in run order, once
    each: the one intended difference between a config and the oracle."""
    return dataclasses.replace(config, groups=tuple(g for g in GROUP_IDS if g in config.groups),
                               models=tuple(m for m in MODEL_IDS if m in config.models))


# Configs whose every value is valid, so that most of them are accepted.
VALID_CONFIGS = st.fixed_dictionaries({}, optional={
    "data": st.fixed_dictionaries({"csv": st.text(min_size=1, max_size=8)}) | st.fixed_dictionaries(
        {"synthetic": st.fixed_dictionaries({}, optional={
            "n": st.integers(20, 300), "seed": st.integers(0, 99), "signal": st.floats(0, 1),
            "p_success": st.floats(0.2, 0.8)})}),
    "test_fraction": st.floats(0.1, 0.9), "n_folds": st.integers(2, 10), "seed": st.integers(0, 99),
    "keep_fraction": st.floats(0.1, 1.0), "scoring": st.sampled_from(["f1", "accuracy"]),
    "per_cell_split": st.booleans(), "workers": st.integers(1, 4), "out_dir": st.text(max_size=8),
    "save_models": st.booleans(),
})


@settings(max_examples=400, deadline=None)
@given(CONFIGS | VALID_CONFIGS)
def test_config_dicts_load_as_the_hand_listed_oracle_loads_them(raw):
    got = _config_outcome(lambda: ExperimentConfig.from_dict(raw))
    empty = _empty_paths(raw)
    if empty:  # new: an empty path is refused once every other check passes
        assert got == ("error", "ConfigError", f"{empty[0]} must not be empty")
        return
    assert got == _unmarked(_config_outcome(lambda: _in_run_order(OracleConfig.from_dict(_marked(raw)))))


# New: an empty grid value list is refused where its first value would be
# checked, and so is an integer above 2**63 − 1, which no model file holds.
# The oracle is given a marker value in each one's place, which it refuses
# at that point, and its refusal is read as the new one.
_EMPTY_MARK = "<empty>"
_PAST_INT64_MARK = re.compile(r": invalid value '<past int64 (\d+)>'$")


def _marked(raw):
    """A config dict with each empty grid value list holding `_EMPTY_MARK`,
    and each grid integer above 2**63 − 1 marked as `<past int64 …>`."""
    if not (isinstance(raw, dict) and isinstance(raw.get("grids"), dict)):
        return raw

    def mark(values):
        if values == []:
            return [_EMPTY_MARK]
        if not isinstance(values, list):
            return values
        return [f"<past int64 {value}>" if past_int64(value) else value for value in values]

    return {**raw, "grids": {fam: {name: mark(values) for name, values in grid.items()}
                             if isinstance(grid, dict) else grid for fam, grid in raw["grids"].items()}}


def _unmarked(outcome):
    """An oracle outcome of a `_marked` config, its refusal of a marker read
    as the refusal of what it marks."""
    if outcome[:2] != ("error", "ConfigError"):
        return outcome
    refused = f": invalid value {_EMPTY_MARK!r}"
    if outcome[2].endswith(refused):
        return ("error", "ConfigError", outcome[2].removesuffix(refused) + " must not be empty")
    return ("error", "ConfigError", _PAST_INT64_MARK.sub(r": invalid value \1", outcome[2]))


def _empty_paths(raw) -> list:
    """The path fields left empty by a config dict the oracle accepts."""
    try:
        config = OracleConfig.from_dict(_marked(raw))
    except Exception:
        return []
    return [name for name in ("csv_path", "schema_path", "out_dir") if getattr(config, name) == ""]


def _flag(valid, invalid=()):
    """A run flag's values: mostly valid ones, sometimes invalid ones."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), st.sampled_from(invalid or valid))


RUN_FLAG_VALUES = {  # () for a switch, which takes no value
    "--csv": _flag(["p.csv"], [""]),
    "--schema": _flag(["s.json"], [""]),
    "--n": _flag(["60", "5000"], ["0", "-3", "x"]),
    "--signal": _flag(["0.9", "0"], ["2", "nan"]),
    "--data-seed": _flag(["3", "0"], ["-1"]),
    "--seed": _flag(["7", "0"], ["-1", "1e3"]),
    "--groups": _flag(["I,IV", " VII , I"], ["VIII", ","]),
    "--models": _flag(["KNN,DT_opt", "GaussianNB"], ["RF", ""]),
    "--test-fraction": _flag(["0.3"], ["1.5", "nan"]),
    "--folds": _flag(["4"], ["1", "x"]),
    "--keep-fraction": _flag(["0.5", "1"], ["0", "inf"]),
    "--scoring": _flag(["accuracy", "f1"], ["auc"]),
    "--per-cell-split": st.just(()),
    "--workers": _flag(["2"], ["0"]),
    "--save-models": st.just(()),
    "--out": _flag(["elsewhere"], [""]),
}


@settings(max_examples=400, deadline=None)
@given(data=st.data(), flags=st.lists(st.sampled_from(sorted(RUN_FLAG_VALUES)), max_size=6),
       config=st.none() | CONFIGS | VALID_CONFIGS)
def test_run_flags_build_the_config_the_hand_listed_oracle_builds(data, flags, config):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run"]
        if config is not None:
            argv += ["--config", os.path.join(tmp, "config.json")]
            with open(argv[-1], "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        for flag in flags:
            value = data.draw(RUN_FLAG_VALUES[flag])
            argv += [flag, *([] if value == () else [value])]
        parser = cli._build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            got = ("exit", exc.code)
        else:
            got = _config_outcome(lambda: cli._build_run_config(args, parser))
            if args.csv and (args.n, args.signal, args.data_seed) != (None, None, None):
                assert got == ("exit", 2)  # new: --csv with a synthetic-data flag
                return
            if "" in (args.config, args.csv, args.schema, args.groups, args.models, args.out_dir):
                assert got == ("exit", 2)  # new: an empty path or list is a usage error
                return
            empty = _empty_paths(config) if config is not None else []
            if empty:  # new: so is an empty path in the config file
                assert got == ("error", "ConfigError", f"{empty[0]} must not be empty")
                return
        if config is not None:
            with open(argv[2], "w", encoding="utf-8") as fh:
                json.dump(_marked(config), fh)
        oracle = oracle_build_parser()
        assert got == _unmarked(_config_outcome(
            lambda: _in_run_order(oracle_build_run_config(oracle.parse_args(argv), oracle))))


COLUMNS = st.lists(
    _maybe(st.fixed_dictionaries(
        {
            "name": _maybe(st.sampled_from(["AGE", "BMI", "SUCCESS", "X"])),
            "kind": _maybe(st.sampled_from(KINDS + ("nominal",))),
            "role": _maybe(st.sampled_from(ROLES + ("other",))),
        },
        optional={
            "min": _maybe(st.floats(-5, 5) | st.integers(-(10**400), 10**400)),
            "max": _maybe(st.floats(-5, 5) | st.integers(-(10**400), 10**400)),
        },
    )),
    max_size=4,
)
SCHEMAS = st.one_of(st.fixed_dictionaries({"columns": _maybe(COLUMNS)}), JSON)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(SCHEMAS)
def test_any_schema_file_gives_a_schema_or_a_pipeline_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "schema.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        try:
            schema = load_schema_json(path)
        except PipelineError:
            return
    assert isinstance(schema, Schema)
    assert all(isinstance(c.name, str) for c in schema.columns)


FUZZ_GROUP = group_by_id("II")  # GEN (binary), AGE, EMP_ST (ordinal)


@pytest.fixture(scope="module")
def fuzz_cells():
    config = ExperimentConfig(synthetic={"n": 120, "seed": 4, "signal": 0.8})
    data = load_config_data(config)
    split = stratified_shuffle_split(data.labels, config.test_fraction, seed=config.seed)
    return [
        run_cell_fitted(data, FUZZ_GROUP, MODEL_SPECS[m], config, split)[1]
        for m in ("GaussianNB", "ComplementNB", "KNN", "DT")
    ]


MISSING = object()


def _feature_value(name):
    lo, hi = next(c for c in default_schema().columns if c.name == name).valid_range
    in_range = st.floats(lo, hi) | st.integers(int(lo), int(hi))
    junk = (
        st.floats(lo - 50, hi + 50)
        | st.sampled_from(["7", "nan", "1e400", "x", 10**400, None, [1]])
        | JSON
    )
    return st.one_of(in_range, in_range, in_range, junk, st.just(MISSING))


RECORDS = st.one_of(
    st.fixed_dictionaries(
        {name: _feature_value(name) for name in FUZZ_GROUP.column_names},
        optional={"extra": JSON},
    ).map(lambda r: {k: v for k, v in r.items() if v is not MISSING}),
    st.dictionaries(st.text(max_size=6), JSON, max_size=4),
)


@settings(max_examples=400, deadline=None)
@given(cell=st.integers(0, 3), record=RECORDS)
def test_any_record_gives_a_prediction_or_a_pipeline_error(fuzz_cells, cell, record):
    try:
        out = predict_single(fuzz_cells[cell], record, trace=True)
    except PipelineError:
        return
    assert out["label"] in LABEL_NAMES.values()
    assert 0.0 <= out["score"] <= 1.0
    json.dumps(out, allow_nan=False)


@pytest.fixture(scope="module")
def saved_model_files(fuzz_cells, tmp_path_factory):
    """The JSON of each fuzz cell's model file."""
    out = tmp_path_factory.mktemp("models")
    raws = []
    for fit in fuzz_cells:
        path = out / f"{fit.model_id}.json"
        save_model(CellResult(fit.group_id, fit.model_id, {}), fit, path)
        raws.append(json.loads(path.read_text()))
    return raws


def _places(node, depth=5, path=()):
    """The paths to every place of a JSON tree, down to `depth` keys, with
    "*" standing for an index of a list: places under any of its items."""
    if path:
        yield path
    if depth and isinstance(node, dict):
        for key, child in node.items():
            yield from _places(child, depth - 1, path + (key,))
    elif depth and isinstance(node, list):
        for child in node:
            yield from _places(child, depth - 1, path + ("*",))


def _reaches(node, path) -> bool:
    """Whether a path from `_places` leads to a place in `node`."""
    if not path:
        return True
    key, rest = path[0], path[1:]
    if key == "*":
        return isinstance(node, list) and any(_reaches(item, rest) for item in node)
    return isinstance(node, dict) and key in node and _reaches(node[key], rest)


def _edit_json(data, raw) -> None:
    """Edit one place of a JSON tree in place, drawn evenly from `_places`:
    drop a key, retype a value or shorten a list."""
    path = data.draw(st.sampled_from(list(dict.fromkeys(_places(raw)))))
    node, child = None, raw
    for i, key in enumerate(path):
        if key == "*":
            key = data.draw(st.sampled_from(
                [j for j, item in enumerate(child) if _reaches(item, path[i + 1:])]))
        node, child = child, child[key]
    edits = ["retype"] + ["drop"] * isinstance(node, dict) + ["shorten"] * bool(
        isinstance(child, list) and child)
    edit = data.draw(st.sampled_from(edits))
    if edit == "drop":
        del node[key]
    elif edit == "shorten":
        del child[data.draw(st.integers(0, len(child) - 1)):]
    else:
        node[key] = data.draw(JSON)


@settings(max_examples=500, deadline=None)
@given(cell=st.integers(0, 3), data=st.data())
def test_any_edited_model_file_predicts_or_gives_a_pipeline_error(saved_model_files, cell, data):
    raw = json.loads(json.dumps(saved_model_files[cell]))
    _edit_json(data, raw)
    record = {"GEN": 1, "AGE": 50, "EMP_ST": 3}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        try:
            out = predict_single(load_model(path), record, trace=True)
        except PipelineError:
            return
    assert out["label"] in LABEL_NAMES.values()
    assert 0.0 <= out["score"] <= 1.0
    json.dumps(out, allow_nan=False)


@pytest.fixture(scope="module")
def saved_results():
    """The JSON of a results file with failed, untuned and tuned cells."""
    return json.loads(results_json_text(failed_and_tuned_matrix()))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_any_edited_results_file_renders_or_gives_a_pipeline_error(saved_results, data):
    raw = json.loads(json.dumps(saved_results))
    _edit_json(data, raw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        try:
            files = emit_report(load_results(path), tmp, write_results=False)
        except PipelineError:
            return
        assert all(os.path.getsize(p) > 0 for p in files.values())
