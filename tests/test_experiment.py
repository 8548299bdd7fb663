import concurrent.futures
import dataclasses
import json
import multiprocessing
import re
import threading
import weakref
from itertools import groupby

import numpy as np
import pytest

from spineml import experiment, neighbors
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spineml.cli import main
from spineml.dataset import Dataset, write_csv
from spineml.errors import ConfigError, DataSourceError, PipelineError, UnknownGroupError
from spineml.experiment import (
    FAMILIES,
    MODEL_IDS,
    MODEL_SPECS,
    ExperimentConfig,
    load_config_data,
    run_cell_fitted,
    run_matrix,
)
from spineml.model_selection import ParamGrid, default_grid, stratified_shuffle_split
from spineml.naive_bayes import ComplementNBModel
from spineml.neighbors import METRICS, WEIGHTINGS
from spineml.schema import GROUP_IDS, group_by_id

from helpers import (
    DT_DEFAULTS_REFERENCE,
    GRID_VALUES_REFERENCE,
    KNN_DEFAULTS_REFERENCE,
    dt_grid_reference,
    knn_grid_reference,
    make_dataset,
    past_int64,
    schema_without_bounds,
)


def _cfg(**kwargs):
    kwargs.setdefault("synthetic", {"n": 244, "seed": 7, "signal": 0.8})
    return ExperimentConfig(**kwargs)


def test_model_nomenclature_mapping():
    assert MODEL_IDS == (
        "GaussianNB", "ComplementNB", "KNN", "KNN_opt",
        "KNN_RO", "KNN_SMOTE", "DT", "DT_opt",
    )
    assert not MODEL_SPECS["GaussianNB"].uses_grid
    assert not MODEL_SPECS["ComplementNB"].uses_grid
    assert not MODEL_SPECS["KNN"].uses_grid
    assert MODEL_SPECS["KNN_opt"].uses_grid
    assert MODEL_SPECS["KNN_RO"].uses_grid
    assert MODEL_SPECS["KNN_RO"].resample == "random_over"
    assert MODEL_SPECS["KNN_SMOTE"].uses_grid
    assert MODEL_SPECS["KNN_SMOTE"].resample == "smote"
    assert not MODEL_SPECS["DT"].uses_grid
    assert MODEL_SPECS["DT_opt"].uses_grid


def _typed(value):
    """`value` spelled out with the exact type of every part and the order
    of every dict, so that 5 and True, or 2 and np.int64(2), differ."""
    if isinstance(value, dict):
        return [(key, _typed(v)) for key, v in value.items()]
    if isinstance(value, (tuple, list)):
        return type(value), [_typed(v) for v in value]
    return type(value), value


def test_hyperparameter_table_gives_the_grids_and_defaults_it_replaced():
    for got, want in ((default_grid("knn"), knn_grid_reference()), (default_grid("dt"), dt_grid_reference())):
        assert (got.family, _typed(got.params)) == (want.family, _typed(want.params))
    # an untuned cell fits with its family's untuned values
    assert _typed(_one_cell("KNN").hyperparameters) == _typed(KNN_DEFAULTS_REFERENCE)
    assert _typed(_one_cell("DT").hyperparameters) == _typed(DT_DEFAULTS_REFERENCE)
    # README's example grids: the overrides take their parameters' places,
    # and a tuned cell's CV table lists the combinations of that grid
    config = _cfg(grids={"KNN": {"k": (3, 5, 7)}, "DT": {"max_depth": (2, 4, None)}})
    for model_id, base in (("KNN_opt", knn_grid_reference()), ("DT_opt", dt_grid_reference())):
        want = ParamGrid(base.family, {**base.params, **config.grids[model_id[:-4].upper()]}).combos()
        cell = _one_cell(model_id, config=config)
        assert [_typed(row["params"]) for row in cell.cv_table] == [_typed(combo) for combo in want]


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.sampled_from([-1, 0, 1, 2, 2**63 - 1, 2**63, 10**30])
                 | st.floats() | st.sampled_from([1.0, 2.0, float("nan"), float("inf")]) | st.text(max_size=4)
                 | st.sampled_from(["uniform", "inverse-distance", "euclidean", "manhattan", "gini", "entropy"]))


@settings(max_examples=300, deadline=None)
@given(value=st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=4))
@example(value=True)
@example(value=False)
@example(value=None)
@example(value=1)
@example(value=2**63 - 1)
@example(value=2**63)
def test_each_config_grid_rule_accepts_what_the_rule_it_replaced_accepts(value):
    # except an integer above 2**63 − 1, which no model file holds: it is refused
    assert list(GRID_VALUES_REFERENCE) == ["KNN", "DT"]
    for fam, rules in GRID_VALUES_REFERENCE.items():
        for name, rule in rules.items():
            if rule(value) and not past_int64(value):
                assert _cfg(grids={fam: {name: (value,)}}).grids == {fam: {name: (value,)}}
            else:
                with pytest.raises(ConfigError, match=f"^{re.escape(f'grid {fam} {name}: invalid value {value!r}')}$"):
                    _cfg(grids={fam: {name: (value,)}})
    for fam, rules in GRID_VALUES_REFERENCE.items():  # a parameter the family does not have
        with pytest.raises(ConfigError, match=f"^unknown grid parameter for {fam}: nope$"):
            _cfg(grids={fam: {"nope": (value,)}})


@pytest.mark.parametrize("family", ["knn", "Knn", "\u212aNN", "dt", "Dt", "", "KNN ", "GAUSSIANNB"])
def test_a_grid_family_is_known_only_by_its_exact_upper_case_name(family):
    with pytest.raises(ConfigError, match=f"^{re.escape(f'unknown grid family: {family}')}$"):
        _cfg(grids={family: {"k": (3,)}})


def test_config_validation():
    with pytest.raises(UnknownGroupError):
        _cfg(groups=("VIII",))
    with pytest.raises(ConfigError):
        _cfg(models=("SVM",))
    with pytest.raises(ConfigError):
        _cfg(test_fraction=1.5)
    with pytest.raises(ConfigError):
        _cfg(models=())
    with pytest.raises(ConfigError):
        ExperimentConfig()  # no data source
    with pytest.raises(ConfigError):
        ExperimentConfig(csv_path="x.csv", synthetic={"n": 50})
    with pytest.raises(ConfigError):
        _cfg(synthetic={"n": 50, "bogus": 1})
    for bad in ({"n_folds": "8"}, {"test_fraction": "0.25"}, {"workers": True},
                {"seed": 4.5}, {"synthetic": {"n": "50"}}, {"synthetic": {"signal": None}}):
        with pytest.raises(ConfigError):
            _cfg(**bad)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"data": {"synthetic": {"n": 50}}, "typo_key": 1})
    assert "typo_key" in str(exc.value)


def test_config_from_dict_round_trip():
    raw = {
        "data": {"synthetic": {"n": 60, "seed": 3, "signal": 0.2}},
        "groups": ["I", "IV"],
        "models": ["KNN", "DT"],
        "seed": 5,
        "grids": {"KNN": {"k": [3, 5]}},
    }
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.groups == ("I", "IV")
    assert cfg.grids["KNN"]["k"] == (3, 5)
    again = ExperimentConfig.from_dict(cfg.canonical_dict())
    assert again.config_hash() == cfg.config_hash()


def test_config_hash_ignores_execution_details():
    a = _cfg(workers=1, out_dir="x")
    b = _cfg(workers=4, out_dir="y", save_models=True)
    assert a.config_hash() == b.config_hash()
    c = _cfg(seed=99)
    assert a.config_hash() != c.config_hash()


def test_load_config_data_sources(tmp_path):
    cfg = _cfg()
    ds = load_config_data(cfg)
    assert ds.n == 244
    missing = ExperimentConfig(csv_path=str(tmp_path / "nope.csv"))
    with pytest.raises(DataSourceError):
        load_config_data(missing)


def _one_cell(model_id, group_id="I", config=None, p_success=0.522, signal=0.8, seed=7):
    config = config or _cfg(synthetic={"n": 244, "seed": seed, "signal": signal,
                                       "p_success": p_success})
    data = load_config_data(config)
    split = stratified_shuffle_split(data.labels, config.test_fraction, seed=config.seed)
    return run_cell_fitted(data, group_by_id(group_id), MODEL_SPECS[model_id], config, split)[0]


def test_run_cell_untuned_gnb_contract():
    cell = _one_cell("GaussianNB")
    assert cell.hyperparameters == {}
    assert cell.cv_table is None
    assert cell.error is None
    assert cell.n_test == 61
    assert cell.confusion.total == 61


def test_run_cell_knn_recovers_signal():
    cell = _one_cell("KNN", group_id="I")
    assert cell.accuracy > 0.60


def test_run_cell_deterministic():
    a = _one_cell("KNN_opt")
    b = _one_cell("KNN_opt")
    assert a.accuracy == b.accuracy
    assert a.f1 == b.f1
    assert a.hyperparameters == b.hyperparameters


def test_run_cell_tuned_has_cv_table():
    cell = _one_cell("DT_opt")
    assert cell.cv_table is not None
    assert len(cell.cv_table) == 2 * 6 * 3 * 3
    assert set(cell.hyperparameters) == {
        "criterion", "max_depth", "min_samples_split", "min_samples_leaf"
    }


def test_run_cell_resampled_models_balance_training():
    ro = _one_cell("KNN_RO", p_success=0.2)
    assert ro.error is None
    smote = _one_cell("KNN_SMOTE", p_success=0.2)
    assert smote.error is None


def test_run_matrix_default_shape():
    matrix = run_matrix(_cfg())
    assert len(matrix.cells) == 56
    assert all(c.error is None for c in matrix.cells.values())
    assert matrix.groups == GROUP_IDS
    assert matrix.models == MODEL_IDS
    assert set(matrix.group_stats) == set(GROUP_IDS)
    assert set(matrix.model_stats) == set(MODEL_IDS)


def test_run_matrix_aggregates_match_recomputation():
    matrix = run_matrix(_cfg(groups=("I", "IV"), models=("GaussianNB", "KNN", "DT")))
    for g in matrix.groups:
        accs = [matrix.cells[(g, m)].accuracy for m in matrix.models]
        f1s = [matrix.cells[(g, m)].f1 for m in matrix.models]
        assert abs(matrix.group_stats[g]["mean_acc"] - np.mean(accs)) < 1e-12
        assert abs(matrix.group_stats[g]["sd_acc"] - np.std(accs, ddof=1)) < 1e-12
        assert abs(matrix.group_stats[g]["mean_f1"] - np.mean(f1s)) < 1e-12
    for m in matrix.models:
        accs = [matrix.cells[(g, m)].accuracy for g in matrix.groups]
        assert abs(matrix.model_stats[m]["mean_acc"] - np.mean(accs)) < 1e-12


def test_run_matrix_restricted_cells():
    matrix = run_matrix(_cfg(groups=("I",), models=("KNN", "DT")))
    assert set(matrix.cells) == {("I", "KNN"), ("I", "DT")}


def test_run_matrix_cell_failure_is_marked_not_fatal():
    cfg = _cfg(groups=("I",), models=("KNN", "KNN_opt"),
               grids={"KNN": {"k": (5000,)}})
    matrix = run_matrix(cfg)
    assert matrix.cells[("I", "KNN")].error is None
    failed = matrix.cells[("I", "KNN_opt")]
    assert failed.error is not None
    assert failed.accuracy is None


def test_shared_split_across_cells_and_workers_determinism():
    cfg = _cfg(groups=("I", "VI"), models=("GaussianNB", "KNN"))
    m1 = run_matrix(cfg)
    m2 = run_matrix(_cfg(groups=("I", "VI"), models=("GaussianNB", "KNN"), workers=3))
    for key in m1.cells:
        assert m1.cells[key].accuracy == m2.cells[key].accuracy
        assert m1.cells[key].f1 == m2.cells[key].f1


def test_per_cell_split_changes_results():
    base = run_matrix(_cfg(groups=("I",), models=("KNN",)))
    alt = run_matrix(_cfg(groups=("I",), models=("KNN",), per_cell_split=True))
    # not asserting inequality of accuracy (could coincide); the split itself differs
    assert base.provenance["config"]["per_cell_split"] is False
    assert alt.provenance["config"]["per_cell_split"] is True


def test_no_test_leakage_into_fitting():
    """Fitted state must be a pure function of the training partition:
    corrupting every test-row feature leaves the chosen hyperparameters and
    the fitted models bit-identical."""
    cfg = _cfg(groups=("I", "III"), models=("GaussianNB", "ComplementNB", "KNN_opt", "DT_opt"))
    data = load_config_data(cfg)
    split = stratified_shuffle_split(data.labels, cfg.test_fraction, seed=cfg.seed)

    corrupted_rows = data.rows.copy()
    corrupted_rows[split.test_idx] = corrupted_rows[split.test_idx] * 100.0 + 17.0
    corrupted = type(data)(data.schema, corrupted_rows, data.labels)

    from spineml.experiment import FAMILIES

    for g in cfg.groups:
        for m in cfg.models:
            a_res, a_fit = run_cell_fitted(data, group_by_id(g), MODEL_SPECS[m], cfg, split)
            b_res, b_fit = run_cell_fitted(corrupted, group_by_id(g), MODEL_SPECS[m], cfg, split)
            assert a_res.hyperparameters == b_res.hyperparameters
            assert a_fit.ordinal_codes == b_fit.ordinal_codes
            assert np.array_equal(a_fit.scaler_mean, b_fit.scaler_mean)
            assert np.array_equal(a_fit.scaler_std, b_fit.scaler_std)
            to_dict = FAMILIES[a_fit.family].to_dict
            assert to_dict(a_fit.classifier) == to_dict(b_fit.classifier)


def test_train_test_disjointness_guard():
    cfg = _cfg()
    data = load_config_data(cfg)
    split = stratified_shuffle_split(data.labels, 0.25, seed=1)
    shared = split.train_idx[len(split.train_idx) // 2]  # one row in both, inside both sorted lists
    for bad in (type(split)(train_idx=split.train_idx,
                            test_idx=np.concatenate([split.test_idx, split.train_idx[:1]])),
                type(split)(train_idx=split.train_idx, test_idx=np.sort(np.r_[split.test_idx, shared])),
                type(split)(train_idx=np.sort(np.r_[split.train_idx, split.test_idx[-1]]), test_idx=split.test_idx),
                type(split)(train_idx=split.train_idx, test_idx=split.train_idx)):
        for model_id in ("GaussianNB", "KNN", "KNN_SMOTE"):
            with pytest.raises(ValueError, match="^train/test index sets overlap$"):
                run_cell_fitted(data, group_by_id("I"), MODEL_SPECS[model_id], cfg, bad)


def test_run_matrix_with_feature_selection_enabled():
    matrix = run_matrix(_cfg(groups=("VII",), models=("KNN", "GaussianNB"),
                             keep_fraction=0.3))
    for cell in matrix.cells.values():
        assert cell.error is None


def test_run_matrix_from_csv_source(tmp_path):
    from spineml.dataset import write_csv

    ds = load_config_data(_cfg())
    path = tmp_path / "cohort.csv"
    write_csv(ds, path)
    matrix = run_matrix(ExperimentConfig(csv_path=str(path), groups=("I",),
                                         models=("KNN",)))
    synthetic_matrix = run_matrix(_cfg(groups=("I",), models=("KNN",)))
    cell, other = matrix.cells[("I", "KNN")], synthetic_matrix.cells[("I", "KNN")]
    # identical data and seed, different source: identical evaluation
    assert cell.accuracy == other.accuracy
    assert cell.f1 == other.f1


def test_no_signal_accuracy_near_majority_single_seed():
    cell = _one_cell("KNN", group_id="I", signal=0.0, seed=3,
                     config=_cfg(synthetic={"n": 244, "seed": 3, "signal": 0.0}))
    data = load_config_data(_cfg(synthetic={"n": 244, "seed": 3, "signal": 0.0}))
    split = stratified_shuffle_split(data.labels, 0.25, seed=42)
    test_labels = data.labels[split.test_idx]
    majority = max(test_labels.mean(), 1 - test_labels.mean())
    se = np.sqrt(majority * (1 - majority) / test_labels.size)
    assert abs(cell.accuracy - majority) <= 3 * se + 1e-9


# A coarse grid, so that rows repeat, distances tie and values sit on the
# midpoint thresholds a tree learns from them.
TIE_GRID = (0.0, 0.5, 1.0, 2.0)


def _tie_rows(data, d, values, min_size, max_size):
    """Rows of `values`, each either drawn per column or constant."""
    row = st.one_of(st.lists(values, min_size=d, max_size=d), values.map(lambda v: [v] * d))
    return np.array(data.draw(st.lists(row, min_size=min_size, max_size=max_size)), dtype=float)


def _tie_heavy_case(family, data):
    """A model of `family` and 1–60 query rows built to tie."""
    d = data.draw(st.integers(1, 6))
    if family == "cnb":
        # Weight rows that are permutations of each other score every
        # constant row equal up to the order of the sum.
        w = data.draw(st.lists(st.floats(-8.0, -0.01), min_size=d, max_size=d))
        weights = np.array([w, data.draw(st.permutations(w))])
        model = ComplementNBModel(np.array([0, 1]), weights, 1.0, False)
        return model, _tie_rows(data, d, st.floats(0.0, 1.0), 1, 60)
    rows = _tie_rows(data, d, st.sampled_from(TIE_GRID), 4, 30)
    labels = np.array([0, 0, 1, 1] + data.draw(st.lists(st.integers(0, 1), min_size=rows.shape[0] - 4,
                                                        max_size=rows.shape[0] - 4)))
    train = make_dataset(rows, labels)
    if family == "knn":
        params = {"k": data.draw(st.integers(1, train.n)),
                  "weighting": data.draw(st.sampled_from(WEIGHTINGS)),
                  "metric": data.draw(st.sampled_from(METRICS))}
    else:
        params = DT_DEFAULTS_REFERENCE if family == "dt" else {}
    model = FAMILIES[family].fit(train, params)
    values = TIE_GRID
    if family == "dt":
        values += tuple(model.threshold[model.left >= 0].tolist())
    return model, _tie_rows(data, d, st.sampled_from(values), 1, 60)


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_predict_one_label_equals_the_predict_many_label_on_tie_heavy_rows(family, data):
    """Each family's one-record predictor gives every row the label its
    batch predictor gives it: constant rows, ComplementNB weight rows that
    are permutations of each other, duplicated k-NN points and rows on a
    tree's thresholds."""
    model, X = _tie_heavy_case(family, data)
    labels = FAMILIES[family].predict_many(model, X)
    for i, x in enumerate(X):
        assert FAMILIES[family].predict_one(model, x)[0] == labels[i], (family, i)


def test_each_run_builds_its_own_tables_and_a_group_shares_them(monkeypatch):
    # A group's KNN_opt, KNN_RO and KNN_SMOTE train on one partition, so
    # they share one table of both metrics, and the group's tables are
    # freed when its job returns, before the next group's first build; a
    # second run of the same config builds and frees its tables again, as
    # many times.
    events, real_build = [], neighbors.neighbor_table

    def counting(points, metrics, k):
        events.append((points.shape[1], metrics, k))
        table = real_build(points, metrics, k)
        weakref.finalize(table[metrics[0]][0], events.append, "freed")
        return table

    monkeypatch.setattr(neighbors, "neighbor_table", counting)
    config = _cfg(groups=("IV", "VII"), models=("KNN", "KNN_opt", "KNN_RO", "KNN_SMOTE"))
    first = run_matrix(config)
    runs = [list(events)]
    events.clear()
    second = run_matrix(config)
    runs.append(list(events))
    assert runs[0] == runs[1]
    segments = [(freed, list(run)) for freed, run in groupby(runs[0], lambda e: e == "freed")]
    assert [freed for freed, _ in segments] == [False, True, False, True]
    for (_, builds), (_, frees) in (segments[0:2], segments[2:4]):
        assert len(frees) == len(builds)
        assert len({width for width, _, _ in builds}) == 1  # over the group's own columns
        assert [metrics for _, metrics, _ in builds].count(METRICS) == 1
    assert first.cells == second.cells


def test_untuned_knn_asks_for_no_neighbor_tables(monkeypatch):
    # Plain KNN has no grid and no resampling, so it never reads a table.
    asked = []
    monkeypatch.setattr(neighbors.TableStore, "tables", lambda store, points, labels: asked.append(points.shape))
    matrix = run_matrix(_cfg(groups=("VII",), models=("KNN",)))
    assert asked == [] and matrix.cells[("VII", "KNN")].error is None


@pytest.mark.parametrize("workers, groups, models, jobs, sizes", [
    (1000, ("I", "VII"), ("GaussianNB",), [[("I", "GaussianNB")], [("VII", "GaussianNB")]], [2]),
    (2, ("VII",), ("GaussianNB",), [[("VII", "GaussianNB")]], []),
    (3, ("VII",), ("GaussianNB", "DT"), [[("VII", "GaussianNB")], [("VII", "DT")]], [2]),
    (2, ("I", "IV", "VII"), ("GaussianNB", "DT"),
     [[(g, "GaussianNB"), (g, "DT")] for g in ("I", "IV", "VII")], [2]),
], ids=["a-pool-of-two-not-1000", "one-job-no-pool", "cell-jobs", "group-jobs"])
def test_jobs_are_groups_or_cells_and_the_pool_has_no_more_workers_than_jobs(
        monkeypatch, workers, groups, models, jobs, sizes):
    # A stand-in pool records its size and its jobs, which go to it last
    # first, and runs them in process, so no large pool is ever started.
    made, given = [], []

    class Recording:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, todo):
            given.extend(todo)
            return map(fn, given)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    matrix = run_matrix(_cfg(groups=groups, models=models, workers=workers))
    assert made == sizes
    assert given == (jobs[::-1] if sizes else [])
    assert matrix.cells == run_matrix(_cfg(groups=groups, models=models)).cells


def _within(seconds: float, call):
    """`call()`'s value, or its exception raised again; fails the test if it
    takes longer than `seconds`."""
    box = {}

    def target():
        try:
            box["value"] = call()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_crash_in_a_cell_reaches_the_caller_and_no_worker_outlives_a_run(monkeypatch, workers):
    # A non-pipeline error in one cell, raised in a worker process with two
    # workers, reaches the caller as the same exception without hanging the
    # run, and no worker process outlives a failing or a successful run.
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("only forked workers see the patched cell function")
    real = experiment.run_cell_fitted

    def crashing(data, group, spec, *args):
        if (group.id, spec.id) == ("IV", "KNN_opt"):
            raise RuntimeError("cell IV × KNN_opt crashed")
        return real(data, group, spec, *args)

    config = _cfg(groups=("I", "IV", "VII"), models=("GaussianNB", "KNN_opt"), workers=workers)
    monkeypatch.setattr(experiment, "run_cell_fitted", crashing)
    with pytest.raises(RuntimeError) as raised:
        _within(120, lambda: run_matrix(config))
    assert type(raised.value) is RuntimeError and str(raised.value) == "cell IV × KNN_opt crashed"
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(experiment, "run_cell_fitted", real)
    assert _within(120, lambda: run_matrix(config)).cells[("IV", "KNN_opt")].error is None
    assert multiprocessing.active_children() == []


def _run_outputs(out, *argv) -> dict:
    """A `spineml run`'s output files by relative path, each as bytes, with
    results.json's timestamp nulled."""
    assert main(["run", *argv, "--save-models", "--out", str(out)]) == 0
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "results.json":
            raw = json.loads(data)
            raw["provenance"]["timestamp"] = None
            data = json.dumps(raw, indent=2).encode()
        files[str(path.relative_to(out))] = data
    return files


@pytest.mark.parametrize("per_cell", [[], ["--per-cell-split"]], ids=["shared-split", "per-cell-split"])
def test_batched_selection_forests_give_the_same_run_for_any_worker_count(tmp_path, monkeypatch, capsys,
                                                                          per_cell):
    # One worker runs group VII's cells as one job, whose four selection
    # forests grow as one batch; two and three workers run each cell as a
    # job of its own, whose forest is a batch of one. Per-cell splits root
    # the batch's forests on other rows of the data.
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("only forked workers see the patched batch function")
    batch, log = experiment.extratrees_fit_batch, tmp_path / "batches"

    def logged(trains, *args):
        with open(log, "a") as f:
            f.write(f"{len(trains)}\n")
        return batch(trains, *args)

    monkeypatch.setattr(experiment, "extratrees_fit_batch", logged)
    runs, sizes = [], []
    for workers in (1, 2, 3):
        runs.append(_run_outputs(tmp_path / f"w{workers}", "--groups", "VII", "--models",
                                 "GaussianNB,ComplementNB,DT,DT_opt", "--keep-fraction", "0.5",
                                 "--workers", str(workers), *per_cell))
        sizes.append(sorted(map(int, log.read_text().split())))
        log.unlink()
    capsys.readouterr()
    assert sizes == [[4], [1, 1, 1, 1], [1, 1, 1, 1]]
    assert sum(name.startswith("models") for name in runs[0]) == 4
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("bad_rows, groups, models, per_cell, failed", [
    (10, ("I", "II"), ("ComplementNB", "KNN"), False, ["ComplementNB × II", "KNN × II"]),
    (1, ("II", "VII"), ("GaussianNB", "ComplementNB", "KNN", "DT", "DT_opt"), True,
     [f"{m} × {g}" for g in ("II", "VII") for m in ("GaussianNB", "ComplementNB", "DT_opt")]),
], ids=["every-cell-of-a-group", "some-cells-of-a-group"])
def test_a_scaler_overflow_fails_the_cells_it_fails_unbatched_with_their_messages(
        tmp_path, bad_rows, groups, models, per_cell, failed):
    # An AGE of 1e200, which a schema without AGE bounds keeps, overflows
    # the sample std of AGE in every cell whose training partition holds it. Such a cell has no forest in its job's
    # batch and fails when it runs; every cell, failed or not, must be what
    # it is run alone, fitting its own forest. With one bad row and per-cell
    # splits, a job's batch holds some of its cells' forests and not others.
    data = load_config_data(ExperimentConfig(synthetic={}))
    rows = data.rows.copy()
    rows[:bad_rows, data.schema.feature_names.index("AGE")] = 1e200
    write_csv(Dataset(data.schema, rows, data.labels), tmp_path / "huge.csv")
    config = ExperimentConfig(csv_path=str(tmp_path / "huge.csv"), schema_path=schema_without_bounds(tmp_path, "AGE"),
                              groups=groups, models=models, keep_fraction=0.5, per_cell_split=per_cell)
    data = load_config_data(config)
    matrix = run_matrix(config)
    for (g, m), cell in matrix.cells.items():
        split_seed = int(experiment._cell_states(config.seed, g, m)[4]) if per_cell else config.seed
        split = stratified_shuffle_split(data.labels, config.test_fraction, split_seed)
        try:
            alone = run_cell_fitted(data, group_by_id(g), MODEL_SPECS[m], config, split)[0]
        except PipelineError as exc:
            alone = experiment.CellResult(group_id=g, model_id=m, hyperparameters={}, error=str(exc))
        assert json.dumps(dataclasses.asdict(cell)) == json.dumps(dataclasses.asdict(alone))
    assert [f"{m} × {g}" for (g, m), c in matrix.cells.items() if c.error] == failed
    assert {c.error.split(", got")[0] for c in matrix.cells.values() if c.error} == {"scaler std must be finite"}
