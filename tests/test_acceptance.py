"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest -s tests/test_acceptance.py` to see the
lines as they complete.

Oracles here are written from scratch (plain-Python loops, no reuse of
package internals) so every comparison is a genuine differential check.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from spineml.experiment import (
    MODEL_SPECS,
    ExperimentConfig,
    load_config_data,
    run_cell_fitted,
    run_matrix,
)
from spineml.metrics import ConfusionMatrix, accuracy, confusion, f1, recall
from spineml.model_selection import stratified_kfold, stratified_shuffle_split
from spineml.naive_bayes import cnb_predict_many, gnb_fit, gnb_predict_many
from spineml.neighbors import _nearest, knn_fit, knn_predict, knn_predict_many
from spineml.persist import load_model, save_model
from spineml.report import emit_report
from spineml.resampling import ResamplePlan, oversample
from spineml.schema import group_by_id
from spineml.synthetic import generate_synthetic
from spineml.tree import dt_fit, dt_predict_many

from helpers import (
    brute_force_neighbors,
    gini_impurity,
    make_dataset,
    normal_density,
    point_to_segment_distance,
)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:02d}] {name}: FAIL")
                raise
            print(f"\n[criterion {num:02d}] {name}: PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """One complete default matrix run shared by the shape and determinism checks."""
    out = tmp_path_factory.mktemp("default_run")
    config = ExperimentConfig(synthetic={})
    start = time.monotonic()
    matrix = run_matrix(config)
    files = emit_report(matrix, out)
    elapsed = time.monotonic() - start
    return config, matrix, files, elapsed


@criterion(1, "GaussianNB matches direct-Bayes oracle")
def test_criterion_1_gnb_oracle_equivalence():
    def oracle(model, x):
        posts = []
        for ci in range(len(model.classes)):
            p = model.priors[ci]
            for j, xj in enumerate(x):
                sigma = math.sqrt(model.variances[ci, j] + model.var_smoothing)
                p *= normal_density(xj, model.means[ci, j], sigma)
            posts.append(p)
        total = sum(posts)
        posts = [p / total for p in posts]
        best_idx = 0
        for i in range(1, len(posts)):
            if posts[i] > posts[best_idx]:
                best_idx = i
        return int(model.classes[best_idx]), posts

    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(6, 31))
        d = int(rng.integers(1, 5))
        rows = rng.normal(0, 2, size=(n, d))
        labels = np.zeros(n, dtype=int)
        labels[: max(2, n // 2)] = 1
        rng.shuffle(labels)
        model = gnb_fit(make_dataset(rows, labels))
        for x in rng.normal(0, 2, size=(5, d)):
            (got_label,), (got_post,) = gnb_predict_many(model, x[None, :])
            want_label, want_post = oracle(model, x)
            assert got_label == want_label
            assert np.abs(got_post - np.array(want_post)).max() < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def _oracle_knn_label(dists, labels, weighting):
    classes = sorted(set(labels))
    if weighting == "uniform":
        weights = {c: float(sum(1 for l in labels if l == c)) for c in classes}
    else:
        weights = {
            c: sum(1.0 / (d + 1e-12) for d, l in zip(dists, labels) if l == c)
            for c in classes
        }
    best = max(weights.values())
    tied = [c for c in classes if weights[c] == best]
    if len(tied) > 1:
        sums = {c: sum(d for d, l in zip(dists, labels) if l == c) for c in tied}
        smallest = min(sums.values())
        tied = [c for c in tied if sums[c] == smallest]
    return min(tied)


@criterion(2, "KNN matches full-sort neighbor oracle")
def test_criterion_2_knn_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 5))
        rows = rng.normal(0, 1, size=(n, d))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        ds = make_dataset(rows, labels)
        k = int(rng.integers(1, n + 1))
        x = rng.normal(0, 1, size=d)
        for metric in ("euclidean", "manhattan"):
            expected_idx, expected_dists = brute_force_neighbors(rows, x, k, metric)
            for weighting in ("uniform", "inverse-distance"):
                model = knn_fit(ds, k=k, weighting=weighting, metric=metric)
                assert _nearest(model.points, np.array([x]), model.metric, model.k)[1][0].tolist() == expected_idx
                got_label, _ = knn_predict(model, x)
                want = _oracle_knn_label(
                    expected_dists, [int(labels[i]) for i in expected_idx], weighting
                )
                assert got_label == want
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


@criterion(3, "CART root split equals exhaustive enumeration")
def test_criterion_3_dt_greedy_split_optimal():
    def exhaustive_best_decrease(rows, labels):
        def counts(ls):
            return [sum(1 for v in ls if v == 0), sum(1 for v in ls if v == 1)]

        def gini(c):
            t = sum(c)
            return 1.0 - sum((v / t) ** 2 for v in c)

        n, d = rows.shape
        parent = gini(counts(labels))
        best = None
        for j in range(d):
            values = sorted(set(rows[:, j]))
            for a, b in zip(values, values[1:]):
                t = (a + b) / 2.0
                left = [labels[i] for i in range(n) if rows[i, j] <= t]
                right = [labels[i] for i in range(n) if rows[i, j] > t]
                dec = parent - (
                    len(left) * gini(counts(left)) + len(right) * gini(counts(right))
                ) / n
                if best is None or dec > best:
                    best = dec
        return best

    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 3))
        rows = np.round(rng.normal(0, 1, size=(n, d)), 2)
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        model = dt_fit(make_dataset(rows, labels), criterion="gini")
        oracle_best = exhaustive_best_decrease(rows, labels)
        if model.left[0] < 0:  # the root is a leaf
            assert oracle_best is None or oracle_best <= 1e-12
            continue
        feature, threshold = model.feature[0], model.threshold[0]
        left = [labels[i] for i in range(n) if rows[i, feature] <= threshold]
        right = [labels[i] for i in range(n) if rows[i, feature] > threshold]
        got = gini_impurity(np.bincount(labels, minlength=2)) - (
            len(left) * gini_impurity(np.bincount(left, minlength=2))
            + len(right) * gini_impurity(np.bincount(right, minlength=2))
        ) / n
        assert abs(got - oracle_best) < 1e-12
        checked += 1
    assert checked >= 30


@criterion(4, "SMOTE synthetics lie on seed-neighbor segments")
def test_criterion_4_smote_geometry():
    rng = np.random.default_rng(404)
    for run in range(50):
        n_major = int(rng.integers(8, 26))
        n_minor = int(rng.integers(3, min(n_major, 11)))
        d = int(rng.integers(2, 5))
        rows = np.vstack([
            rng.normal(0, 1, size=(n_major, d)),
            rng.normal(2, 1, size=(n_minor, d)),
        ])
        labels = np.array([0] * n_major + [1] * n_minor)
        ds = make_dataset(rows, labels)
        plan = ResamplePlan("smote", smote_k=5, seed=run)
        out = oversample(ds, plan)
        counts = out.class_counts()
        assert counts[0] == counts[1] == n_major
        minority = rows[n_major:]
        k = min(plan.smote_k, n_minor - 1)
        for synth in out.rows[ds.n:]:
            on_segment = False
            for i, x in enumerate(minority):
                others = np.delete(minority, i, axis=0)
                neigh, _ = brute_force_neighbors(others, x, k)
                for j in neigh:
                    if point_to_segment_distance(synth, x, others[j]) < 1e-9:
                        on_segment = True
                        break
                if on_segment:
                    break
            assert on_segment, f"run {run}: synthetic off every segment"


@criterion(5, "stratified split and fold plans hold their counts")
def test_criterion_5_stratification():
    labels = generate_synthetic(244, seed=0, signal=0.0).labels
    class_counts = {c: int(np.sum(labels == c)) for c in (0, 1)}
    for seed in range(100):
        split = stratified_shuffle_split(labels, 0.25, seed=seed)
        assert split.test_idx.size == 61
        assert split.train_idx.size == 183
        for c, n_c in class_counts.items():
            got = int(np.sum(labels[split.test_idx] == c))
            assert abs(got - 0.25 * n_c) <= 1.0
        train_labels = labels[split.train_idx]
        plan = stratified_kfold(train_labels, 8, seed=seed)
        merged = np.sort(np.concatenate(plan.folds))
        assert merged.tolist() == list(range(183))
        sizes = [len(f) for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1


@criterion(6, "default run reproduces the 8-model x 7-group matrix")
def test_criterion_6_matrix_shape(default_run):
    config, matrix, files, elapsed = default_run
    assert elapsed < 60.0, f"default run took {elapsed:.1f}s"
    assert len(matrix.cells) == 56
    assert all(cell.error is None for cell in matrix.cells.values())
    assert len(matrix.groups) == 7 and len(matrix.models) == 8

    table4 = files["table4"].read_text().strip().split("\n")
    assert len(table4) == 1 + 16  # 8 models x 2 metrics
    assert table4[0] == "Model,I,II,III,IV,V,VI,VII"
    table5 = files["table5"].read_text().strip().split("\n")
    assert len(table5) == 1 + 7
    assert files["fig2a"].read_text().startswith("<svg")
    assert files["fig2b"].read_text().startswith("<svg")
    results = json.loads(files["results"].read_text())
    assert len(results["cells"]) == 56


@criterion(7, "oversampled KNN lifts minority recall")
def test_criterion_7_oversampling_direction():
    group = group_by_id("I")
    wins = {"KNN_RO": 0, "KNN_SMOTE": 0}
    for seed in range(20):
        config = ExperimentConfig(
            synthetic={"n": 244, "seed": 1000 + seed, "signal": 0.8, "p_success": 0.2},
            seed=seed,
        )
        data = load_config_data(config)
        split = stratified_shuffle_split(data.labels, 0.25, seed=config.seed)
        recalls = {}
        for model_id in ("KNN", "KNN_RO", "KNN_SMOTE"):
            cell = run_cell_fitted(data, group, MODEL_SPECS[model_id], config, split)[0]
            assert cell.error is None
            recalls[model_id] = recall(cell.confusion)
        for model_id in wins:
            wins[model_id] += recalls[model_id] >= recalls["KNN"]
    assert wins["KNN_RO"] >= 16, f"KNN_RO won only {wins['KNN_RO']}/20"
    assert wins["KNN_SMOTE"] >= 16, f"KNN_SMOTE won only {wins['KNN_SMOTE']}/20"


@criterion(8, "no phantom signal when none is injected")
def test_criterion_8_no_signal_null():
    """Per cell, the mean test accuracy over 20 seeds must sit within 3
    binomial standard errors of the mean majority-class rate; a leakage bug
    inflates accuracy persistently and trips this immediately."""
    n_seeds = 20
    sums = {}
    majority_rates = []
    n_test = None
    for i in range(n_seeds):
        seed = 3000 + i
        config = ExperimentConfig(
            synthetic={"n": 244, "seed": seed, "signal": 0.0}, seed=seed
        )
        matrix = run_matrix(config)
        data = load_config_data(config)
        split = stratified_shuffle_split(data.labels, 0.25, seed=config.seed)
        test_labels = data.labels[split.test_idx]
        n_test = test_labels.size
        majority_rates.append(max(test_labels.mean(), 1 - test_labels.mean()))
        for key, cell in matrix.cells.items():
            assert cell.error is None
            sums.setdefault(key, []).append(cell.accuracy)
    mean_majority = float(np.mean(majority_rates))
    se = math.sqrt(mean_majority * (1 - mean_majority) / n_test)
    for key, accs in sums.items():
        gap = abs(float(np.mean(accs)) - mean_majority)
        assert gap <= 3 * se, f"cell {key}: mean acc {np.mean(accs):.3f} vs majority {mean_majority:.3f}"


@criterion(9, "matrix runs are byte-deterministic for any worker count")
def test_criterion_9_determinism(default_run, tmp_path):
    config, _matrix, files, _elapsed = default_run

    def stripped(path):
        raw = json.loads(path.read_text())
        raw["provenance"]["timestamp"] = None
        return json.dumps(raw, sort_keys=True)

    rerun_cfg = ExperimentConfig(synthetic={})
    rerun_files = emit_report(run_matrix(rerun_cfg), tmp_path / "rerun")
    workers_cfg = ExperimentConfig(synthetic={}, workers=2, out_dir="unused")
    workers_files = emit_report(run_matrix(workers_cfg), tmp_path / "workers")

    for other in (rerun_files, workers_files):
        assert stripped(files["results"]) == stripped(other["results"])
        for name in ("table4", "table5", "fig2a", "fig2b"):
            assert files[name].read_bytes() == other[name].read_bytes()


@criterion(10, "persisted models reproduce in-memory predictions exactly")
def test_criterion_10_persistence_fidelity(tmp_path):
    predict_many = {
        "gnb": lambda model, X: gnb_predict_many(model, X)[0],
        "cnb": lambda model, X: cnb_predict_many(model, X)[0],
        "knn": knn_predict_many,
        "dt": dt_predict_many,
    }
    config = ExperimentConfig(synthetic={"n": 244, "seed": 7, "signal": 0.8})
    data = load_config_data(config)
    split = stratified_shuffle_split(data.labels, 0.25, seed=config.seed)
    rng = np.random.default_rng(77)
    for family, model_id in (("gnb", "GaussianNB"), ("cnb", "ComplementNB"),
                             ("knn", "KNN"), ("dt", "DT")):
        cell, fit = run_cell_fitted(
            data, group_by_id("V"), MODEL_SPECS[model_id], config, split
        )
        path = tmp_path / f"{model_id}.json"
        save_model(cell, fit, path)
        pm = load_model(path)
        width = len(fit.kept)
        low = 0.0 if family == "cnb" else -4.0
        fuzz = rng.uniform(low, 4.0, size=(1000, width))
        original = predict_many[family](fit.classifier, fuzz)
        reloaded = predict_many[family](pm.classifier, fuzz)
        assert np.array_equal(original, reloaded), f"{model_id} round trip drifted"


@criterion(11, "metrics match a naive counting oracle")
def test_criterion_11_metric_correctness():
    hand = ConfusionMatrix(tp=2, fp=1, tn=1, fn=1)
    assert abs(accuracy(hand) - 0.6) < 1e-12
    assert abs(f1(hand) - 2.0 / 3.0) < 1e-12

    rng = np.random.default_rng(1111)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        y_true = rng.integers(0, 2, n)
        y_pred = rng.integers(0, 2, n)
        cm = confusion(y_true, y_pred)
        tp = fp = tn = fn = 0
        for t, p in zip(y_true.tolist(), y_pred.tolist()):
            if t == 1 and p == 1:
                tp += 1
            elif t == 0 and p == 1:
                fp += 1
            elif t == 0 and p == 0:
                tn += 1
            else:
                fn += 1
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
        acc = (tp + tn) / n
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1_val = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert abs(accuracy(cm) - acc) < 1e-12
        assert abs(f1(cm) - f1_val) < 1e-12
