"""Oracles from outside the code's own lineage.

The neighbour kernels are checked against scipy's `cdist` and `cKDTree`,
written from their own definitions, not against code this package once
held. Whole cells are checked by a metamorphic relation: multiplying every
continuous column by a power of two is exact, and it commutes with the
rounding of sums, means, square roots and division, so standardized and
min-max values keep their bits and every result must too.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from spineml.dataset import Dataset
from spineml.experiment import MODEL_IDS, MODEL_SPECS, ExperimentConfig, load_config_data, run_cell_fitted
from spineml.model_selection import stratified_kfold, stratified_shuffle_split
from spineml.neighbors import METRICS, _distances, _nearest, _within, neighbor_table
from spineml.persist import save_model
from spineml.schema import KIND_CONTINUOUS, group_by_id

# Each metric's scipy name for `cdist` and Minkowski p for `cKDTree.query`.
SCIPY = {"euclidean": ("euclidean", 2), "manhattan": ("cityblock", 1)}


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 40), q=st.integers(1, 4), n=st.integers(1, 6),
       exponents=st.lists(st.integers(-4, 4), min_size=40, max_size=40), seed=st.integers(0, 2**32 - 1))
def test_distances_equal_cdist_bit_for_bit_on_dyadic_grids(d, q, n, exponents, seed):
    # Integers up to 64 in magnitude times 2^e, e in [-4, 4] per column: every
    # difference, square and sum is exact, and both sides round one sqrt of
    # the same exact sum, so the order of the sums cannot show.
    rng = np.random.default_rng(seed)
    scale = 2.0 ** np.array(exponents[:d])
    X, points = (rng.integers(-64, 65, size=(rows, d)) * scale for rows in (q, n))
    got = _distances(points, X, METRICS)
    for metric, (name, _) in SCIPY.items():
        assert np.array_equal(got[metric], cdist(X, points, name)), metric


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 40), q=st.integers(1, 4), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_distances_are_within_d_epsilon_of_cdist(d, q, n, seed):
    # Normal values with column scales 10^-3 to 10^3. Both sides take the
    # same differences and squares but add the d nonnegative terms in their
    # own orders, each within γ_d = d·u/(1 − d·u) of the exact sum
    # (u = 2^-53; Higham, Accuracy and Stability of Numerical Algorithms,
    # §3.1). So the two sums differ by at most about 2·d·u = d·2^-52 of
    # their value, and a square root halves that relative difference while
    # adding one rounding a side. The bound used is d·2^-52 of cdist's value;
    # the largest difference seen over d ≤ 40 was 6 ulp.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=d)
    X, points = (rng.standard_normal((rows, d)) * scale for rows in (q, n))
    got = _distances(points, X, METRICS)
    for metric, (name, _) in SCIPY.items():
        ref = cdist(X, points, name)
        assert (np.abs(got[metric] - ref) <= d * 2.0**-52 * ref).all(), metric


def _tie_free(n, d, seed):
    """(n, d) normal rows whose distances, in both metrics, are no two within
    1e-12 of each other from any row: every kernel's rounding then keeps
    one order, and the neighbour lists are one set in one order."""
    points = np.random.default_rng(seed).standard_normal((n, d))
    for name, _ in SCIPY.values():
        dist = np.sort(cdist(points, points, name), axis=1)
        assert (np.diff(dist, axis=1) > 1e-12 * dist[:, 1:]).all()
    return points


@pytest.mark.parametrize("d", [1, 3, 16])
@pytest.mark.parametrize("metric", METRICS)
def test_nearest_and_neighbor_table_equal_a_kd_tree(metric, d):
    points = _tie_free(300, d, seed=d)
    X, p = points[::7] + 0.5, SCIPY[metric][1]
    for k in (2, 9):
        ref_dist, ref_idx = cKDTree(points[::2]).query(X, k=k, p=p)
        dist, idx = _nearest(points[::2], X, metric, k)
        assert np.array_equal(idx, ref_idx)
        np.testing.assert_allclose(dist, ref_dist, rtol=1e-13)
    ref_dist, ref_idx = cKDTree(points).query(points, k=9, p=p)
    dist, idx = neighbor_table(points, (metric,), 9)[metric]
    assert np.array_equal(idx, ref_idx) and (ref_idx[:, 0] == np.arange(300)).all()
    np.testing.assert_allclose(dist, ref_dist, rtol=1e-13, atol=0)


@pytest.mark.parametrize("d", [2, 16])
def test_within_a_fold_equals_a_kd_tree_over_the_folds_rows(d):
    # A grid reads each fold's validation rows' neighbours among its training
    # rows, and SMOTE each training row's among them, itself included; both
    # through the table of every row, renumbered to positions among the
    # inside rows.
    points = _tie_free(300, d, seed=10 + d)
    labels = np.random.default_rng(d).integers(0, 2, 300)
    k = 7
    lists = neighbor_table(points, METRICS, k + 8)
    for fold in stratified_kfold(labels, 8, seed=d).folds[:3]:
        inside = np.ones(300, dtype=bool)
        inside[fold] = False
        tree = cKDTree(points[inside])
        for rows in (np.flatnonzero(~inside), np.flatnonzero(inside)):
            got = _within(lists, points, rows, inside, k)
            for metric, (_, p) in SCIPY.items():
                ref_dist, ref_idx = tree.query(points[rows], k=k, p=p)
                assert np.array_equal(got[metric][1], ref_idx), metric
                np.testing.assert_allclose(got[metric][0], ref_dist, rtol=1e-13, atol=0)


def _model_file(tmp_path, cell, fit, name) -> tuple[dict, dict]:
    """A saved model file's scaler fields, and the rest of the file."""
    path = tmp_path / name
    save_model(cell, fit, path)
    raw = json.loads(path.read_text())
    return raw["preprocessing"].pop("scaler"), raw


@pytest.mark.parametrize("keep_fraction", [1.0, 0.5])
def test_power_of_two_column_scaling_changes_no_cell_but_its_scaler(tmp_path, keep_fraction):
    config = ExperimentConfig(synthetic={"n": 244, "seed": 7}, keep_fraction=keep_fraction)
    data = load_config_data(config)
    split = stratified_shuffle_split(data.labels, config.test_fraction, seed=config.seed)
    continuous = [j for j, c in enumerate(data.schema.feature_columns) if c.kind == KIND_CONTINUOUS]
    group = group_by_id("VII")
    base = {m: run_cell_fitted(data, group, MODEL_SPECS[m], config, split) for m in MODEL_IDS}
    for power in (-3, 20):
        rows = data.rows.copy()
        rows[:, continuous] *= 2.0**power
        scaled = Dataset(data.schema, rows, data.labels)
        for m in MODEL_IDS:
            (a, fit_a), (b, fit_b) = base[m], run_cell_fitted(scaled, group, MODEL_SPECS[m], config, split)
            assert (b.accuracy, b.f1, b.confusion, b.hyperparameters) == (
                a.accuracy, a.f1, a.confusion, a.hyperparameters), m
            assert json.dumps(b.cv_table) == json.dumps(a.cv_table), m
            scaler_a, rest_a = _model_file(tmp_path, a, fit_a, "a.json")
            scaler_b, rest_b = _model_file(tmp_path, b, fit_b, "b.json")
            assert rest_b == rest_a, m
            assert scaler_b != scaler_a, m  # the columns scaled did reach the scaler
