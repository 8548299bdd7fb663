"""Oracles from outside the code's own lineage.

The neighbour kernels are checked against scipy's `cdist` and `cKDTree`,
GaussianNB against `scipy.stats.norm`, ComplementNB against the complement
weights of Rennie et al. (ICML 2003) and SMOTE against the construction of
Chawla et al. (JAIR 2002), each written from its own definition, not
against code this package once held. Whole cells are checked by two
metamorphic relations: multiplying every continuous column by a power of
two is exact, and it commutes with the rounding of sums, means, square
roots and division, so standardized and min-max values keep their bits and
every result must too; and an increasing affine map of the ordinal codes
keeps their ranks and their nearest codes, which are all that the rank
encoding reads.
"""

import json
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from scipy.stats import norm

from helpers import make_dataset

from spineml.dataset import Dataset
from spineml.experiment import MODEL_IDS, MODEL_SPECS, ExperimentConfig, load_config_data, run_cell_fitted
from spineml.model_selection import stratified_kfold, stratified_shuffle_split
from spineml.naive_bayes import _SMOOTHING_FACTOR, _gnb_log_posteriors, cnb_fit, cnb_predict_many, gnb_fit, gnb_predict_many
from spineml.neighbors import METRICS, _distances, _nearest, _within, neighbor_table
from spineml.persist import save_model
from spineml.resampling import ResamplePlan, oversample
from spineml.schema import KIND_CONTINUOUS, KIND_ORDINAL, group_by_id

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
    for power in (-3, 2, 20):
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


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), sizes=st.tuples(st.integers(2, 12), st.integers(2, 12)), seed=st.integers(0, 2**32 - 1))
def test_gaussian_nb_equals_scipy_normal_log_densities_plus_the_log_prior(d, sizes, seed):
    # Each class's joint log-likelihood, from the definition: the log prior
    # (class frequency) plus, per feature, scipy's normal log density at the
    # class's mean, with its n − 1 variance plus the module's smoothing
    # (_SMOOTHING_FACTOR times the largest variance over all rows, or 1 if
    # every column is constant). Means and variances come from `statistics`,
    # exactly rounded. The two sides round differently, so they must agree
    # within 1e-9 of (1 + |value|); labels must be equal wherever the two
    # best classes are more than 1e-6 apart.
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], sizes)
    rows = rng.normal(labels[:, None] * rng.uniform(0, 2, d), rng.uniform(0.2, 3, d), (labels.size, d))
    X = rng.normal(0.5, 2.0, (20, d))
    model = gnb_fit(make_dataset(rows, labels))
    largest = max(statistics.variance(rows[:, j].tolist()) for j in range(d))
    smoothing = _SMOOTHING_FACTOR * (largest if largest > 0 else 1.0)
    ref = np.zeros((len(X), 2))
    for c in (0, 1):
        block = rows[labels == c]
        ref[:, c] = math.log(len(block) / len(rows))
        for j in range(d):
            column = block[:, j].tolist()
            scale = math.sqrt(statistics.variance(column) + smoothing)
            ref[:, c] += norm.logpdf(X[:, j], loc=statistics.fmean(column), scale=scale)
    assert (np.abs(_gnb_log_posteriors(model, X) - ref) <= 1e-9 * (1 + np.abs(ref))).all()
    got_labels, _ = gnb_predict_many(model, X)
    clear = np.abs(ref[:, 0] - ref[:, 1]) > 1e-6
    assert (got_labels[clear] == np.argmax(ref, axis=1)[clear]).all()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 30), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_complement_nb_weights_are_rennies_complement_log_frequencies(n, d, seed):
    # Rennie et al., Tackling the Poor Assumptions of Naive Bayes Text
    # Classifiers (ICML 2003), eq. 6: the weight of class c and feature i is
    # log((alpha + N_~ci) / (alpha * d + N_~c)), N_~ci being feature i's count
    # over the rows of every class but c and N_~c the sum of those over i; a
    # row takes the class whose complement it matches least, argmin_c
    # sum_i f_i w_ci. On integer counts the ratio is one exact fraction,
    # rounded once, so the weights agree to the last bits of the logarithm.
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 2)
    rows = rng.integers(0, 10, (n, d))
    model = cnb_fit(make_dataset(rows.astype(float), labels))
    alpha = 1
    weights = np.zeros((2, d))
    for c in (0, 1):
        counts = [int(v) for v in rows[labels != c].sum(axis=0)]
        weights[c] = [math.log(Fraction(alpha + count, alpha * d + sum(counts))) for count in counts]
    np.testing.assert_allclose(model.weights, weights, rtol=1e-15, atol=0)
    X = rng.integers(0, 10, (15, d))
    ref = np.array([[math.fsum(f * w for f, w in zip(x, weights[c])) for c in (0, 1)] for x in X.tolist()])
    got_labels, scores = cnb_predict_many(model, X.astype(float))
    np.testing.assert_allclose(scores, ref, rtol=1e-12, atol=1e-12)
    clear = np.abs(ref[:, 0] - ref[:, 1]) > 1e-9
    assert (got_labels[clear] == np.argmin(ref, axis=1)[clear]).all()


def _imbalanced(seed):
    """Tie-free normal rows, 14–20 of label 1 and 40 of label 0."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat([0, 1], [40, int(rng.integers(14, 21))]))
    return make_dataset(_tie_free(labels.size, 3, seed), labels)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("smote_k", [1, 3, 5])
def test_smote_rows_lie_between_a_minority_row_and_one_of_its_k_nearest_minority_rows(seed, smote_k):
    # Chawla et al., SMOTE (JAIR 16, 2002): each new row is x + lam * (z - x)
    # for a minority row x, one of x's smote_k nearest minority rows z (here
    # by cKDTree, without x itself) and lam in [0, 1). Each new row is tested
    # against every such segment: the nearest point of some segment must be
    # the row, up to rounding, at a lam inside [0, 1).
    train = _imbalanced(seed)
    out = oversample(train, ResamplePlan("smote", smote_k=smote_k, seed=seed))
    minority = train.rows[train.labels == 1]
    _, near = cKDTree(minority).query(minority, k=smote_k + 1, p=2)
    assert (near[:, 0] == np.arange(len(minority))).all()
    x, step = minority[:, None, :], minority[near[:, 1:]] - minority[:, None, :]  # (m, k, d)
    new = out.rows[train.n:]
    assert len(new) and (out.labels[train.n:] == 1).all()
    for row in new:
        lam = ((row - x) * step).sum(axis=2) / (step * step).sum(axis=2)
        miss = np.linalg.norm(x + lam[..., None] * step - row, axis=2)
        best = np.unravel_index(np.argmin(miss), miss.shape)
        assert miss[best] <= 1e-12 * (1 + np.abs(row).max())
        assert -1e-12 <= lam[best] < 1 + 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("method", ["random_over", "smote"])
def test_oversampling_balances_the_classes_exactly(seed, method):
    # Random oversampling appends copies of minority rows; both methods
    # append minority rows until the two classes are equal in size.
    train = _imbalanced(seed)
    out = oversample(train, ResamplePlan(method, seed=seed))
    assert np.array_equal(out.rows[:train.n], train.rows) and np.array_equal(out.labels[:train.n], train.labels)
    assert np.bincount(out.labels).tolist() == [40, 40]
    if method == "random_over":
        minority = {tuple(row) for row in train.rows[train.labels == 1].tolist()}
        assert all(tuple(row) in minority for row in out.rows[train.n:].tolist())


@pytest.mark.parametrize("keep_fraction", [1.0, 0.5])
def test_an_increasing_affine_map_of_the_ordinal_codes_changes_no_cell(keep_fraction):
    # The rank encoding reads only the order of a column's training codes and,
    # for a code training never saw, the nearest of them (a midpoint tie
    # stays a midpoint tie). An increasing affine map keeps both; a map that
    # is only increasing keeps the nearest code only where every test code is
    # a training code.
    config = ExperimentConfig(synthetic={"n": 244, "seed": 7}, keep_fraction=keep_fraction)
    data = load_config_data(config)
    split = stratified_shuffle_split(data.labels, config.test_fraction, seed=config.seed)
    ordinal = [j for j, c in enumerate(data.schema.feature_columns) if c.kind == KIND_ORDINAL]
    rows = data.rows.copy()
    rows[:, ordinal] = 3 * rows[:, ordinal] + 7
    mapped = Dataset(data.schema, rows, data.labels)
    for group in (group_by_id("III"), group_by_id("VI"), group_by_id("VII")):
        for m in MODEL_IDS:
            a, _ = run_cell_fitted(data, group, MODEL_SPECS[m], config, split)
            b, _ = run_cell_fitted(mapped, group, MODEL_SPECS[m], config, split)
            assert (b.accuracy, b.f1, b.confusion, b.hyperparameters, b.error) == (
                a.accuracy, a.f1, a.confusion, a.hyperparameters, a.error), (group.id, m)
            assert json.dumps(b.cv_table) == json.dumps(a.cv_table), (group.id, m)
