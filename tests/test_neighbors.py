import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineml import neighbors
from spineml.errors import KOutOfRangeError, WidthMismatchError
from spineml.neighbors import (
    _distances,
    _nearest,
    _prefix_vote,
    _vote,
    knn_fit,
    knn_predict,
    knn_predict_many,
)
from spineml.resampling import ResamplePlan, minority_basis

from helpers import brute_force_neighbors, make_dataset


def test_fit_stores_training_data_verbatim():
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
    model = knn_fit(ds, k=1)
    assert np.array_equal(model.points, ds.rows)
    assert np.array_equal(model.labels, ds.labels)


def test_k_out_of_range():
    ds = make_dataset([[1.0], [2.0]], [0, 1])
    with pytest.raises(KOutOfRangeError):
        knn_fit(ds, k=0)
    with pytest.raises(KOutOfRangeError):
        knn_fit(ds, k=3)


def test_k1_training_row_predicts_itself():
    ds = make_dataset([[0.0], [5.0], [9.0]], [1, 0, 1])
    model = knn_fit(ds, k=1)
    for row, label in zip(ds.rows, ds.labels):
        pred, frac = knn_predict(model, row)
        assert pred == label
        assert frac == 1.0


def test_k_equals_n_predicts_global_majority():
    ds = make_dataset([[0.0], [1.0], [2.0], [50.0]], [1, 1, 1, 0])
    model = knn_fit(ds, k=4)
    assert knn_predict(model, [49.0])[0] == 1


def test_two_near_a_points_beat_far_b():
    ds = make_dataset([[0.0], [1.0], [10.0]], [0, 0, 1])
    model = knn_fit(ds, k=2)
    pred, frac = knn_predict(model, [0.4])
    assert pred == 0
    assert frac == 1.0


def test_vote_tie_resolves_by_distance_then_label():
    # equidistant one-vs-one: summed distances equal -> lower label wins
    ds = make_dataset([[-1.0], [1.0]], [1, 0])
    model = knn_fit(ds, k=2)
    assert knn_predict(model, [0.0])[0] == 0
    # closer class wins the distance tie-break
    ds = make_dataset([[-1.0], [-1.0], [1.0], [0.8]], [1, 1, 0, 0])
    model = knn_fit(ds, k=4)
    assert knn_predict(model, [0.0])[0] == 0


def test_inverse_distance_weighting_changes_outcome():
    ds = make_dataset([[0.1], [2.0], [2.2]], [1, 0, 0])
    uniform = knn_fit(ds, k=3, weighting="uniform")
    weighted = knn_fit(ds, k=3, weighting="inverse-distance")
    x = [0.0]
    assert knn_predict(uniform, x)[0] == 0
    assert knn_predict(weighted, x)[0] == 1


def test_metric_changes_neighbor_order():
    ds = make_dataset([[3.0, 0.0], [2.0, 2.0]], [0, 1])
    x = [0.0, 0.0]
    euclid = knn_fit(ds, k=1, metric="euclidean")        # dists 3 vs 2.83
    manhattan = knn_fit(ds, k=1, metric="manhattan")     # dists 3 vs 4
    assert knn_predict(euclid, x)[0] == 1
    assert knn_predict(manhattan, x)[0] == 0


def test_neighbor_cutoff_tie_prefers_lower_index():
    ds = make_dataset([[1.0], [1.0], [1.0]], [1, 0, 0])
    model = knn_fit(ds, k=2)
    assert _nearest(model.points, np.array([[1.0]]), model.metric, model.k)[1][0].tolist() == [0, 1]


def test_kneighbors_matches_brute_force():
    rng = np.random.default_rng(17)
    for metric in ("euclidean", "manhattan"):
        for _ in range(20):
            n = int(rng.integers(3, 25))
            d = int(rng.integers(1, 5))
            rows = rng.normal(0, 1, size=(n, d))
            labels = rng.integers(0, 2, n)
            labels[0], labels[1] = 0, 1
            ds = make_dataset(rows, labels)
            k = int(rng.integers(1, n + 1))
            model = knn_fit(ds, k=k, metric=metric)
            x = rng.normal(0, 1, size=d)
            expected, _ = brute_force_neighbors(rows, x, k, metric)
            assert _nearest(model.points, np.array([x]), model.metric, model.k)[1][0].tolist() == expected


def test_width_mismatch():
    model = knn_fit(make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1]), k=1)
    with pytest.raises(WidthMismatchError):
        knn_predict(model, [1.0])
    with pytest.raises(WidthMismatchError):
        knn_predict(model, [1.0, 2.0, 3.0])


def test_predict_many_agrees_with_single():
    rng = np.random.default_rng(23)
    ds = make_dataset(rng.normal(0, 1, size=(30, 3)), rng.integers(0, 2, 30))
    model = knn_fit(ds, k=5, weighting="inverse-distance", metric="manhattan")
    X = rng.normal(0, 1, size=(12, 3))
    assert knn_predict_many(model, X).tolist() == [knn_predict(model, x)[0] for x in X]


def _oracle_vote(dist_k: np.ndarray, labels_k: np.ndarray, weighting: str) -> tuple[int, float]:
    """The one-row vote as it stood before the batch vote, kept verbatim."""
    if weighting == "uniform":
        weights = np.ones_like(dist_k)
    else:
        weights = 1.0 / (dist_k + 1e-12)
    classes = np.unique(labels_k)
    totals = np.array([weights[labels_k == c].sum() for c in classes])
    best = totals.max()
    tied = classes[totals == best]
    if tied.size > 1:
        sums = np.array([dist_k[labels_k == c].sum() for c in tied])
        tied = tied[sums == sums.min()]
    winner = int(tied.min())
    frac = float(totals[list(classes).index(winner)] / weights.sum())
    return winner, frac


WEIGHTINGS = st.sampled_from(["uniform", "inverse-distance"])


@settings(max_examples=300, deadline=None)
@given(
    q=st.integers(1, 8),
    k=st.integers(1, 21),
    weighting=WEIGHTINGS,
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_vote_matches_one_row_oracle_on_tie_prone_rows(q, k, weighting, seed):
    # Distances on a coarse grid, zero included, give exact weight ties
    # across classes and equal summed distances.
    rng = np.random.default_rng(seed)
    dist = np.sort(rng.integers(0, 5, size=(q, k)) / 2.0, axis=1)
    labels = rng.integers(0, 2, size=(q, k))
    want = [_oracle_vote(dist[i], labels[i], weighting)[0] for i in range(q)]
    assert _vote(dist, labels, weighting).tolist() == want


@settings(max_examples=300, deadline=None)
@given(
    q=st.integers(1, 8),
    k_max=st.integers(1, 21),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_vote_matches_the_vote_on_each_prefix(q, k_max, shared, seed):
    """Every (k ≤ k_max, weighting) combination of one prefix-sum vote gives
    `_vote`, and the one-row oracle, on its first k neighbors: exact ties,
    zero distances and even k included, with one shared neighbor list or one
    list per combination."""
    rng = np.random.default_rng(seed)
    combos = [(k, w) for k in range(1, k_max + 1) for w in ("uniform", "inverse-distance")]
    lists = 1 if shared else len(combos)
    dist = np.sort(rng.integers(0, 5, size=(lists, q, k_max)) / 2.0, axis=2)
    labels = rng.integers(0, 2, size=(lists, q, k_max))
    got = _prefix_vote(dist, labels, [k for k, _ in combos], [w for _, w in combos])
    assert got.shape == (len(combos), q)
    for c, (k, weighting) in enumerate(combos):
        c0 = 0 if shared else c
        want = _vote(dist[c0, :, :k], labels[c0, :, :k], weighting).tolist()
        assert got[c].tolist() == want == [
            _oracle_vote(dist[c0, i, :k], labels[c0, i, :k], weighting)[0] for i in range(q)]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 40),
    d=st.integers(1, 4),
    k=st.integers(1, 21),
    weighting=WEIGHTINGS,
    metric=st.sampled_from(["euclidean", "manhattan"]),
    duplicates=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_prediction_matches_one_row_oracle(n, d, k, weighting, metric, duplicates, seed):
    # Integer coordinates make equal distances common; duplicated minority
    # rows are what random oversampling appends; queries sit on training
    # rows (distance 0) as well as between them.
    rng = np.random.default_rng(seed)
    rows = rng.integers(-2, 3, size=(n, d)).astype(float)
    labels = rng.integers(0, 2, n)
    labels[0], labels[1] = 0, 1
    copies = rng.integers(0, n, size=duplicates)
    rows = np.vstack([rows, rows[copies]])
    labels = np.concatenate([labels, labels[copies]])
    k = min(k, rows.shape[0])
    model = knn_fit(make_dataset(rows, labels), k=k, weighting=weighting, metric=metric)
    X = np.vstack([rows[: min(n, 6)], rng.integers(-4, 5, size=(6, d)) / 2.0])
    dist = _distances(rows, X, metric)
    want = []
    for i, x in enumerate(X):
        order = np.argsort(dist[i], kind="stable")[:k]
        expected = _oracle_vote(dist[i, order], labels[order], weighting)
        assert knn_predict(model, x) == expected
        want.append(expected[0])
    assert knn_predict_many(model, X).tolist() == want


def test_batch_vote_settles_exact_ties_like_the_oracle():
    # even k, equal counts: the smaller summed distance wins, then the lower label
    dist = np.array([[1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0], [0.0, 0.0, 3.0, 3.0]])
    labels = np.array([[0, 1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 1]])
    for weighting in ("uniform", "inverse-distance"):
        want = [_oracle_vote(dist[i], labels[i], weighting)[0] for i in range(3)]
        assert _vote(dist, labels, weighting).tolist() == want
    assert _vote(dist, labels, "uniform").tolist() == [0, 1, 0]


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_chunked_distances_equal_unchunked_bytes(monkeypatch, metric):
    rng = np.random.default_rng(5)
    points = rng.normal(0, 3, size=(37, 6))
    X = rng.normal(0, 3, size=(23, 6))
    whole = _distances(points, X, metric)
    # below one row's block: one query row at a time
    monkeypatch.setattr(neighbors, "_CHUNK_BYTES", 1)
    assert _distances(points, X, metric).tobytes() == whole.tobytes()
    # uneven blocks of 4 rows
    monkeypatch.setattr(neighbors, "_CHUNK_BYTES", 4 * 8 * 37 * 6)
    assert _distances(points, X, metric).tobytes() == whole.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 30),
    q=st.integers(0, 12),
    d=st.integers(1, 3),
    k=st.integers(1, 40),
    metric=st.sampled_from(["euclidean", "manhattan"]),
    duplicates=st.integers(0, 10),
    block_rows=st.sampled_from([None, 1, 2, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearest_equals_a_full_stable_sort(n, q, d, k, metric, duplicates, block_rows, seed):
    # Coarse-grid coordinates and duplicated rows make equal distances
    # common, so the index tie-break decides; k may exceed n; small
    # _CHUNK_BYTES splits the queries into blocks of `block_rows` rows.
    rng = np.random.default_rng(seed)
    points = rng.integers(-2, 3, size=(n, d)).astype(float)
    points = np.vstack([points, points[rng.integers(0, n, size=duplicates)]])
    X = np.vstack([points[:q], rng.integers(-4, 5, size=(q, d)) / 2.0])
    dist = _distances(points, X, metric)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(neighbors, "_CHUNK_BYTES", block_rows * 8 * points.size)
        got_dist, got_idx = _nearest(points, X, metric, k)
    assert got_idx.shape == order.shape and got_idx.tobytes() == order.tobytes()
    assert got_dist.tobytes() == np.take_along_axis(dist, order, axis=1).tobytes()


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_neighbor_memory_is_linear_in_n():
    # One full 3 000 × 3 000 float64 distance matrix is about 72 MB; the
    # blocked top-k holds one block of distances plus n × k results.
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(6500, 4))
    ds = make_dataset(rows, np.array([0] * 3500 + [1] * 3000))
    assert _peak_mb(minority_basis, ds, ResamplePlan("smote")) < 24
    model = knn_fit(make_dataset(rows[:3000], np.arange(3000) % 2), k=21)
    assert _peak_mb(knn_predict_many, model, rows[3000:6000]) < 24


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_distance_block_peak_stays_near_the_chunk_bound(metric):
    # _CHUNK_BYTES bounds one block's difference tensor; squaring or taking
    # the absolute value in place keeps a second tensor of that size away.
    points = np.random.default_rng(1).normal(size=(3000, 4))
    step = neighbors._CHUNK_BYTES // (8 * points.size)
    assert _peak_mb(_distances, points, points[:step], metric) <= (
        1.6 * neighbors._CHUNK_BYTES / 2**20)
