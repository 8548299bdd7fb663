import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from spineml import model_selection, neighbors
from spineml.errors import KOutOfRangeError, PipelineError, WidthMismatchError
from spineml.model_selection import ParamGrid, grid_search, stratified_kfold
from spineml.neighbors import (
    METRICS,
    NeighborTables,
    _distances,
    _nearest,
    _nearest_each,
    _prefix_vote,
    _top_k,
    _vote,
    _within,
    knn_fit,
    knn_predict,
    knn_predict_many,
    neighbor_table,
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
    dist = _distances(rows, X, (metric,))[metric]
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
    """`_nearest_each` blocks its query rows under `_CHUNK_BYTES`; every
    blocking gives each metric's `_top_k` of one unblocked `_distances`
    call, bit for bit. `metric` is the one asked first."""
    rng = np.random.default_rng(5)
    points = np.round(rng.normal(0, 3, size=(37, 6)))  # whole numbers, so that distances tie
    X = np.round(rng.normal(0, 3, size=(23, 6)))
    metrics = (metric, *(m for m in METRICS if m != metric))
    calls = []
    spy = lambda points, X, metrics: calls.append(X.shape[0]) or _distances(points, X, metrics)  # noqa: E731
    monkeypatch.setattr(neighbors, "_distances", spy)
    # below one row's block: one query row at a time; then blocks of 4 rows, the last of 3
    for chunk, blocks in ((1, [1] * 23), (4 * 8 * 37 * 6, [4] * 5 + [3])):
        monkeypatch.setattr(neighbors, "_CHUNK_BYTES", chunk)
        for k in (5, 40):
            whole = _distances(points, X, metrics)
            calls.clear()
            got = _nearest_each(points, X, metrics, k)
            assert calls == blocks
            assert list(got) == list(metrics)
            for m in metrics:
                want = _top_k(whole[m], k)
                assert [(a.dtype, a.shape, a.tobytes()) for a in got[m]] == \
                    [(a.dtype, a.shape, a.tobytes()) for a in want]


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
    dist = _distances(points, X, (metric,))[metric]
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(neighbors, "_CHUNK_BYTES", block_rows * 8 * points.size)
        got_dist, got_idx = _nearest(points, X, metric, k)
    assert got_idx.shape == order.shape and got_idx.tobytes() == order.tobytes()
    assert got_dist.tobytes() == np.take_along_axis(dist, order, axis=1).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 30),
    q=st.integers(0, 12),
    d=st.integers(1, 4),
    k=st.integers(1, 40),
    coarse=st.booleans(),
    block_rows=st.sampled_from([1, 2, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_metrics_from_one_difference_tensor_equal_distances(n, q, d, k, coarse, block_rows, seed):
    # Coarse grids give exact ties; the wide exponents give squares that
    # underflow or overflow, where |a|·|a| must still round like a·a.
    rng = np.random.default_rng(seed)
    if coarse:
        points = rng.integers(-2, 3, size=(n, d)).astype(float)
        X = rng.integers(-4, 5, size=(q, d)) / 2.0
    else:
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-170, 170, size=(n, d))
        X = rng.normal(size=(q, d)) * 10.0 ** rng.integers(-170, 170, size=(q, d))
    with np.errstate(over="ignore"), pytest.MonkeyPatch.context() as mp:
        want = {metric: _distances(points, X, (metric,))[metric] for metric in METRICS}
        oracle = helpers._both_distances(points, X)
        both = _distances(points, X, METRICS)
        blocks = [_distances(points, X[r:r + block_rows], METRICS) for r in range(0, q, block_rows)]
        lists = {metric: _nearest(points, X, metric, k) for metric in METRICS}
        mp.setattr(neighbors, "_CHUNK_BYTES", block_rows * 8 * points.size)
        blocked = _nearest_each(points, X, METRICS, k)
    for metric in METRICS:
        assert both[metric].tobytes() == want[metric].tobytes() == oracle[metric].tobytes()
        if blocks:
            assert np.concatenate([b[metric] for b in blocks]).tobytes() == want[metric].tobytes()
    for metric in METRICS:
        assert [a.tobytes() for a in blocked[metric]] == [a.tobytes() for a in lists[metric]]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    q=st.integers(0, 12),
    d=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_metric_of_distances_has_the_bits_of_the_one_metric_body(n, q, d, seed):
    # `_distances` is the one body that forms and reduces a difference
    # tensor: each metric's values have the bits of the one-metric body it
    # replaced (kept in helpers), measured alone or with the other metric in
    # either order. Wide exponents make the order of a sum show, and squares
    # underflow or overflow.
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-170, 170, size=(n, d))
    X = rng.normal(size=(q, d)) * 10.0 ** rng.integers(-170, 170, size=(q, d))
    for metric in METRICS:
        with np.errstate(over="ignore"):
            want = helpers._one_distances(points, X, metric).tobytes()
        assert _distances(points, X, (metric,))[metric].tobytes() == want
        for both in (METRICS, METRICS[::-1]):
            assert _distances(points, X, both)[metric].tobytes() == want


class _CountingNumpy:
    """numpy, with `subtract` counting the elements of every array it forms."""

    def __init__(self):
        self.formed = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, *args, **kwargs):
        out = np.subtract(*args, **kwargs)
        self.formed += out.size
        return out


def test_every_difference_tensor_is_one_distances_call(monkeypatch):
    # The benchmark's tracer counts distance work as q·n·d of each call named
    # `_distances`; so every tensor the neighbors module forms, one metric or
    # two, in the table, the direct searches and the grid's appended rows,
    # must come from one such call. Small blocks make many calls.
    rng = np.random.default_rng(2)
    points, X = rng.normal(size=(60, 3)), rng.normal(size=(17, 3))
    ds = make_dataset(points, (np.arange(60) % 3 == 0).astype(np.int64))
    grid = ParamGrid("knn", {"k": (1, 5, 21), "weighting": ("uniform",), "metric": METRICS})
    folds = stratified_kfold(ds.labels, 4, seed=0)
    counting, seen, real = _CountingNumpy(), [], neighbors._distances

    def spy(points, X, metrics):
        seen.append(len(X) * points.size)
        return real(points, X, metrics)

    monkeypatch.setattr(neighbors, "np", counting)
    monkeypatch.setattr(neighbors, "_distances", spy)
    monkeypatch.setattr(model_selection, "_distances", spy)
    monkeypatch.setattr(neighbors, "_CHUNK_BYTES", 2000)
    monkeypatch.setattr(NeighborTables, "SPARE", 0)
    for run in (lambda: neighbor_table(points, METRICS, 7), lambda: _nearest_each(points, X, METRICS, 7),
                lambda: grid_search(ds, grid, folds, ResamplePlan("smote"))):
        counting.formed, seen[:] = 0, []
        run()
        assert len(seen) > 1 and sum(seen) == counting.formed > 0


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 9),
    q=st.integers(1, 9),
    d=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_distances_have_the_bits_of_one_row_queries_for_any_layout(n, q, d, seed):
    # Wide exponents make the order of a row's sum show in its last bits.
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
    X = rng.normal(size=(q, d)) * 10.0 ** rng.integers(-3, 4, size=(q, d))
    want = {metric: np.vstack([_distances(points, x[None], (metric,))[metric] for x in X]) for metric in METRICS}
    for P in helpers.layouts(points):
        for Q in helpers.layouts(X):
            both = _distances(P, Q, METRICS)
            for metric in METRICS:
                assert _distances(P, Q, (metric,))[metric].tobytes() == want[metric].tobytes()
                assert both[metric].tobytes() == want[metric].tobytes()


@pytest.mark.parametrize("metric", METRICS)
def test_batch_prediction_matches_one_row_prediction_on_a_fortran_ordered_block(metric):
    # The two stored rows' differences from the query (the origin) are
    # permutations of each other: their distances are equal but for
    # rounding, and the order of the sum decides which row is nearer. With
    # a sum that followed the block's layout, the Fortran-ordered block got
    # the labels [1, 1] and the one-row calls [0, 0].
    v = np.array([173.966, -1670.85, 0.83, -0.001, -1.173, 637.751, 0.001, 493.028])
    ds = make_dataset(np.vstack([v, v[[0, 5, 6, 1, 3, 7, 2, 4]]]), [0, 1])
    model = knn_fit(ds, k=1, metric=metric)
    X = np.asfortranarray(np.zeros((2, v.size)))
    assert knn_predict_many(model, X).tolist() == [knn_predict(model, x)[0] for x in X]


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_nearest_keeps_the_lowest_indices_when_every_point_ties(metric):
    # the k-th distance ties with every column, so all are candidates
    points = np.full((9, 3), 0.25)
    for k in (1, 4, 8):
        dist, idx = _nearest(points, np.full((2, 3), 0.25), metric, k)
        assert idx.tolist() == [list(range(k))] * 2
        assert dist.tolist() == [[0.0] * k] * 2


def test_top_k_orders_inf_and_nan_like_a_full_stable_sort():
    nan, inf = np.nan, np.inf
    dist = np.array([[nan, 1.0, inf, 1.0, nan, 0.0],
                     [inf, inf, nan, inf, nan, nan],
                     [nan, nan, nan, 2.0, nan, 2.0],
                     [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]])
    for k in range(1, 8):
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        got_dist, got_idx = _top_k(dist, k)
        assert got_idx.tobytes() == order.tobytes()
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
    assert _peak_mb(minority_basis, NeighborTables(ds.rows, ds.labels), ResamplePlan("smote")) < 24
    model = knn_fit(make_dataset(rows[:3000], np.arange(3000) % 2), k=21)
    assert _peak_mb(knn_predict_many, model, rows[3000:6000]) < 24


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_distance_block_peak_stays_near_the_chunk_bound(metric):
    # _CHUNK_BYTES bounds one block's difference tensor; squaring or taking
    # the absolute value in place keeps a second tensor of that size away.
    points = np.random.default_rng(1).normal(size=(3000, 4))
    step = neighbors._CHUNK_BYTES // (8 * points.size)
    assert _peak_mb(_distances, points, points[:step], (metric,)) <= (
        1.6 * neighbors._CHUNK_BYTES / 2**20)


@pytest.mark.parametrize("method", ["random_over", "smote"])
def test_oversampled_grid_search_memory_is_linear_in_n(method):
    # One 2 500 × 2 500 float64 matrix is 50 MB, and one per combination of
    # the fold's validation × training rows 65 MB. The grid holds distance
    # blocks under _CHUNK_BYTES and neighbor lists of validation rows ×
    # combinations × k, so its peak grows linearly in n.
    n = 2500
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.normal(size=(n, 4)), (np.arange(n) % 5 < 2).astype(np.int64))
    grid = ParamGrid("knn", {"k": (1, 5, 21), "weighting": ("uniform", "inverse-distance"),
                             "metric": ("euclidean", "manhattan")})
    folds = stratified_kfold(ds.labels, 8, seed=0)
    bound = 2 * neighbors._CHUNK_BYTES / 2**20 + 4 * n / 1024  # 8 MB + 4 KB per row
    assert _peak_mb(grid_search, ds, grid, folds, ResamplePlan(method)) < bound



def _coarse_rows(rng, n, d, duplicates):
    """Coarse-grid rows, some repeated: equal distances everywhere, so the
    index tie-break decides."""
    points = rng.integers(-2, 3, size=(n, d)).astype(float)
    return np.vstack([points, points[rng.integers(0, n, size=duplicates)]])


def test_neighbor_table_equals_a_full_stable_sort_under_every_tile_cap(monkeypatch):
    # A 1-byte cap makes 1 × 1 tiles; the largest holds the whole matrix.
    rng = np.random.default_rng(3)
    points = np.vstack([_coarse_rows(rng, 45, 3, 7) / 2.0, rng.normal(size=(12, 3))])
    k = 30
    tables = []
    for chunk in (1, 8, 100, 1000, 2**12, 2**15, 2**22):
        monkeypatch.setattr(neighbors, "_CHUNK_BYTES", chunk)
        tables.append(neighbor_table(points, METRICS, k))
    for metric in METRICS:
        dist = _distances(points, points, (metric,))[metric]
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        for table in tables:
            assert table[metric][0].tobytes() == tables[0][metric][0].tobytes()
            assert table[metric][1].tobytes() == tables[0][metric][1].tobytes()
        assert tables[0][metric][0].tobytes() == np.take_along_axis(dist, order, axis=1).tobytes()
        assert np.array_equal(tables[0][metric][1], order)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 60),
    d=st.integers(1, 3),
    duplicates=st.integers(0, 12),
    n_folds=st.integers(2, 8),
    k_max=st.integers(1, 40),
    spare=st.sampled_from([0, 1, 8]),
    metrics=st.sampled_from([("euclidean",), ("manhattan",), METRICS]),
    chunk=st.sampled_from([None, 1, 64, 2000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_filtered_table_equals_each_folds_own_neighbor_search(n, d, duplicates, n_folds, k_max, spare, metrics,
                                                             chunk, seed):
    """A fold's cache read from the partition's one table equals measuring
    the fold's validation rows against its training rows, the cache it
    replaced (kept in helpers): coarse grids with duplicated rows, k_max at
    or above a fold's training rows, uneven folds whose tiny training sets
    leave rows short of entries (the direct path), and tiles split small."""
    rng = np.random.default_rng(seed)
    points = _coarse_rows(rng, n, d, duplicates)
    ds = make_dataset(points, rng.integers(0, 2, len(points)))
    fold_of = rng.choice(n_folds, size=len(points), p=rng.dirichlet(np.full(n_folds, 0.3)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NeighborTables, "SPARE", spare)
        if chunk is not None:
            mp.setattr(neighbors, "_CHUNK_BYTES", chunk)
        lists = NeighborTables(ds.rows, ds.labels).lists(metrics, k_max)
    for f in range(n_folds):
        inside = fold_of != f
        if not inside.any():
            continue
        va, tr = np.flatnonzero(~inside), np.flatnonzero(inside)
        got = _within(lists, ds.rows, va, inside, k_max)
        want = helpers.fold_cache(ds, tr, va, metrics, k_max)
        for metric in metrics:
            assert got[metric][0].shape == want[metric][0].shape
            assert got[metric][0].tobytes() == want[metric][0].tobytes()
            assert got[metric][1].tobytes() == want[metric][1].tobytes()


def test_rows_left_short_by_a_fold_are_measured_directly(monkeypatch):
    # The fold's 4 training rows lie far from its 40 validation rows, so a
    # validation row's table list (k_max + SPARE = 11 entries) holds none of
    # them, while the training rows' own lists hold only each other.
    rng = np.random.default_rng(0)
    points = np.vstack([rng.normal(size=(40, 2)), rng.normal(50, 1, size=(4, 2))])
    inside = np.arange(44) >= 40
    measured = []

    def counting(points, X, metrics, k):
        measured.append(len(X))
        return _nearest_each(points, X, metrics, k)

    lists = neighbor_table(points, METRICS, 3 + NeighborTables.SPARE)
    monkeypatch.setattr(neighbors, "_nearest_each", counting)
    rows = np.arange(44)
    got = _within(lists, points, rows, inside, 3)
    assert measured == [40]  # the 40 short rows, in one call
    want = _nearest_each(points[inside], points, METRICS, 3)
    for metric in METRICS:
        assert [a.tobytes() for a in got[metric]] == [a.tobytes() for a in want[metric]]


def test_a_table_is_built_once_and_then_kept(monkeypatch):
    # Two asks for the same table build it once and get the same object.
    built, real = [], neighbor_table

    def counting(points, metrics, k):
        built.append(k)
        return real(points, metrics, k)

    monkeypatch.setattr(neighbors, "neighbor_table", counting)
    tables = NeighborTables(np.random.default_rng(1).normal(size=(300, 4)), np.arange(300) % 2)
    got = [tables.lists(METRICS, 5) for _ in range(2)]
    assert built == [5 + NeighborTables.SPARE]
    assert got[1] is got[0]
    assert got[0]["euclidean"][0].shape == (300, 5 + NeighborTables.SPARE)


@settings(max_examples=200, deadline=None)
@given(
    n0=st.integers(1, 25),
    n1=st.integers(1, 25),
    d=st.integers(1, 3),
    duplicates=st.integers(0, 8),
    smote_k=st.integers(1, 8),
    held=st.floats(0.3, 1.0),
    spare=st.sampled_from([0, 8]),
    chunk=st.sampled_from([None, 1, 500]),
    seed=st.integers(0, 2**32 - 1),
)
def test_filtered_minority_tables_give_the_direct_smote_basis(n0, n1, d, duplicates, smote_k, held, spare, chunk,
                                                             seed):
    """A SMOTE basis read from the partition's minority table, filtered to a
    subset of its rows (a fold's training rows, or all of them for the final
    fit), equals the basis built by its own neighbor search (kept in
    helpers): either label the minority, duplicated rows at distance 0 from
    the row itself, k + 1 above the pool, and subsets too small for SMOTE."""
    rng = np.random.default_rng(seed)
    points = _coarse_rows(rng, n0 + n1, d, duplicates)
    labels = rng.permutation(np.r_[np.zeros(n0, dtype=np.int64), np.ones(n1 + duplicates, dtype=np.int64)])
    ds = make_dataset(points, labels)
    rows = np.flatnonzero(rng.random(ds.n) < held) if held < 1.0 else np.arange(ds.n)
    sub, plan = ds.take(rows), ResamplePlan("smote", smote_k=smote_k)
    mask = np.zeros(ds.n, dtype=bool)
    mask[rows] = True
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NeighborTables, "SPARE", spare)
        if chunk is not None:
            mp.setattr(neighbors, "_CHUNK_BYTES", chunk)
        tables = NeighborTables(ds.rows, ds.labels)
        try:
            want = helpers.minority_basis(sub, plan)
        except PipelineError as exc:
            with pytest.raises(type(exc), match=str(exc)):
                minority_basis(tables, plan, mask)
            return
        got = minority_basis(tables, plan, mask)
    assert (got.minority, got.need, got.pool.tobytes()) == (want.minority, want.need, want.pool.tobytes())
    assert (got.neighbors is None) == (want.neighbors is None)
    if want.neighbors is not None:
        assert got.neighbors.tobytes() == want.neighbors.tobytes()
