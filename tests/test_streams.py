import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers

from spineml.dataset import Dataset
from spineml.metrics import confusion, f1
from spineml.model_selection import ParamGrid, grid_search, stratified_kfold
from spineml.neighbors import knn_fit, knn_predict_many
from spineml.resampling import METHODS, MinorityBasis, ResamplePlan, _draw, _draw_many
from spineml.streams import _Draws, _entropy, _rng_words, _seed_hash

# 0, one, two and more than two 32-bit words of entropy
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(2**64, 2**200))


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(SEEDS, min_size=1, max_size=6), rows=st.integers(1, 4), n_words=st.integers(1, 12))
def test_seed_hash_is_numpy_seed_sequence(parts, rows, n_words):
    """Rows of one entropy length, up to 4 · 7 words, so past the pool of 4
    the extra mixing loop runs; each row is its own numpy SeedSequence."""
    entropy = np.array([_entropy(*parts[i:], *parts[:i]) for i in range(rows)], dtype=np.uint32)
    want = np.array([np.random.SeedSequence(tuple(row.tolist())).generate_state(n_words) for row in entropy])
    got = _seed_hash(entropy, n_words)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(SEEDS, min_size=1, max_size=4))
def test_derive_seed_is_the_numpy_oracle(parts):
    """The first hashed word of `_entropy(*parts)` is the seed grid search
    derives for a (seed, combination, fold) `parts`."""
    derived = _seed_hash(np.array([_entropy(*parts)], dtype=np.uint32), 1)
    assert int(derived[0, 0]) == helpers.derive_seed(*parts)


@pytest.mark.parametrize("parts", [(-1,), (42, -3, 0), (2**70, 1, -(2**40))])
def test_a_negative_entropy_part_raises_as_numpy_does(parts):
    with pytest.raises(ValueError) as want:
        helpers.derive_seed(*parts)
    with pytest.raises(ValueError) as got:
        _entropy(*parts)
    assert str(got.value) == str(want.value)


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=4), n=st.integers(1, 9))
def test_seeded_streams_are_default_rng_streams(seeds, n):
    draws = _Draws(np.vstack([_rng_words([_entropy(s)]) for s in seeds]), n)
    want = np.array([np.random.default_rng(s).bit_generator.random_raw(n) for s in seeds])
    assert draws.words.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seeds=st.lists(SEEDS, min_size=1, max_size=3),
    offset=st.integers(0, 2**30),
    q=st.integers(1, 40),
    kept=st.booleans(),
    block=st.sampled_from([1, 3, 64]),
    after=st.integers(0, 5),
)
def test_seeded_bounded_draws_reject_as_numpy_integers_does(seeds, offset, q, kept, block, after):
    """Below m + 1 with m = 2³¹ + offset, Lemire's rule redraws about half of
    all 32-bit draws. With or without a kept half first, and words read
    `block` at a time, the seeded streams give `integers`' values and leave
    each stream where numpy does: `integers(0, 1, size)` draws nothing and
    `random` takes the next whole words."""
    m = 2**31 + offset
    streams = np.arange(len(seeds))
    draws = _Draws(np.vstack([_rng_words([_entropy(s)]) for s in seeds]), block)
    got = [draws.bounded(streams, [7])] if kept else []
    got += [draws.bounded(streams, np.ones(2, dtype=np.int64)), draws.bounded(streams, np.full(q, m + 1)),
            draws.random(streams, np.full(len(seeds), after)).reshape(len(seeds), after)]
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        want = [rng.integers(0, 7, size=1)] if kept else []
        want += [rng.integers(0, 1, size=2), rng.integers(0, m + 1, size=q), rng.random(after)]
        assert [g[b].tolist() for g in got] == [w.tolist() for w in want]


@settings(max_examples=150, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    n_pool=st.integers(1, 300),
    extra=st.integers(0, 20),
    need=st.one_of(st.integers(1, 40), st.integers(41, 3000)),
    k=st.integers(1, 8),
    d=st.integers(1, 3),
    seed=SEEDS,
    batch=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_draws_are_numpy_generator_draws(method, n_pool, extra, need, k, d, seed, batch, data_seed):
    """`_draw` under any seed, and `_draw_many` over the one-word seeds grid
    search derives, give the numpy oracle's rows, bit for bit: pools of one
    row (no draw for random oversampling), SMOTE with one neighbor column
    (no draw for the picks), and up to thousands of rows needed."""
    rng = np.random.default_rng(data_seed)
    if method == "smote":
        n_pool, k = max(n_pool, 2), min(k, max(n_pool, 2) - 1)
    rows = rng.normal(size=(n_pool + extra, d))
    pool = np.sort(rng.choice(n_pool + extra, n_pool, replace=False))
    basis = MinorityBasis(1, need, pool, rng.integers(0, n_pool, size=(n_pool, k)) if method == "smote" else None)
    for matrix in (rows, np.arange(n_pool + extra)) if method == "random_over" else (rows,):
        want = helpers._draw(matrix, method, basis, seed)
        got = _draw(matrix, method, basis, seed)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        want = np.stack([helpers._draw(matrix, method, basis, s) for s in batch])
        got = _draw_many(matrix, method, basis, _rng_words(np.array(batch, dtype=np.uint32)[:, None]))
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_a_negative_seed_raises_as_numpy_does():
    basis = MinorityBasis(1, 3, np.arange(2))
    with pytest.raises(ValueError) as want:
        helpers._draw(np.arange(4), "random_over", basis, -5)
    with pytest.raises(ValueError) as got:
        _draw(np.arange(4), "random_over", basis, -5)
    assert str(got.value) == str(want.value)


def _numpy_oversampled(sub: Dataset, plan: ResamplePlan, seed: int) -> Dataset:
    basis = helpers.minority_basis(sub, plan)
    if basis.need <= 0:
        return sub
    new = helpers._draw(sub.rows, plan.method, basis, seed)
    return Dataset(sub.schema, np.vstack([sub.rows, new]),
                   np.concatenate([sub.labels, np.full(len(new), basis.minority)]))


@pytest.mark.parametrize("method", METHODS)
def test_grid_draws_are_each_combination_and_folds_numpy_stream(method):
    """Every (combination, fold) of a resampled grid is oversampled by
    `default_rng(SeedSequence((seed, ci, fi)))`: refitting each one on the
    numpy oracle's rows gives the grid's fold scores."""
    rng = np.random.default_rng(8)
    ds = helpers.make_dataset(np.round(rng.normal(size=(60, 2)), 1), np.array([0] * 42 + [1] * 18))
    folds = stratified_kfold(ds.labels, 4, seed=1)
    grid = ParamGrid("knn", {"k": (1, 4, 9), "weighting": ("uniform", "inverse-distance"),
                             "metric": ("euclidean",)})
    plan = ResamplePlan(method)
    _, table = grid_search(ds, grid, folds, resample=plan, seed=2**40 + 3)
    for ci, (row, combo) in enumerate(zip(table, grid.combos())):
        for fi, va in enumerate(folds.folds):
            sub = _numpy_oversampled(ds.take(np.setdiff1d(np.arange(ds.n), va)), plan,
                                     helpers.derive_seed(2**40 + 3, ci, fi))
            model = knn_fit(sub, combo["k"], combo["weighting"], combo["metric"])
            assert row["fold_scores"][fi] == f1(confusion(ds.labels[va], knn_predict_many(model, ds.rows[va])))
