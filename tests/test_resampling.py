import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineml.errors import MinorityTooSmallError, SingleClassError
from spineml.neighbors import NeighborTables
from spineml.resampling import (
    ResamplePlan,
    _draw,
    minority_basis,
    oversample,
)

import helpers
from helpers import brute_force_neighbors, make_dataset, point_to_segment_distance


def _imbalanced(n_major, n_minor, seed=0, d=2):
    rng = np.random.default_rng(seed)
    rows = np.vstack([
        rng.normal(0, 1, size=(n_major, d)),
        rng.normal(3, 1, size=(n_minor, d)),
    ])
    labels = np.array([0] * n_major + [1] * n_minor)
    return make_dataset(rows, labels)


def test_plan_validation():
    with pytest.raises(ValueError):
        ResamplePlan("downsample")
    with pytest.raises(ValueError):
        ResamplePlan("smote", target_ratio=0.0)
    with pytest.raises(ValueError):
        ResamplePlan("smote", smote_k=0)


def test_random_oversample_counts_and_content():
    ds = _imbalanced(10, 4)
    out = oversample(ds, ResamplePlan("random_over", seed=5))
    assert out.class_counts() == (10, 10)
    assert out.n == 20
    # originals preserved in order, copies appended after
    assert np.array_equal(out.rows[: ds.n], ds.rows)
    assert np.array_equal(out.labels[: ds.n], ds.labels)
    minority_rows = ds.rows[ds.labels == 1]
    for row in out.rows[ds.n:]:
        assert any(np.array_equal(row, orig) for orig in minority_rows)
    assert np.all(out.labels[ds.n:] == 1)


def test_random_oversample_balanced_is_noop():
    ds = _imbalanced(5, 5)
    out = oversample(ds, ResamplePlan("random_over", seed=1))
    assert out.n == 10
    assert np.array_equal(out.rows, ds.rows)


def test_random_oversample_single_minority_row():
    ds = make_dataset([[0.0], [1.0], [2.0], [9.0]], [0, 0, 0, 1])
    out = oversample(ds, ResamplePlan("random_over", seed=2))
    assert out.class_counts() == (3, 3)
    assert np.all(out.rows[4:] == 9.0)


def test_random_oversample_requires_both_classes():
    ds = make_dataset([[1.0], [2.0]], [0, 0])
    with pytest.raises(SingleClassError):
        oversample(ds, ResamplePlan("random_over"))


def test_random_oversample_partial_ratio():
    ds = _imbalanced(10, 3)
    out = oversample(ds, ResamplePlan("random_over", target_ratio=0.5, seed=3))
    assert out.class_counts() == (10, 5)  # ceil(0.5 * 10)


def test_random_oversample_deterministic():
    ds = _imbalanced(12, 5, seed=8)
    plan = ResamplePlan("random_over", seed=11)
    a = oversample(ds, plan)
    b = oversample(ds, plan)
    assert np.array_equal(a.rows, b.rows)


def test_smote_two_point_segment():
    ds = make_dataset(
        [[10.0, 10.0], [12.0, 9.0], [14.0, 8.0], [0.0, 0.0], [1.0, 1.0]],
        [0, 0, 0, 1, 1],
    )
    out = oversample(ds, ResamplePlan("smote", seed=4))
    assert out.class_counts() == (3, 3)
    synth = out.rows[5]
    # on the segment between (0,0) and (1,1): equal coordinates in [0, 1)
    assert synth[0] == pytest.approx(synth[1], abs=1e-12)
    assert 0.0 <= synth[0] < 1.0


def test_smote_counts_and_geometry():
    ds = _imbalanced(12, 4, seed=1)
    plan = ResamplePlan("smote", smote_k=3, seed=9)
    out = oversample(ds, plan)
    assert out.class_counts() == (12, 12)
    assert np.array_equal(out.rows[: ds.n], ds.rows)
    minority = ds.rows[ds.labels == 1]
    k = min(plan.smote_k, len(minority) - 1)
    for synth in out.rows[ds.n:]:
        ok = False
        for i, x in enumerate(minority):
            others = np.delete(minority, i, axis=0)
            neigh, _ = brute_force_neighbors(others, x, k)
            for j in neigh:
                if point_to_segment_distance(synth, x, others[j]) < 1e-9:
                    ok = True
                    break
            if ok:
                break
        assert ok, f"synthetic {synth} not on any seed-neighbor segment"


def test_smote_requires_two_minority_rows():
    ds = make_dataset([[0.0], [1.0], [2.0], [9.0]], [0, 0, 0, 1])
    with pytest.raises(MinorityTooSmallError):
        oversample(ds, ResamplePlan("smote"))


def test_smote_deterministic():
    ds = _imbalanced(15, 6, seed=2)
    plan = ResamplePlan("smote", seed=21)
    a = oversample(ds, plan)
    b = oversample(ds, plan)
    assert np.array_equal(a.rows, b.rows)


def test_resampling_never_alters_original_rows():
    ds = _imbalanced(9, 4, seed=5)
    before = ds.rows.copy()
    for plan in (ResamplePlan("random_over", seed=1), ResamplePlan("smote", seed=1)):
        out = oversample(ds, plan)
        assert np.array_equal(ds.rows, before)
        assert np.array_equal(out.rows[: ds.n], before)
        # majority rows appear exactly once
        assert int(np.sum(out.labels == 0)) == 9


def _oracle_new_rows(ds, plan):
    """The appended rows as the one-piece oversamplers drew them, kept verbatim."""
    n0, n1 = ds.class_counts()
    minority, majority = (0, 1) if n0 < n1 else (1, 0)
    counts = ds.class_counts()
    pool = np.flatnonzero(ds.labels == minority)
    need = math.ceil(plan.target_ratio * counts[majority]) - counts[minority]
    rng = np.random.default_rng(plan.seed)
    if plan.method == "random_over":
        return ds.rows[pool[rng.integers(0, pool.size, size=need)]]
    points = ds.rows[pool]
    k = min(plan.smote_k, pool.size - 1)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    neighbor_lists = np.argsort(dist, axis=1, kind="stable")[:, :k]
    start = int(rng.integers(0, pool.size))
    seeds = (start + np.arange(need)) % pool.size
    picks = neighbor_lists[seeds, rng.integers(0, k, size=need)]
    u = rng.random(need)[:, None]
    return points[seeds] + u * (points[picks] - points[seeds])


@pytest.mark.parametrize("method", ["random_over", "smote"])
def test_one_basis_serves_every_seed_bit_for_bit(method):
    ds = _imbalanced(14, 5, seed=3)
    # rounded rows make equal neighbor distances, where the sort order matters
    ds = make_dataset(np.round(ds.rows, 0), ds.labels)
    basis = minority_basis(NeighborTables(ds.rows, ds.labels), ResamplePlan(method, smote_k=3))
    for seed in range(6):
        plan = ResamplePlan(method, smote_k=3, seed=seed)
        drawn = _draw(ds.rows, method, basis, seed)
        assert drawn.tobytes() == _oracle_new_rows(ds, plan).tobytes()
        assert drawn.tobytes() == oversample(ds, plan).rows[ds.n:].tobytes()


@pytest.mark.parametrize("method", ["random_over", "smote"])
def test_a_class_count_tie_makes_label_1_the_minority(method):
    """With equal class counts, label 1 is the minority, as in the basis
    before row masks (kept in helpers), whether the tie is in the whole
    matrix or only among the rows a mask holds; the pool numbers the
    minority rows among the held rows."""
    plan = ResamplePlan(method)
    ds = _imbalanced(6, 6, seed=4)
    for held in (None, np.ones(ds.n, dtype=bool)):
        basis = minority_basis(NeighborTables(ds.rows, ds.labels), plan, held)
        want = helpers.minority_basis(ds, plan)
        assert (basis.minority, basis.need, basis.pool.tolist()) == (1, 0, list(range(6, 12)))
        assert (want.minority, want.need, want.pool.tolist()) == (1, 0, list(range(6, 12)))
    wider = _imbalanced(6, 8, seed=4)
    held = np.ones(wider.n, dtype=bool)
    held[[7, 10]] = False  # 6 rows of each label stay
    basis = minority_basis(NeighborTables(wider.rows, wider.labels), plan, held)
    want = helpers.minority_basis(wider.take(np.flatnonzero(held)), plan)
    assert (basis.minority, basis.need, basis.pool.tolist()) == (1, 0, list(range(6, 12)))
    assert (want.minority, want.need, want.pool.tolist()) == (1, 0, list(range(6, 12)))


def _oracle_neighbor_lists(points, k):
    """SMOTE's neighbor lists from the full matrix with the diagonal masked."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


@settings(max_examples=200, deadline=None)
@given(
    n_minor=st.integers(2, 12),
    d=st.integers(1, 3),
    smote_k=st.integers(1, 8),
    duplicates=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_smote_neighbor_lists_match_the_masked_matrix_oracle(n_minor, d, smote_k, duplicates, seed):
    # Coarse-grid rows and appended copies give each copy a lower-index
    # duplicate at distance 0, tied with the row itself.
    rng = np.random.default_rng(seed)
    minor = rng.integers(-1, 2, size=(n_minor, d)).astype(float)
    minor = np.vstack([minor, minor[rng.integers(0, n_minor, size=duplicates)]])
    major = rng.normal(5, 1, size=(minor.shape[0] + 3, d))
    ds = make_dataset(np.vstack([major, minor]), [0] * len(major) + [1] * len(minor))
    basis = minority_basis(NeighborTables(ds.rows, ds.labels), ResamplePlan("smote", smote_k=smote_k))
    k = min(smote_k, minor.shape[0] - 1)
    assert basis.neighbors.tobytes() == _oracle_neighbor_lists(minor, k).tobytes()


def test_smote_neighbor_lists_skip_the_row_behind_many_equal_rows():
    # Row 3 has rows 0, 1 and 2 at distance 0 before itself, so its k + 1
    # nearest do not include it.
    minor = np.array([[1.0], [1.0], [1.0], [1.0], [2.0]])
    ds = make_dataset(np.vstack([np.zeros((6, 1)), minor]), [0] * 6 + [1] * 5)
    basis = minority_basis(NeighborTables(ds.rows, ds.labels), ResamplePlan("smote", smote_k=2))
    assert basis.neighbors.tolist() == [[1, 2], [0, 2], [0, 1], [0, 1], [0, 1]]
    assert basis.neighbors.tobytes() == _oracle_neighbor_lists(minor, 2).tobytes()
