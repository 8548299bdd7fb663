import numpy as np
import pytest

from spineml.dataset import derive_success
from spineml.errors import NTooSmallError, SyntheticSettingError
from spineml.metrics import accuracy, confusion
from spineml.schema import default_schema
from spineml.synthetic import generate_synthetic
from spineml.tree import dt_fit, dt_predict_many


def test_label_proportion_near_published_rate():
    ds = generate_synthetic(244, seed=7, signal=0.5)
    prop = ds.labels.mean()
    assert abs(prop - 0.522) <= 0.03


def test_gender_proportion_near_published_rate():
    ds = generate_synthetic(244, seed=7, signal=0.5)
    assert abs(ds.column("GEN").mean() - 0.525) <= 0.03


def test_determinism():
    a = generate_synthetic(100, seed=9, signal=0.4)
    b = generate_synthetic(100, seed=9, signal=0.4)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.labels, b.labels)
    c = generate_synthetic(100, seed=10, signal=0.4)
    assert not np.array_equal(a.rows, c.rows)


def test_rejects_tiny_n():
    with pytest.raises(NTooSmallError):
        generate_synthetic(19, seed=0, signal=0.0)


def test_rejects_bad_signal():
    with pytest.raises(ValueError):
        generate_synthetic(50, seed=0, signal=1.5)


@pytest.mark.parametrize("p_success", [-0.2, 1.5, float("nan")])
def test_rejects_bad_p_success(p_success):
    with pytest.raises(SyntheticSettingError):
        generate_synthetic(50, seed=0, signal=0.5, p_success=p_success)


def test_values_within_schema_ranges():
    ds = generate_synthetic(500, seed=2, signal=1.0)
    for spec in default_schema().feature_columns:
        lo, hi = spec.valid_range
        col = ds.column(spec.name)
        assert col.min() >= lo and col.max() <= hi


def test_success_rule_consistent_with_satisfaction_answers():
    ds = generate_synthetic(300, seed=4, signal=0.7)
    s6 = ds.column("SAT_SURGICAL_6M")
    p6 = ds.column("SAT_PAIN_6M")
    derived = [derive_success(a, b) for a, b in zip(s6, p6)]
    assert derived == ds.labels.tolist()


def test_zero_signal_leaves_features_independent_of_label():
    # SAT_SURGICAL_6M / SAT_PAIN_6M define the label and are excluded from
    # every predictor group; every other column must be label-independent.
    ds = generate_synthetic(1000, seed=13, signal=0.0)
    y = ds.labels - ds.labels.mean()
    for j, name in enumerate(ds.feature_names):
        if name in ("SAT_SURGICAL_6M", "SAT_PAIN_6M"):
            continue
        col = ds.rows[:, j]
        if col.std() == 0:
            continue
        r = float(np.corrcoef(col, y)[0, 1])
        assert abs(r) < 0.15, f"feature {name} correlates: {r}"


def test_signal_injected_structure_recoverable_by_shallow_tree():
    ds = generate_synthetic(10_000, seed=21, signal=0.8)
    model = dt_fit(ds, max_depth=3)
    preds = dt_predict_many(model, ds.rows)
    acc = accuracy(confusion(ds.labels, preds))
    majority = max(ds.labels.mean(), 1 - ds.labels.mean())
    assert acc > majority + 0.02


def test_p_success_override_is_exact():
    ds = generate_synthetic(200, seed=3, signal=0.5, p_success=0.2)
    assert int(ds.labels.sum()) == 40
