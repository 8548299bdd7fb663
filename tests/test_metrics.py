import numpy as np
import pytest

from spineml.errors import EmptyMatrixError, LengthMismatchError, NonBinaryLabelError
from spineml.metrics import (
    ConfusionMatrix,
    accuracy,
    confusion,
    f1,
    macro_f1,
    precision,
    recall,
)


def test_confusion_perfect():
    cm = confusion([1, 0, 1], [1, 0, 1])
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 0, 0)
    # int, bool and float 0/1 labels, mixed freely, count the same
    for t, p in [
        (np.array([True, False, True]), np.array([1, 0, 1])),
        (np.array([1.0, 0.0, 1.0]), np.array([True, False, True])),
        (np.array([1, 0, 1], dtype=np.int8), np.array([1.0, 0.0, 1.0])),
    ]:
        assert confusion(t, p) == cm


def test_confusion_total_inversion():
    cm = confusion([1, 0, 1], [0, 1, 0])
    assert cm.tp == 0 and cm.tn == 0
    assert cm.fp == 1 and cm.fn == 2


def test_confusion_hand_case():
    cm = confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
    assert (cm.tp, cm.fn, cm.tn, cm.fp) == (2, 1, 1, 1)
    assert accuracy(cm) == pytest.approx(0.6)
    assert f1(cm) == pytest.approx(2.0 / 3.0)


def test_confusion_errors():
    with pytest.raises(LengthMismatchError):
        confusion([1, 0], [1])
    with pytest.raises(LengthMismatchError):
        confusion([], [])
    with pytest.raises(NonBinaryLabelError):
        confusion([1, 2], [0, 1])
    for bad in ([0.5, 1.0], [np.nan, 1.0], [-1, 0]):
        with pytest.raises(NonBinaryLabelError):
            confusion([0, 1], bad)
        with pytest.raises(NonBinaryLabelError):
            confusion(bad, [0, 1])


def test_accuracy_bounds_and_empty():
    assert accuracy(ConfusionMatrix(3, 0, 2, 0)) == 1.0
    assert accuracy(ConfusionMatrix(0, 2, 0, 3)) == 0.0
    with pytest.raises(EmptyMatrixError):
        accuracy(ConfusionMatrix(0, 0, 0, 0))


def test_f1_degenerate_denominators():
    # no predicted positives and no true positives found
    assert f1(ConfusionMatrix(tp=0, fp=0, tn=3, fn=2)) == 0.0
    assert f1(ConfusionMatrix(tp=0, fp=2, tn=1, fn=2)) == 0.0
    assert f1(ConfusionMatrix(tp=4, fp=0, tn=4, fn=0)) == 1.0


def test_f1_is_harmonic_mean_when_defined():
    rng = np.random.default_rng(2)
    for _ in range(200):
        cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 20, 4)))
        if cm.total == 0:
            continue
        p, r = precision(cm), recall(cm)
        if p > 0 and r > 0:
            assert f1(cm) == pytest.approx(2.0 / (1.0 / p + 1.0 / r), rel=1e-12)
        assert 0.0 <= f1(cm) <= 1.0
        assert 0.0 <= accuracy(cm) <= 1.0


def test_accuracy_permutation_invariant():
    rng = np.random.default_rng(3)
    y_true = rng.integers(0, 2, 30)
    y_pred = rng.integers(0, 2, 30)
    perm = rng.permutation(30)
    assert accuracy(confusion(y_true, y_pred)) == accuracy(
        confusion(y_true[perm], y_pred[perm])
    )


def test_macro_f1_symmetric_cases():
    cm = confusion([1, 0, 1, 0], [1, 0, 1, 0])
    assert macro_f1(cm) == 1.0
    cm = confusion([1, 1, 0, 0], [1, 0, 1, 0])
    assert macro_f1(cm) == pytest.approx(0.5)


def _counting_oracle(y_true, y_pred):
    tp = fp = tn = fn = 0
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 1:
            fp += 1
        elif t == 0 and p == 0:
            tn += 1
        else:
            fn += 1
    total = tp + fp + tn + fn
    acc = (tp + tn) / total
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1_val = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return (tp, fp, tn, fn), acc, f1_val


def test_randomized_against_counting_oracle():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(1, 51))
        y_true = rng.integers(0, 2, n)
        y_pred = rng.integers(0, 2, n)
        cm = confusion(y_true, y_pred)
        counts, acc, f1_val = _counting_oracle(y_true.tolist(), y_pred.tolist())
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == counts
        assert abs(accuracy(cm) - acc) < 1e-12
        assert abs(f1(cm) - f1_val) < 1e-12
