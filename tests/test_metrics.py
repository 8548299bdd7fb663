import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineml.errors import EmptyMatrixError, LengthMismatchError, NonBinaryLabelError
from spineml.metrics import (
    ConfusionMatrix,
    accuracy,
    accuracy_many,
    confusion,
    confusion_counts,
    f1,
    f1_many,
    macro_f1,
    precision,
    recall,
)

from helpers import scalar_accuracy, scalar_f1


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


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 60),
    n_combos=st.integers(1, 6),
    fold=st.sampled_from(["random", "all_negative", "all_wrong", "all_right", "all_positive"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_confusion_counts_and_vector_scores_match_the_scalar_ones(n, n_combos, fold, seed):
    """Each row of confusion_counts is `confusion` of that row of predictions,
    and f1_many/accuracy_many equal the old scalar f1/accuracy bit for bit,
    f1 = 0 folds included."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    P = rng.integers(0, 2, (n_combos, n))
    if fold == "all_negative":
        y[:] = 0
        P[0] = 0
    elif fold == "all_positive":
        y[:] = 1
    elif fold == "all_wrong":
        P[0] = 1 - y
    elif fold == "all_right":
        P[0] = y
    counts = confusion_counts(y, P)
    assert counts.shape == (n_combos, 4)
    f1s, accs = f1_many(counts), accuracy_many(counts)
    for c in range(n_combos):
        cm = confusion(y, P[c])
        assert counts[c].tolist() == [cm.tn, cm.fp, cm.fn, cm.tp]
        assert f1s[c].tobytes() == np.float64(scalar_f1(cm)).tobytes()
        assert accs[c].tobytes() == np.float64(scalar_accuracy(cm)).tobytes()


def test_confusion_counts_errors():
    with pytest.raises(LengthMismatchError):
        confusion_counts([1, 0], [[1]])
    with pytest.raises(LengthMismatchError):
        confusion_counts([], np.zeros((2, 0)))
    with pytest.raises(LengthMismatchError):
        confusion_counts([1, 0], [1, 0])  # one prediction vector, not a matrix
    with pytest.raises(NonBinaryLabelError):
        confusion_counts([1, 2], [[0, 1]])
    for bad in ([0.5, 1.0], [np.nan, 1.0], [-1, 0]):
        with pytest.raises(NonBinaryLabelError):
            confusion_counts([0, 1], [[0, 1], bad])
    with pytest.raises(EmptyMatrixError):
        f1_many(np.zeros((1, 4), dtype=np.int64))
    with pytest.raises(EmptyMatrixError):
        accuracy_many(np.array([[1, 0, 0, 0], [0, 0, 0, 0]]))
