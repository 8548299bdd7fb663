"""Binary-classification evaluation with the success label (1) as positive class."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMatrixError, LengthMismatchError, NonBinaryLabelError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def swapped(self) -> "ConfusionMatrix":
        """The same predictions scored with class 0 as positive."""
        return ConfusionMatrix(tp=self.tn, fp=self.fn, tn=self.tp, fn=self.fp)


def confusion(y_true, y_pred) -> ConfusionMatrix:
    tn, fp, fn, tp = confusion_counts(y_true, np.asarray(y_pred)[None])[0].tolist()
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def confusion_counts(y_true, P) -> np.ndarray:
    """The (combinations, 4) tn, fp, fn, tp counts of each row of the
    prediction matrix P against y_true, from one bincount."""
    t = np.asarray(y_true)
    P = np.asarray(P)
    if P.ndim != 2 or t.ndim != 1 or P.shape[1] != t.size or t.size == 0:
        raise LengthMismatchError(
            f"label vectors must be equal-length and non-empty: {t.shape} vs {P.shape}"
        )
    if not (((t == 0) | (t == 1)).all() and ((P == 0) | (P == 1)).all()):
        raise NonBinaryLabelError("labels must be 0 or 1")
    # cell code 2·true + predicted (0 tn, 1 fp, 2 fn, 3 tp), 4 codes per combination
    codes = 4 * np.arange(P.shape[0])[:, None] + 2 * t + P
    return np.bincount(codes.ravel().astype(np.intp), minlength=4 * P.shape[0]).reshape(-1, 4)


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise EmptyMatrixError("no evaluated rows")
    return (cm.tp + cm.tn) / cm.total


def precision(cm: ConfusionMatrix) -> float:
    denom = cm.tp + cm.fp
    return cm.tp / denom if denom else 0.0


def recall(cm: ConfusionMatrix) -> float:
    denom = cm.tp + cm.fn
    return cm.tp / denom if denom else 0.0


def f1(cm: ConfusionMatrix) -> float:
    """Harmonic mean of precision and recall; 0 when both degenerate."""
    if cm.total == 0:
        raise EmptyMatrixError("no evaluated rows")
    p = precision(cm)
    r = recall(cm)
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _columns(counts):
    tn, fp, fn, tp = np.asarray(counts).T
    if (tp + fp + tn + fn == 0).any():
        raise EmptyMatrixError("no evaluated rows")
    return tn, fp, fn, tp


def accuracy_many(counts) -> np.ndarray:
    """`accuracy` of each row of `confusion_counts`, in the same operation order."""
    tn, fp, fn, tp = _columns(counts)
    return (tp + tn) / (tp + fp + tn + fn)


def f1_many(counts) -> np.ndarray:
    """`f1` of each row of `confusion_counts`, in the same operation order, so
    every value is bit-identical to the scalar one."""
    tn, fp, fn, tp = _columns(counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        r = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        return np.where(p + r > 0, 2 * p * r / (p + r), 0.0)


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of the per-class F1 scores (diagnostic alongside F1)."""
    return (f1(cm) + f1(cm.swapped())) / 2.0
