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
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape or t.ndim != 1 or t.size == 0:
        raise LengthMismatchError(
            f"label vectors must be equal-length and non-empty: {t.shape} vs {p.shape}"
        )
    both = np.stack((t, p))
    if not ((both == 0) | (both == 1)).all():
        raise NonBinaryLabelError("labels must be 0 or 1")
    # cell code 2·true + predicted: 0 tn, 1 fp, 2 fn, 3 tp
    tn, fp, fn, tp = np.bincount((2 * both[0] + both[1]).astype(np.intp), minlength=4).tolist()
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


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


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of the per-class F1 scores (diagnostic alongside F1)."""
    return (f1(cm) + f1(cm.swapped())) / 2.0
