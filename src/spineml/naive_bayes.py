"""Gaussian and complement naive Bayes classifiers.

GaussianNB models each feature per class as a normal distribution
(per-class sample mean and n−1 variance) and predicts the class with the
highest posterior. ComplementNB (Rennie et al.) weights each class by the
feature statistics of its complement, which counteracts majority-class
dominance on imbalanced data; it requires non-negative features, so the
pipeline feeds it min-max-scaled inputs.

Each family has one predictor, `gnb_predict_many` or `cnb_predict_many`:
every row's label and per-class values, each row computed on its own, so
a single record (row 0 of a one-row call) gets the label it gets in any
batch of any layout: `_gnb_log_posteriors` sums in one order, by the rule
and for the reasons of `neighbors._each_distances`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, predictor_input
from .errors import ClassTooSmallError, NegativeFeatureError, SingleClassError

_SMOOTHING_FACTOR = 1e-9  # GaussianNB variance smoothing, as a share of the largest variance
_ALPHA = 1.0  # ComplementNB's additive smoothing of the complement counts


def _require_two_classes(labels: np.ndarray) -> np.ndarray:
    classes = np.unique(labels)
    if classes.size < 2:
        raise SingleClassError("training data holds a single outcome class")
    return classes


@dataclass(frozen=True)
class GaussianNBModel:
    classes: np.ndarray
    priors: np.ndarray
    means: np.ndarray      # (n_classes, d)
    variances: np.ndarray  # (n_classes, d), raw sample variances
    var_smoothing: float   # added to every variance at predict time

    def __post_init__(self):
        # Checked here so that a loaded model file is held to values a fit gives.
        smoothed = self.variances + self.var_smoothing
        if not ((self.variances >= 0) & (smoothed > 0) & np.isfinite(smoothed)).all():
            raise ValueError("GaussianNB variances must be finite and ≥ 0, and > 0 once var_smoothing is added")
        if not (self.priors > 0).all():
            raise ValueError(f"GaussianNB priors must be > 0, got {self.priors.tolist()}")


def gnb_fit(train: Dataset) -> GaussianNBModel:
    """Per class and feature: sample mean and n−1 variance; priors by frequency.

    The smoothing term is `_SMOOTHING_FACTOR` times the largest overall
    feature variance (or 1 if every feature is constant), preventing a
    zero-variance density from collapsing.
    """
    classes = _require_two_classes(train.labels)
    means, variances, priors = [], [], []
    for c in classes:
        block = train.rows[train.labels == c]
        if block.shape[0] < 2:
            raise ClassTooSmallError(f"class {c} has fewer than 2 samples")
        means.append(block.mean(axis=0))
        variances.append(block.var(axis=0, ddof=1))
        priors.append(block.shape[0] / train.n)
    overall = train.rows.var(axis=0, ddof=1) if train.n > 1 else np.zeros(train.width)
    max_var = float(overall.max()) if overall.size else 0.0
    eps = _SMOOTHING_FACTOR * (max_var if max_var > 0 else 1.0)
    return GaussianNBModel(
        classes=classes,
        priors=np.array(priors),
        means=np.array(means),
        variances=np.array(variances),
        var_smoothing=eps,
    )


def _gnb_log_posteriors(model: GaussianNBModel, X: np.ndarray) -> np.ndarray:
    var = model.variances + model.var_smoothing
    # (n, n_classes, d) deviations, C-ordered as in `neighbors._each_distances`
    dev = np.subtract(X[:, None, :], model.means[None, :, :], order="C")
    log_pdf = -0.5 * (np.log(2.0 * np.pi * var)[None, :, :] + dev * dev / var[None, :, :])
    return np.log(model.priors)[None, :] + log_pdf.sum(axis=2)


def gnb_predict_many(model: GaussianNBModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's label (ties to the lowest) and normalized per-class posteriors."""
    X = predictor_input(X, model.means.shape[1])
    logp = _gnb_log_posteriors(model, X)
    # fmin makes a row whose every class density underflowed (-inf - -inf is
    # NaN) a tie of equal shares, as its label already is
    shifted = np.exp(np.fmin(logp - logp.max(axis=1, keepdims=True), 0.0))
    posteriors = shifted / shifted.sum(axis=1, keepdims=True)
    return model.classes[np.argmax(logp, axis=1)], posteriors


@dataclass(frozen=True)
class ComplementNBModel:
    classes: np.ndarray
    weights: np.ndarray  # (n_classes, d) log complement-frequency weights
    alpha: float
    normalize: bool


def cnb_fit(train: Dataset) -> ComplementNBModel:
    """Smoothed log-frequencies of each class's complement."""
    if train.rows.size and train.rows.min() < 0:
        r, c = np.unravel_index(int(np.argmin(train.rows)), train.rows.shape)
        raise NegativeFeatureError(int(r), int(c))
    classes = _require_two_classes(train.labels)
    d = train.width
    weights = np.empty((classes.size, d))
    for i, c in enumerate(classes):
        counts = train.rows[train.labels != c].sum(axis=0)
        weights[i] = np.log((_ALPHA + counts) / (_ALPHA * d + counts.sum()))
    return ComplementNBModel(classes=classes, weights=weights, alpha=_ALPHA, normalize=False)


def cnb_predict_many(model: ComplementNBModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's label with the smallest complement-match score (ties to the
    lowest label) and its per-class scores."""
    X = predictor_input(X, model.weights.shape[1])
    if X.size and X.min() < 0:
        r, c = np.unravel_index(int(np.argmin(X)), X.shape)
        raise NegativeFeatureError(int(r), int(c))
    # One (1 × d) @ (d × classes) product per row: a row's scores round the
    # same way in a batch of any size.
    scores = (X[:, None, :] @ model.weights.T)[:, 0]
    return model.classes[np.argmin(scores, axis=1)], scores
