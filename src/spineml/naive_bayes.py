"""Gaussian and complement naive Bayes classifiers.

GaussianNB models each feature per class as a normal distribution
(per-class sample mean and n−1 variance) and predicts the class with the
highest posterior. ComplementNB (Rennie et al.) weights each class by the
feature statistics of its complement, which counteracts majority-class
dominance on imbalanced data; it requires non-negative features, so the
pipeline feeds it min-max-scaled inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (
    ClassTooSmallError,
    NegativeFeatureError,
    NonPositiveSigmaError,
    SingleClassError,
    WidthMismatchError,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_pdf(x: float, mu: float, sigma: float) -> float:
    """Normal density at x for mean mu and standard deviation sigma > 0."""
    if sigma <= 0:
        raise NonPositiveSigmaError(f"sigma must be positive, got {sigma}")
    z = (x - mu) / sigma
    return math.exp(-0.5 * z * z) / (_SQRT_2PI * sigma)


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


def gnb_fit(train: Dataset, smoothing_factor: float = 1e-9) -> GaussianNBModel:
    """Per class and feature: sample mean and n−1 variance; priors by frequency.

    The smoothing term is smoothing_factor times the largest overall
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
    eps = smoothing_factor * (max_var if max_var > 0 else 1.0)
    return GaussianNBModel(
        classes=classes,
        priors=np.array(priors),
        means=np.array(means),
        variances=np.array(variances),
        var_smoothing=eps,
    )


def _gnb_log_posteriors(model: GaussianNBModel, X: np.ndarray) -> np.ndarray:
    var = model.variances + model.var_smoothing
    # (n, n_classes, d) deviations -> sum of per-feature log densities
    dev = X[:, None, :] - model.means[None, :, :]
    log_pdf = -0.5 * (np.log(2.0 * np.pi * var)[None, :, :] + dev * dev / var[None, :, :])
    return np.log(model.priors)[None, :] + log_pdf.sum(axis=2)


def gnb_predict(model: GaussianNBModel, x) -> tuple[int, np.ndarray]:
    """Predicted label (ties to the lowest) and normalized per-class posteriors."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.means.shape[1],):
        raise WidthMismatchError(
            f"expected {model.means.shape[1]} features, got {x.shape}"
        )
    logp = _gnb_log_posteriors(model, x[None, :])[0]
    shifted = np.exp(logp - logp.max())
    posteriors = shifted / shifted.sum()
    return int(model.classes[int(np.argmax(logp))]), posteriors


def gnb_predict_many(model: GaussianNBModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.means.shape[1]:
        raise WidthMismatchError(
            f"expected {model.means.shape[1]} features, got {X.shape[1]}"
        )
    logp = _gnb_log_posteriors(model, X)
    return model.classes[np.argmax(logp, axis=1)]


@dataclass(frozen=True)
class ComplementNBModel:
    classes: np.ndarray
    weights: np.ndarray  # (n_classes, d) log complement-frequency weights
    alpha: float
    normalize: bool


def cnb_fit(train: Dataset, alpha: float = 1.0, normalize: bool = False) -> ComplementNBModel:
    """Smoothed log-frequencies of each class's complement, optionally L1-normalized."""
    if train.rows.size and train.rows.min() < 0:
        r, c = np.unravel_index(int(np.argmin(train.rows)), train.rows.shape)
        raise NegativeFeatureError(int(r), int(c))
    classes = _require_two_classes(train.labels)
    d = train.width
    weights = np.empty((classes.size, d))
    for i, c in enumerate(classes):
        comp = train.rows[train.labels != c]
        counts = comp.sum(axis=0)
        theta = (alpha + counts) / (alpha * d + counts.sum())
        w = np.log(theta)
        if normalize:
            w = w / np.abs(w).sum()
        weights[i] = w
    return ComplementNBModel(classes=classes, weights=weights, alpha=alpha, normalize=normalize)


def cnb_predict(model: ComplementNBModel, x) -> tuple[int, np.ndarray]:
    """Label with the smallest complement-match score (ties to the lowest label)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.weights.shape[1],):
        raise WidthMismatchError(
            f"expected {model.weights.shape[1]} features, got {x.shape}"
        )
    if x.size and x.min() < 0:
        raise NegativeFeatureError(0, int(np.argmin(x)))
    scores = model.weights @ x
    return int(model.classes[int(np.argmin(scores))]), scores


def cnb_predict_many(model: ComplementNBModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.weights.shape[1]:
        raise WidthMismatchError(
            f"expected {model.weights.shape[1]} features, got {X.shape[1]}"
        )
    if X.size and X.min() < 0:
        r, c = np.unravel_index(int(np.argmin(X)), X.shape)
        raise NegativeFeatureError(int(r), int(c))
    scores = X @ model.weights.T
    return model.classes[np.argmin(scores, axis=1)]
