import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineml.errors import (
    ClassTooSmallError,
    NegativeFeatureError,
    SingleClassError,
    WidthMismatchError,
)
from spineml.experiment import FAMILIES
from spineml.naive_bayes import (
    _gnb_log_posteriors,
    cnb_fit,
    cnb_predict_many,
    gnb_fit,
    gnb_predict_many,
)

from helpers import NonPositiveSigmaError, gaussian_pdf, layouts, make_dataset, normal_density


def row_zero(batch):
    """The label and per-class values of row 0 of a batch predictor's output."""
    labels, values = batch
    return int(labels[0]), values[0]


def test_gaussian_pdf_standard_peak():
    assert gaussian_pdf(0, 0, 1) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)


def test_gaussian_pdf_one_sigma_point():
    expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert gaussian_pdf(1, 0, 1) == pytest.approx(expected, abs=1e-12)
    assert gaussian_pdf(7, 5, 2) == pytest.approx(expected / 2, abs=1e-12)


def test_gaussian_pdf_hand_case():
    # independent evaluation of the density formula
    assert gaussian_pdf(2, 5, 3) == pytest.approx(normal_density(2, 5, 3), abs=1e-15)
    assert gaussian_pdf(2, 5, 3) == pytest.approx(0.080657, abs=1e-6)


def test_gaussian_pdf_rejects_bad_sigma():
    with pytest.raises(NonPositiveSigmaError):
        gaussian_pdf(0, 0, 0)
    with pytest.raises(NonPositiveSigmaError):
        gaussian_pdf(0, 0, -1)


def test_gaussian_pdf_integrates_to_one():
    # hand-rolled trapezoid quadrature over [mu - 8s, mu + 8s]
    for mu, sigma in ((0.0, 1.0), (5.0, 3.0), (-2.0, 0.25)):
        xs = np.linspace(mu - 8 * sigma, mu + 8 * sigma, 200_001)
        ys = np.array([gaussian_pdf(x, mu, sigma) for x in xs])
        h = xs[1] - xs[0]
        integral = h * (ys.sum() - 0.5 * (ys[0] + ys[-1]))
        assert abs(integral - 1.0) < 1e-6


def test_gnb_fit_moments():
    ds = make_dataset([[1.0], [2.0], [3.0], [10.0], [11.0]], [0, 0, 0, 1, 1])
    model = gnb_fit(ds)
    assert model.means[0, 0] == pytest.approx(2.0)
    assert model.variances[0, 0] == pytest.approx(1.0)
    assert model.priors.tolist() == [0.6, 0.4]
    assert model.priors.sum() == pytest.approx(1.0, abs=1e-12)


def test_gnb_fit_hand_variance():
    values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    ds = make_dataset([[v] for v in values] + [[100.0], [101.0]], [0] * 8 + [1] * 2)
    model = gnb_fit(ds)
    assert model.variances[0, 0] == pytest.approx(statistics.variance(values), rel=1e-12)
    assert model.variances[0, 0] == pytest.approx(4.5714, abs=1e-4)


def test_gnb_fit_class_errors():
    with pytest.raises(SingleClassError):
        gnb_fit(make_dataset([[1.0], [2.0]], [1, 1]))
    with pytest.raises(ClassTooSmallError):
        gnb_fit(make_dataset([[1.0], [2.0], [3.0]], [0, 0, 1]))


def test_gnb_predict_simple_separation():
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
    model = gnb_fit(ds)
    label, post = row_zero(gnb_predict_many(model, [[1.2]]))
    assert label == 0
    assert post.sum() == pytest.approx(1.0, abs=1e-12)
    assert post[0] > post[1]


def test_gnb_predict_confident_at_class_mean():
    ds = make_dataset(
        [[0.0], [0.5], [1.0], [99.0], [100.0], [101.0]], [0, 0, 0, 1, 1, 1]
    )
    model = gnb_fit(ds)
    label, post = row_zero(gnb_predict_many(model, [[0.5]]))
    assert label == 0
    assert post[0] > 0.99


def test_gnb_predict_symmetric_tie_goes_to_lower_label():
    ds = make_dataset([[0.0], [1.0], [3.0], [4.0]], [0, 0, 1, 1])
    model = gnb_fit(ds)
    label, post = row_zero(gnb_predict_many(model, [[2.0]]))
    assert post[0] == pytest.approx(0.5, abs=1e-9)
    assert label == 0


def test_gnb_row_far_from_every_class_is_an_even_tie():
    # Every class density of the first row underflows to 0, so its log
    # posteriors are all -inf: it once got NaN posteriors, where its label
    # already took the tie to the lower class.
    model = gnb_fit(make_dataset([[0.0], [1.0], [3.0], [4.0]], [0, 0, 1, 1]))
    with np.errstate(over="ignore", invalid="ignore"):
        labels, post = gnb_predict_many(model, [[1e200], [2.5]])
    assert labels.tolist() == [0, 1]
    assert post[0].tolist() == [0.5, 0.5]
    assert post[1].tolist() == gnb_predict_many(model, [[2.5]])[1][0].tolist()


def test_gnb_width_mismatch():
    model = gnb_fit(make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1]))
    with pytest.raises(WidthMismatchError):
        gnb_predict_many(model, [[1.0, 2.0]])


def _gnb_oracle(model, x):
    """Direct product of normal densities times priors, no logs."""
    posts = []
    for ci in range(len(model.classes)):
        p = model.priors[ci]
        for j, xj in enumerate(x):
            sigma = math.sqrt(model.variances[ci, j] + model.var_smoothing)
            p *= normal_density(xj, model.means[ci, j], sigma)
        posts.append(p)
    total = sum(posts)
    posts = [p / total for p in posts]
    best = max(range(len(posts)), key=lambda i: (posts[i], -i))
    return int(model.classes[best]), posts


def test_gnb_matches_direct_bayes_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(6, 31))
        d = int(rng.integers(1, 5))
        rows = rng.normal(0, 2, size=(n, d))
        labels = np.zeros(n, dtype=int)
        labels[: n // 2] = 1
        rng.shuffle(labels)
        ds = make_dataset(rows, labels)
        model = gnb_fit(ds)
        for x in rng.normal(0, 2, size=(5, d)):
            label, post = row_zero(gnb_predict_many(model, x[None, :]))
            o_label, o_post = _gnb_oracle(model, x)
            assert label == o_label
            assert np.abs(post - np.array(o_post)).max() < 1e-9


def test_cnb_fit_uniform_complement_gives_equal_weights():
    ds = make_dataset([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [1.0, 1.0]], [0, 0, 1, 1])
    model = cnb_fit(ds)
    # class-1 complement rows are class 0: sums (3, 3) -> uniform theta
    assert model.weights[1, 0] == pytest.approx(model.weights[1, 1], abs=1e-12)


def test_cnb_fit_hand_case():
    # class-1 complement (= class-0 rows) sums to (3, 1)
    ds = make_dataset([[3.0, 1.0], [1.0, 2.0], [0.5, 0.5]], [0, 1, 1])
    model = cnb_fit(ds)
    assert model.weights[1, 0] == pytest.approx(math.log(4.0 / 6.0), abs=1e-12)
    assert model.weights[1, 1] == pytest.approx(math.log(2.0 / 6.0), abs=1e-12)
    # class-0 complement rows sum to (1.5, 2.5); denominator 1*2 + 4 = 6
    assert model.weights[0, 0] == pytest.approx(math.log(2.5 / 6.0), abs=1e-12)
    assert model.weights[0, 1] == pytest.approx(math.log(3.5 / 6.0), abs=1e-12)


def test_cnb_fit_rejects_negative_features():
    ds = make_dataset([[1.0], [-0.5]], [0, 1])
    with pytest.raises(NegativeFeatureError):
        cnb_fit(ds)


def test_cnb_single_class():
    with pytest.raises(SingleClassError):
        cnb_fit(make_dataset([[1.0], [2.0]], [0, 0]))


def test_cnb_predict_zero_vector_ties_to_lowest_label():
    ds = make_dataset([[3.0, 1.0], [1.0, 2.0], [0.5, 0.5]], [0, 1, 1])
    model = cnb_fit(ds)
    label, scores = row_zero(cnb_predict_many(model, [[0.0, 0.0]]))
    assert label == 0
    assert scores.tolist() == [0.0, 0.0]


def test_cnb_predict_hand_score():
    ds = make_dataset([[3.0, 1.0], [1.0, 2.0], [0.5, 0.5]], [0, 1, 1])
    model = cnb_fit(ds)
    label, scores = row_zero(cnb_predict_many(model, [[1.0, 0.0]]))
    assert scores[1] == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)
    assert scores[0] == pytest.approx(math.log(2.5 / 6.0), abs=1e-12)
    # argmin picks the smaller complement match
    expected = 0 if scores[0] < scores[1] else 1
    assert label == expected


def test_cnb_predict_scale_invariant_argmin():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng.uniform(0, 4, size=(30, 3)), rng.integers(0, 2, 30))
    model = cnb_fit(ds)
    for _ in range(25):
        x = rng.uniform(0, 4, size=3)
        base = row_zero(cnb_predict_many(model, x[None, :]))[0]
        for c in (0.1, 2.0, 17.5):
            assert row_zero(cnb_predict_many(model, c * x[None, :]))[0] == base


def test_cnb_predict_rejects_negative_input():
    model = cnb_fit(make_dataset([[1.0], [2.0]], [0, 1]))
    with pytest.raises(NegativeFeatureError):
        cnb_predict_many(model, [[-1.0]])


def test_predict_many_agrees_with_single():
    rng = np.random.default_rng(8)
    ds = make_dataset(rng.uniform(0, 4, size=(25, 3)), rng.integers(0, 2, 25))
    X = rng.uniform(0, 4, size=(10, 3))
    gnb = gnb_fit(ds)
    # The pipeline's batch and one-record predictors of each family.
    gnb_predict_many, gnb_predict = FAMILIES["gnb"].predict_many, FAMILIES["gnb"].predict_one
    assert gnb_predict_many(gnb, X).tolist() == [gnb_predict(gnb, x)[0] for x in X]
    cnb = cnb_fit(ds)
    cnb_predict_many, cnb_predict = FAMILIES["cnb"].predict_many, FAMILIES["cnb"].predict_one
    assert cnb_predict_many(cnb, X).tolist() == [cnb_predict(cnb, x)[0] for x in X]


@settings(max_examples=80, deadline=None)
@given(q=st.integers(1, 9), d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_gnb_log_posteriors_have_the_bits_of_one_row_calls_for_any_layout(q, d, seed):
    rng = np.random.default_rng(seed)
    model = gnb_fit(make_dataset(rng.normal(size=(12, d)) * 10.0 ** rng.integers(-2, 3, size=d),
                                 [0, 1] * 6))
    X = rng.normal(size=(q, d)) * 10.0 ** rng.integers(-2, 3, size=(q, d))
    want = np.vstack([_gnb_log_posteriors(model, x[None]) for x in X])
    for Q in layouts(X):
        assert _gnb_log_posteriors(model, Q).tobytes() == want.tobytes()
