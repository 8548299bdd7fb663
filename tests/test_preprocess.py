import statistics

import numpy as np
import pytest

from spineml.errors import (
    ColumnMismatchError,
    NonIntegerCategoricalError,
    TooFewRowsError,
)
from spineml.preprocess import (
    ScalerState,
    apply_minmax,
    apply_ordinal_encoder,
    apply_standardizer,
    code_table,
    fit_ordinal_encoder,
    fit_standardizer,
    rank_encode,
)

from helpers import make_dataset


def test_fit_standardizer_simple():
    ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
    state = fit_standardizer(ds, columns=["F0"])
    assert state.mean[0] == pytest.approx(2.0)
    assert state.std[0] == pytest.approx(1.0)


def test_fit_standardizer_constant_column_flagged():
    ds = make_dataset([[5.0], [5.0], [5.0], [5.0]], [0, 1, 0, 1])
    state = fit_standardizer(ds, columns=["F0"])
    assert state.mean[0] == 5.0
    assert state.std[0] == 1.0
    assert state.constant[0]


def test_fit_standardizer_flags_a_column_whose_max_equals_its_min():
    # The sample std of three rows of 0.7 is 1.4e-16, not 0: standardizing
    # by it sent a record's 0.8 to 7e14, and min-max divided 0 by 0.
    ds = make_dataset([[0.7], [0.7], [0.7]], [0, 1, 0])
    assert ds.rows[:, 0].std(ddof=1) > 0
    state = fit_standardizer(ds, columns=["F0"])
    assert state.constant[0] and state.std[0] == 1.0
    record = make_dataset([[0.8]], [0])
    assert abs(apply_standardizer(record, state).rows[0, 0] - 0.1) < 1e-9
    assert apply_minmax(record, state).rows[0, 0] == 0.0


@pytest.mark.parametrize("std, low, high, constant, message", [
    (0.0, 1.0, 2.0, False, "scaler std must be finite and > 0"),
    (-1.0, 1.0, 2.0, False, "scaler std must be finite and > 0"),
    (1.0, 2.0, 1.0, False, "scaler max must be ≥ min"),
    (1.0, 2.0, 1.0, True, "scaler max must be ≥ min"),
    (1.0, 2.0, 2.0, False, "and > min unless the column is constant"),
])
def test_scaler_state_refuses_values_no_fit_gives(std, low, high, constant, message):
    with pytest.raises(ValueError, match=message):
        ScalerState(("F0",), np.array([1.5]), np.array([std]), np.array([low]), np.array([high]),
                    np.array([constant]))
    ScalerState(("F0",), np.array([2.0]), np.array([1.0]), np.array([2.0]), np.array([2.0]), np.array([True]))


def test_fit_standardizer_hand_case():
    values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    ds = make_dataset([[v] for v in values], [0, 1] * 4)
    state = fit_standardizer(ds, columns=["F0"])
    # independent oracle: statistics module (n-1 denominator)
    assert state.mean[0] == pytest.approx(statistics.mean(values), abs=1e-12)
    assert state.std[0] == pytest.approx(statistics.stdev(values), abs=1e-12)
    assert state.std[0] == pytest.approx(2.1381, abs=1e-4)


def test_fit_standardizer_too_few_rows():
    ds = make_dataset([[1.0]], [0])
    with pytest.raises(TooFewRowsError):
        fit_standardizer(ds, columns=["F0"])


def test_apply_standardizer_cases():
    train = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
    state = fit_standardizer(train, columns=["F0"])
    out = apply_standardizer(train, state)
    assert out.rows[:, 0].tolist() == [-1.0, 0.0, 1.0]
    test = make_dataset([[4.0], [2.0]], [0, 1])
    applied = apply_standardizer(test, state)
    assert applied.rows[:, 0].tolist() == [2.0, 0.0]


def test_standardized_train_has_zero_mean_unit_sd():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng.normal(10, 3, size=(40, 4)), rng.integers(0, 2, 40))
    state = fit_standardizer(ds, columns=list(ds.feature_names))
    out = apply_standardizer(ds, state)
    assert np.abs(out.rows.mean(axis=0)).max() < 1e-9
    assert np.abs(out.rows.std(axis=0, ddof=1) - 1.0).max() < 1e-9


def test_apply_standardizer_column_mismatch():
    train = make_dataset([[1.0], [2.0]], [0, 1], names=["A"])
    state = fit_standardizer(train, columns=["A"])
    other = make_dataset([[1.0], [2.0]], [0, 1], names=["B"])
    with pytest.raises(ColumnMismatchError):
        apply_standardizer(other, state)


def test_apply_minmax_cases():
    train = make_dataset([[0.0], [10.0]], [0, 1])
    state = fit_standardizer(train, columns=["F0"])
    assert apply_minmax(make_dataset([[5.0]], [0]), state).rows[0, 0] == 0.5
    # out-of-range test values clamp
    assert apply_minmax(make_dataset([[12.0]], [0]), state).rows[0, 0] == 1.0
    assert apply_minmax(make_dataset([[-3.0]], [0]), state).rows[0, 0] == 0.0


def test_apply_minmax_glucose_reference_range():
    train = make_dataset([[70.0], [110.0]], [0, 1], names=["GLU"])
    state = fit_standardizer(train, columns=["GLU"])
    out = apply_minmax(make_dataset([[90.0]], [0], names=["GLU"]), state)
    assert out.rows[0, 0] == 0.5


def test_apply_minmax_constant_column_maps_to_zero():
    train = make_dataset([[7.0], [7.0]], [0, 1])
    state = fit_standardizer(train, columns=["F0"])
    out = apply_minmax(make_dataset([[7.0], [9.0]], [0, 1]), state)
    assert out.rows[:, 0].tolist() == [0.0, 0.0]


def test_encode_ordinals_rank_mapping():
    ds = make_dataset(
        [[1.0], [3.0], [7.0], [3.0]], [0, 1, 0, 1], kinds=["ordinal"], names=["EMP_ST"]
    )
    out = apply_ordinal_encoder(ds, fit_ordinal_encoder(ds))
    assert out.rows[:, 0].tolist() == [0.0, 1.0, 2.0, 1.0]


def test_encode_ordinals_identity_on_consecutive_codes():
    ds = make_dataset([[0.0], [1.0], [0.0]], [0, 1, 0], kinds=["binary"], names=["GEN"])
    out = apply_ordinal_encoder(ds, fit_ordinal_encoder(ds))
    assert out.rows[:, 0].tolist() == [0.0, 1.0, 0.0]


def test_encode_ordinals_dram_hand_case():
    # sorted distinct {0, 2, 3} -> ranks {0, 1, 2}
    ds = make_dataset(
        [[0.0], [2.0], [3.0], [2.0]], [0, 1, 0, 1], kinds=["ordinal"], names=["DRAM"]
    )
    out = apply_ordinal_encoder(ds, fit_ordinal_encoder(ds))
    assert out.rows[:, 0].tolist() == [0.0, 1.0, 2.0, 1.0]


def test_encode_ordinals_leaves_continuous_alone():
    ds = make_dataset([[1.5, 2.0], [2.5, 4.0]], [0, 1], kinds=["continuous", "ordinal"])
    out = apply_ordinal_encoder(ds, fit_ordinal_encoder(ds))
    assert out.rows[:, 0].tolist() == [1.5, 2.5]
    assert out.rows[:, 1].tolist() == [0.0, 1.0]


def test_encode_ordinals_rejects_non_integer_codes():
    ds = make_dataset([[1.5], [2.0]], [0, 1], kinds=["ordinal"])
    with pytest.raises(NonIntegerCategoricalError):
        apply_ordinal_encoder(ds, fit_ordinal_encoder(ds))


def test_knn_predictions_invariant_under_affine_transform_through_scaler():
    # rescaling one feature of train and test leaves standardized values, and
    # therefore every euclidean-KNN prediction, unchanged
    from spineml.neighbors import knn_fit, knn_predict_many

    rng = np.random.default_rng(31)
    train_rows = rng.normal(0, 1, size=(50, 3))
    labels = rng.integers(0, 2, 50)
    labels[:2] = [0, 1]
    test_rows = rng.normal(0, 1, size=(25, 3))

    def pipeline(train_raw, test_raw):
        train = make_dataset(train_raw, labels)
        state = fit_standardizer(train, columns=list(train.feature_names))
        train_s = apply_standardizer(train, state)
        test_s = apply_standardizer(make_dataset(test_raw, np.zeros(len(test_raw))), state)
        model = knn_fit(train_s, k=5)
        return knn_predict_many(model, test_s.rows)

    base = pipeline(train_rows, test_rows)
    train2, test2 = train_rows.copy(), test_rows.copy()
    train2[:, 1] = 40.0 * train2[:, 1] - 3.0
    test2[:, 1] = 40.0 * test2[:, 1] - 3.0
    assert pipeline(train2, test2).tolist() == base.tolist()


def test_unseen_codes_map_to_nearest_rank():
    train = make_dataset(
        [[1.0], [3.0], [7.0]], [0, 1, 0], kinds=["ordinal"], names=["EMP_ST"]
    )
    state = fit_ordinal_encoder(train)
    test = make_dataset(
        [[4.0], [2.0], [9.0], [0.0]], [0, 1, 0, 1], kinds=["ordinal"], names=["EMP_ST"]
    )
    out = apply_ordinal_encoder(test, state)
    # 4 -> nearest 3 (rank 1); 2 ties 1/3 -> lower code 1 (rank 0); 9 -> 7; 0 -> 1
    assert out.rows[:, 0].tolist() == [1.0, 0.0, 2.0, 0.0]
    assert rank_encode(np.array([[4.0]]), code_table([state.codes["EMP_ST"]]))[0, 0] == 1
    assert rank_encode(np.array([[2.0]]), code_table([state.codes["EMP_ST"]]))[0, 0] == 0
