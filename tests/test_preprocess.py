import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineml.errors import (
    ColumnMismatchError,
    NonIntegerCategoricalError,
    TooFewRowsError,
)
from spineml.experiment import FittedCell
from spineml.preprocess import (
    SCALING_MODES,
    ScalerState,
    apply_minmax,
    apply_ordinal_encoder,
    apply_standardizer,
    code_table,
    fit_ordinal_encoder,
    fit_standardizer,
    rank_encode,
)
from spineml.schema import KIND_CONTINUOUS, KINDS

from helpers import code_table_reference, make_dataset, preprocess_reference, rank_encode_reference


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


# Codes as `fit_ordinal_encoder` keeps them (sorted, distinct), with ±1e308
# among them so that differences overflow, and -0.0 and 0.5 for signed
# zeros and non-whole codes.
CODE_LISTS = st.lists(st.integers(-6, 6).map(float) | st.sampled_from([-1e308, 1e308, -0.0, 0.5]),
                      min_size=1, max_size=6, unique=True).map(sorted)


def _values_near(codes):
    """Each code, the midpoints of adjacent codes (exact ties) and the
    floats next to both, values past both ends, ±1e308, -0.0 and NaN."""
    pairs = list(zip(codes, codes[1:]))
    mids = [a / 2 + b / 2 for a, b in pairs]
    near = [math.nextafter(x, to) for x in codes + mids for to in (-math.inf, math.inf)]
    ends = [codes[0] - 1, codes[-1] + 1, codes[0] - 0.5, codes[-1] + 0.5]
    return st.sampled_from(codes + mids + near + ends + [-1e308, 1e308, -0.0, math.nan]) | st.floats(
        allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), codes=st.lists(CODE_LISTS, min_size=1, max_size=4), n_rows=st.integers(1, 5))
def test_rank_rule_has_the_bits_of_the_searchsorted_rule(data, codes, n_rows):
    """The one-comparison rank rule gives the searchsorted rule's rank for
    every finite value and NaN, at and between codes, past both ends and
    with overflowing differences, over tables padded to unequal code counts;
    it warns nothing itself."""
    block = np.array([[data.draw(_values_near(c)) for c in codes] for _ in range(n_rows)])
    with np.errstate(over="ignore"):  # the old rule's differences overflow too
        expected = rank_encode_reference(block, code_table_reference(codes))
    got = rank_encode(block, code_table(codes))
    assert got.dtype == expected.dtype and got.tolist() == expected.tolist()


def test_rank_rule_maps_infinities_to_the_end_codes():
    """-inf takes the first code's rank and +inf the last code's, where the
    searchsorted rule gave +inf one past the last (no CSV row or record
    holds either)."""
    codes = [[1.0, 3.0, 7.0], [0.0, 1.0]]
    block = np.array([[-np.inf, np.inf], [np.inf, -np.inf]])
    with np.errstate(invalid="ignore"):  # inf - inf at the +inf pads
        assert rank_encode(block, code_table(codes)).tolist() == [[0, 1], [2, 0]]
        assert rank_encode_reference(block, code_table_reference(codes)).tolist() == [[0, 2], [3, 0]]


@st.composite
def fitted_preprocessing(draw):
    """A `FittedCell`'s preprocessing: features of any kinds with trained
    codes, a scaling mode, and scaler statistics a fit could give: over the
    continuous columns (standardize) or every column (min-max), or over any
    subset of the columns, as in a hand-edited min-max file."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    names = [f"F{i}" for i in range(len(kinds))]
    codes = {n: draw(st.lists(st.integers(0, 12).map(float), min_size=1, max_size=5, unique=True).map(sorted))
             for n, k in zip(names, kinds) if k != KIND_CONTINUOUS}
    mode = draw(st.sampled_from(SCALING_MODES))
    if mode == "standardize":
        columns = [n for n, k in zip(names, kinds) if k == KIND_CONTINUOUS]
    else:
        columns = names if draw(st.booleans()) else draw(st.lists(st.sampled_from(names), unique=True))
    finite = st.floats(-1e6, 1e6) | st.integers(-12, 12).map(float)
    low = np.array([draw(st.sampled_from([0.0, -0.0]) | finite) for _ in columns])
    constant = np.array([draw(st.booleans()) for _ in columns], dtype=bool)
    span = np.array([draw(st.floats(1e-6, 1e6) | st.sampled_from([1.0, 3.0, 0.5])) for _ in columns])
    high = np.where(constant, low, low + span)
    mean = np.array([draw(finite) for _ in columns])
    std = np.where(constant, 1.0, [draw(st.floats(1e-6, 1e6) | st.just(1.0)) for _ in columns])
    return _preprocessing_cell(kinds, codes, mode, columns, mean, std, low, high, constant)


def _preprocessing_cell(kinds, codes, mode, columns, mean, std, low, high, constant) -> FittedCell:
    """A `FittedCell` that holds only preprocessing, over features F0, F1, …"""
    meta = [{"name": f"F{i}", "kind": k, "min": None, "max": None} for i, k in enumerate(kinds)]
    return FittedCell(model_id="GaussianNB", group_id="VII", family="gnb", feature_meta=meta, ordinal_codes=codes,
                      scaler_columns=tuple(columns), scaler_mean=mean, scaler_std=std, scaler_min=low,
                      scaler_max=high, scaler_constant=constant, scaling_mode=mode, kept=np.arange(len(kinds)),
                      classifier=None, hyperparameters={}, seed=0, config_hash="")


@settings(max_examples=400, deadline=None)
@given(cell=fitted_preprocessing(), data=st.data(), n_rows=st.integers(1, 6))
def test_preprocess_has_the_bits_of_the_gather_scale_scatter_rule(cell, data, n_rows):
    """`FittedCell.preprocess`, through its scaler plan over every column,
    gives the bits of the rule that gathered the scaled columns, scaled
    them and scattered them back: in both scaling modes and for a min-max
    scaler over a subset of the columns, whose other columns pass through
    as they are, on rows at, between and past the codes and the scaler's
    bounds, and -0.0 at a min of 0.0 or -0.0 (min-max keeps -0.0 there). No
    row holds ±inf or a NaN other than numpy's."""
    lows = dict(zip(cell.scaler_columns, cell.scaler_min.tolist()))
    highs = dict(zip(cell.scaler_columns, cell.scaler_max.tolist()))

    def value(f):
        name = f["name"]
        near = [*cell.ordinal_codes.get(name, []), lows.get(name, 0.0), highs.get(name, 1.0)]
        near += [x + d for x in near for d in (-1.0, -0.5, 0.5, 1.0)]
        return data.draw(st.sampled_from([-0.0, 0.0, math.nan]) | st.sampled_from(near) | st.floats(-1e7, 1e7))

    rows = np.array([[value(f) for f in cell.feature_meta] for _ in range(n_rows)])
    expected = preprocess_reference(cell, rows)
    got = cell.preprocess(rows)
    for new, old in zip(got, expected):
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


def test_min_max_keeps_a_negative_zero_at_a_min_of_zero():
    """(-0.0 - 0.0) / span is -0.0, which min-max keeps, as numpy's clip to
    the scalar bounds 0 and 1 does (clip to array bounds gives +0.0): a
    record's traced scaled value shows the sign."""
    one = np.ones(2)
    cell = _preprocessing_cell(["continuous", "ordinal"], {"F1": [0.0, 1.0]}, "minmax", ["F0", "F1"],
                               one, one, np.zeros(2), one, np.zeros(2, dtype=bool))
    rows = np.array([[-0.0, 1.0]])
    for _, scaled in (cell.preprocess(rows), preprocess_reference(cell, rows)):
        assert np.signbit(scaled).tolist() == [[True, False]]
