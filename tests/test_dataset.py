import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineml.dataset import (
    Dataset,
    derive_success,
    format_value,
    load_csv,
    select_group,
    write_csv,
)
from spineml.errors import (
    EmptyAfterFilteringError,
    MalformedCsvError,
    MissingColumnError,
    OutOfRangeError,
    PipelineError,
    WidthMismatchError,
)
from spineml.naive_bayes import cnb_fit, cnb_predict_many, gnb_fit, gnb_predict_many
from spineml.neighbors import knn_fit, knn_predict, knn_predict_many
from spineml.schema import Schema, default_schema, group_by_id
from spineml.synthetic import generate_synthetic
from spineml.tree import dt_fit, dt_predict, dt_predict_many

from helpers import load_csv_reference, make_dataset


def _write_rows(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _full_row(overrides=None):
    base = {
        "GEN": 1, "AGE": 55, "BMI": 27.5, "LEVELS": 2, "EMP_ST": 3,
        "MSPQ": 8, "ZUNG": 40, "DRAM": 1, "PRE_LUMBAR_EVA": 7,
        "PRE_LEG_EVA": 6, "M6_LUMBAR_EVA": 2, "M6_LEG_EVA": 1,
        "PRE_ODI": 40, "M6_POST_ODI": 20, "SAT_SURGICAL_PROC": 1,
        "SAT_PAIN_PRE": 2, "SAT_SURGICAL_6M": 1, "SAT_PAIN_6M": 0,
        "SUCCESS": 1, "GLU": 92.5, "UREA": 30, "URIC_ACID": 4.1,
        "CREAT": 0.7, "CHOL": 210,
    }
    if overrides:
        base.update(overrides)
    return base


def test_load_csv_identity(tmp_path):
    schema = default_schema()
    path = tmp_path / "d.csv"
    rows = [[_full_row()[c] for c in schema.names] for _ in range(3)]
    _write_rows(path, schema.names, rows)
    ds, report = load_csv(path)
    assert ds.n == 3
    assert report.n_dropped == 0
    assert ds.labels.tolist() == [1, 1, 1]


def test_load_csv_missing_column(tmp_path):
    schema = default_schema()
    header = [c for c in schema.names if c != "ZUNG"]
    path = tmp_path / "d.csv"
    _write_rows(path, header, [[_full_row()[c] for c in header]])
    with pytest.raises(MissingColumnError) as exc:
        load_csv(path)
    assert exc.value.column == "ZUNG"


def test_load_csv_drops_row_with_empty_value(tmp_path):
    schema = default_schema()
    path = tmp_path / "d.csv"
    rows = []
    for i in range(5):
        row = _full_row()
        if i == 3:  # data row 4 (1-based)
            row["GLU"] = ""
        rows.append([row[c] for c in schema.names])
    _write_rows(path, schema.names, rows)
    ds, report = load_csv(path)
    assert ds.n == 4
    assert report.n_dropped == 1
    assert report.dropped == ((4, "GLU"),)


def test_load_csv_extra_columns_ignored_and_reordered(tmp_path):
    schema = default_schema()
    header = ["EXTRA"] + list(reversed(schema.names))
    row = _full_row()
    path = tmp_path / "d.csv"
    _write_rows(path, header, [[99] + [row[c] for c in reversed(schema.names)]])
    ds, _ = load_csv(path)
    assert ds.column("AGE")[0] == 55
    assert ds.column("CHOL")[0] == 210


def test_load_csv_malformed_row(tmp_path):
    schema = default_schema()
    path = tmp_path / "d.csv"
    good = ",".join(str(_full_row()[c]) for c in schema.names)
    path.write_text(",".join(schema.names) + "\n" + good + "\n1,2,3\n")
    with pytest.raises(MalformedCsvError) as exc:
        load_csv(path)
    assert exc.value.line == 2


def test_load_csv_empty_after_filtering(tmp_path):
    schema = default_schema()
    path = tmp_path / "d.csv"
    row = _full_row({"AGE": "not-a-number"})
    _write_rows(path, schema.names, [[row[c] for c in schema.names]])
    with pytest.raises(EmptyAfterFilteringError):
        load_csv(path)


# Field texts around the number rule: blanks, padding, words, non-finite and
# out-of-range numbers, signed zero, underscores, labels other than 0 and 1,
# and whitespace and digits that only `str.strip` or `float` know.
CSV_FIELDS = st.sampled_from([
    "", " 41 ", "abc", "inf", "nan", "1e400", "-0", "1_000", "2", "0.0", " 1 ", "1.0", "-1e-400",
    "-inf", "NaN", "0x10", "1,5", "\x1c1\x1f", "\u20030\u2003", "\u0661", "+1", ".5", "1e", "1__0",
]) | st.text(max_size=4)


def _csv_outcome(load, path):
    try:
        ds, report = load(path)
    except PipelineError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (ds.rows.dtype, ds.rows.shape, ds.rows.tobytes(), ds.labels.dtype, ds.labels.tobytes(), report)


@settings(max_examples=300, deadline=None)
@given(data_seed=st.integers(0, 3), edits=st.lists(
    st.tuples(st.integers(0, 19), st.sampled_from(default_schema().names), CSV_FIELDS), max_size=16))
def test_csv_fields_read_as_the_per_field_loop_read_them(data_seed, edits):
    """One number rule for every feature and label field keeps the rows,
    labels and dropped rows (with their first bad column) of the per-field
    loop it replaced."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        write_csv(generate_synthetic(20, data_seed, 0.5), path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for r, name, text in edits:
            rows[1 + r][rows[0].index(name)] = text
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        assert _csv_outcome(load_csv, path) == _csv_outcome(load_csv_reference, path)


def test_csv_round_trip_bit_exact(tmp_path):
    ds = generate_synthetic(60, seed=11, signal=0.6)
    path = tmp_path / "round.csv"
    write_csv(ds, path)
    back, report = load_csv(path)
    assert report.n_dropped == 0
    assert np.array_equal(back.rows, ds.rows)
    assert np.array_equal(back.labels, ds.labels)
    # a second write is byte-identical
    path2 = tmp_path / "round2.csv"
    write_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize(
    "a,b,expected",
    [(0, 1, 1), (1, 2, 0), (4, 4, 0), (0, 0, 1), (1, 1, 1), (2, 0, 0)],
)
def test_derive_success(a, b, expected):
    assert derive_success(a, b) == expected


def test_derive_success_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        derive_success(5, 0)
    with pytest.raises(OutOfRangeError):
        derive_success(0, -1)
    with pytest.raises(OutOfRangeError):
        derive_success(1.5, 0)


def test_derive_success_monotone_non_increasing():
    for a in range(5):
        for b in range(4):
            assert derive_success(a, b) >= derive_success(a, b + 1)
            assert derive_success(b, a) >= derive_success(b + 1, a)


def test_select_group_shapes():
    ds = generate_synthetic(30, seed=3, signal=0.0)
    g2 = select_group(ds, group_by_id("II"))
    assert g2.feature_names == ("GEN", "AGE", "EMP_ST")
    g4 = select_group(ds, group_by_id("IV"))
    assert g4.feature_names == ("GLU", "UREA", "URIC_ACID", "CREAT", "CHOL")
    g7 = select_group(ds, group_by_id("VII"))
    assert len(g7.feature_names) == 16
    # schema order is preserved, labels untouched
    order = {n: i for i, n in enumerate(ds.feature_names)}
    assert list(g7.feature_names) == sorted(g7.feature_names, key=order.get)
    assert np.array_equal(g7.labels, ds.labels)
    assert np.array_equal(g2.column("AGE"), ds.column("AGE"))


def test_select_group_missing_column():
    ds = make_dataset([[1.0], [2.0]], [0, 1], names=["BMI"])
    with pytest.raises(MissingColumnError):
        select_group(ds, group_by_id("I"))


def test_select_group_names_the_first_missing_column_in_group_order():
    # Group VI lists ZUNG before DRAM; in sorted order DRAM comes first.
    ds = generate_synthetic(30, seed=3, signal=0.0)
    keep = [j for j, name in enumerate(ds.feature_names) if name not in ("ZUNG", "DRAM")]
    lacking = Dataset(Schema(tuple(c for c in ds.schema.columns if c.name not in ("ZUNG", "DRAM"))),
                      ds.rows[:, keep], ds.labels)
    with pytest.raises(MissingColumnError, match="^missing column: ZUNG$"):
        select_group(lacking, group_by_id("VI"))


def test_dataset_validation():
    with pytest.raises(ValueError):
        make_dataset([[np.nan]], [0])
    with pytest.raises(ValueError):
        make_dataset([[1.0]], [2])
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        make_dataset([[1.0]], [-1])
    ds = make_dataset([[1.0], [2.0]], [0, 1])
    with pytest.raises(ValueError):
        ds.rows[0, 0] = 5.0  # immutable after construction


_PREDICTORS = {  # predictor: (fit, whether it takes one row)
    knn_predict: (lambda ds: knn_fit(ds, k=1), True),
    knn_predict_many: (lambda ds: knn_fit(ds, k=1), False),
    gnb_predict_many: (gnb_fit, False),
    cnb_predict_many: (cnb_fit, False),
    dt_predict: (dt_fit, True),
    dt_predict_many: (dt_fit, False),
}


@pytest.mark.parametrize("predict", list(_PREDICTORS), ids=lambda f: f.__name__)
def test_every_predictor_refuses_a_wrong_width_or_rank(predict):
    fit, one_row = _PREDICTORS[predict]
    model = fit(make_dataset([[0.0, 1.0], [1.0, 0.5], [2.0, 0.0], [3.0, 0.5]], [0, 0, 1, 1]))
    if one_row:
        right, wrong = [0.5, 0.5], ([0.5, 0.5, 0.5], [[0.5, 0.5]], 0.5)
    else:
        right, wrong = [[0.5, 0.5]], ([[0.5, 0.5, 0.5]], [0.5, 0.5], [[[0.5, 0.5]]])
    predict(model, right)
    for x in wrong:  # a wrong width, then wrong ranks
        with pytest.raises(WidthMismatchError, match=r"^expected 2 features, got \("):
            predict(model, x)


def test_format_value():
    assert format_value(3.0) == "3"
    assert format_value(-7.0) == "-7"
    assert format_value(27.5) == "27.5"
    assert format_value(0.1) == "0.1"
