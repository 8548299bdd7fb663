import numpy as np
import pytest

from spineml.dataset import (
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
)
from spineml.schema import default_schema, group_by_id
from spineml.synthetic import generate_synthetic

from helpers import make_dataset


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


def test_format_value():
    assert format_value(3.0) == "3"
    assert format_value(-7.0) == "-7"
    assert format_value(27.5) == "27.5"
    assert format_value(0.1) == "0.1"
