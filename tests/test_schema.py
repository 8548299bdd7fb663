import json

import pytest

from spineml.errors import UnknownGroupError
from spineml.schema import (
    ColumnSpec,
    Schema,
    VariableGroup,
    builtin_groups,
    default_schema,
    group_by_id,
    load_schema_json,
)

EXPECTED_COLUMNS = [
    "GEN", "AGE", "BMI", "LEVELS", "EMP_ST", "MSPQ", "ZUNG", "DRAM",
    "PRE_LUMBAR_EVA", "PRE_LEG_EVA", "M6_LUMBAR_EVA", "M6_LEG_EVA",
    "PRE_ODI", "M6_POST_ODI", "SAT_SURGICAL_PROC", "SAT_PAIN_PRE",
    "SAT_SURGICAL_6M", "SAT_PAIN_6M", "SUCCESS", "GLU", "UREA",
    "URIC_ACID", "CREAT", "CHOL",
]


def test_default_schema_columns():
    schema = default_schema()
    assert list(schema.names) == EXPECTED_COLUMNS
    assert schema.outcome.name == "SUCCESS"
    assert len(schema.feature_names) == 23


def test_column_spec_rejects_inverted_range():
    with pytest.raises(ValueError):
        ColumnSpec("X", "continuous", "analytical", (5, 1))


def test_schema_rejects_duplicate_names():
    cols = (
        ColumnSpec("A", "continuous", "analytical"),
        ColumnSpec("A", "continuous", "analytical"),
        ColumnSpec("Y", "binary", "outcome"),
    )
    with pytest.raises(ValueError):
        Schema(cols)


def test_schema_requires_exactly_one_outcome():
    with pytest.raises(ValueError):
        Schema((ColumnSpec("A", "continuous", "analytical"),))


GROUP_SIZES = {"I": 5, "II": 3, "III": 3, "IV": 5, "V": 10, "VI": 6, "VII": 16}


def test_builtin_group_membership():
    groups = builtin_groups()
    assert set(groups) == set("I II III IV V VI VII".split())
    for gid, size in GROUP_SIZES.items():
        assert len(groups[gid].column_names) == size
    assert set(groups["I"].column_names) == {
        "BMI", "LEVELS", "PRE_LUMBAR_EVA", "PRE_LEG_EVA", "PRE_ODI"
    }
    assert set(groups["II"].column_names) == {"GEN", "AGE", "EMP_ST"}
    assert set(groups["III"].column_names) == {"MSPQ", "ZUNG", "DRAM"}
    assert set(groups["IV"].column_names) == {"GLU", "UREA", "URIC_ACID", "CREAT", "CHOL"}
    assert set(groups["V"].column_names) == set(groups["I"].column_names) | set(
        groups["IV"].column_names
    )
    assert set(groups["VI"].column_names) == set(groups["II"].column_names) | set(
        groups["III"].column_names
    )
    assert set(groups["VII"].column_names) == (
        set(groups["I"].column_names)
        | set(groups["II"].column_names)
        | set(groups["III"].column_names)
        | set(groups["IV"].column_names)
    )


def test_no_group_leaks_outcome_columns():
    for group in builtin_groups().values():
        for name in group.column_names:
            assert not name.startswith(("M6_", "SAT_"))
            assert name != "SUCCESS"


def test_group_construction_rejects_leaky_columns():
    with pytest.raises(ValueError):
        VariableGroup("X", "bad", ("BMI", "M6_POST_ODI"))
    with pytest.raises(ValueError):
        VariableGroup("X", "bad", ("SAT_PAIN_6M",))
    with pytest.raises(ValueError):
        VariableGroup("X", "bad", ("SUCCESS",))


def test_group_by_id_unknown():
    with pytest.raises(UnknownGroupError):
        group_by_id("VIII")


def test_schema_json_round_trip(tmp_path):
    schema = default_schema()
    path = tmp_path / "schema.json"
    columns = [{"name": c.name, "kind": c.kind, "role": c.role} for c in schema.columns]
    for entry, c in zip(columns, schema.columns):
        if c.valid_range is not None:
            entry["min"], entry["max"] = c.valid_range
    path.write_text(json.dumps({"columns": columns}))
    loaded = load_schema_json(path)
    assert loaded.names == schema.names
    for a, b in zip(loaded.columns, schema.columns):
        assert (a.kind, a.role) == (b.kind, b.role)
        if b.valid_range is not None:
            assert a.valid_range == tuple(float(v) for v in b.valid_range)
