import json

import numpy as np
import pytest

import helpers
from spineml.errors import CorruptFileError, VersionMismatchError
from spineml.experiment import ExperimentConfig, run_matrix
from spineml.report import (
    emit_report,
    load_results,
    matrix_from_dict,
    matrix_to_dict,
    render_table4,
    render_table5,
    render_table5_text,
    results_json_text,
)


@pytest.fixture(scope="module")
def matrix():
    cfg = ExperimentConfig(
        synthetic={"n": 244, "seed": 7, "signal": 0.8},
        groups=("I", "II", "IV"),
        models=("GaussianNB", "ComplementNB", "KNN", "DT"),
    )
    return run_matrix(cfg)


@pytest.fixture(scope="module")
def full_matrix():
    cfg = ExperimentConfig(
        synthetic={"n": 80, "seed": 5, "signal": 0.5},
        models=("GaussianNB", "KNN", "DT"),
        n_folds=4,
    )
    return run_matrix(cfg)


def test_emit_report_file_manifest(matrix, tmp_path):
    files = emit_report(matrix, tmp_path / "out")
    names = sorted(p.name for p in files.values())
    assert names == ["fig2a.svg", "fig2b.svg", "results.json", "table4.csv", "table5.csv"]
    for p in files.values():
        assert p.exists() and p.stat().st_size > 0


def test_table4_layout(matrix):
    lines = render_table4(matrix).strip().split("\n")
    assert lines[0] == "Model,I,II,IV"
    assert len(lines) == 1 + 2 * len(matrix.models)
    assert lines[1].startswith("GaussianNB (Acc),")
    assert lines[2].startswith("GaussianNB (F1),")
    # two decimals, best value per row starred
    for line in lines[1:]:
        cells = line.split(",")[1:]
        starred = [c for c in cells if c.endswith("*")]
        assert starred, line
        values = [float(c.rstrip("*")) for c in cells]
        assert max(values) == float(starred[0].rstrip("*"))
        for c in cells:
            body = c.rstrip("*")
            assert len(body.split(".")[1]) == 2


def test_full_table4_has_16_rows(full_matrix):
    # with all 8 models the layout is 8 models x 2 metrics over 7 groups
    cfg_models = full_matrix.models
    lines = render_table4(full_matrix).strip().split("\n")
    assert len(lines) == 1 + 2 * len(cfg_models)
    assert lines[0] == "Model," + ",".join(full_matrix.groups)


def test_table5_layout(matrix):
    lines = render_table5(matrix).strip().split("\n")
    assert lines[0] == "group,mean_acc,sd_acc,mean_f1,sd_f1"
    assert len(lines) == 1 + len(matrix.groups)
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] in matrix.groups
        for value in fields[1:]:
            float(value)


def test_table5_text_mentions_group_names(matrix):
    text = render_table5_text(matrix)
    assert "Pre-surgical" in text
    assert "Analytical" in text


def test_results_json_round_trip(matrix, tmp_path):
    path = tmp_path / "results.json"
    path.write_text(results_json_text(matrix))
    back = load_results(path)
    assert back.groups == matrix.groups
    assert back.models == matrix.models
    for key, cell in matrix.cells.items():
        other = back.cells[key]
        assert other.accuracy == cell.accuracy
        assert other.f1 == cell.f1
        assert other.confusion == cell.confusion
    # aggregates recomputable from reloaded cells
    for g in back.groups:
        accs = [back.cells[(g, m)].accuracy for m in back.models]
        assert abs(back.group_stats[g]["mean_acc"] - np.mean(accs)) < 1e-12


def test_results_json_full_precision(matrix):
    raw = json.loads(results_json_text(matrix))
    cell = raw["cells"][0]
    assert cell["accuracy"] == matrix.cells[(raw["cells"][0]["group"], cell["model"])].accuracy


def test_results_json_deterministic_bytes(matrix):
    a = results_json_text(matrix)
    b = results_json_text(matrix)
    assert a == b


def test_load_results_version_and_corruption(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CorruptFileError):
        load_results(bad)
    versioned = tmp_path / "v99.json"
    versioned.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(VersionMismatchError):
        load_results(versioned)
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"format_version": 1, "cells": []}))
    with pytest.raises(CorruptFileError):
        load_results(incomplete)


def test_load_results_rejects_a_failed_cell_with_an_integer_past_float_range(tmp_path):
    # A failed cell's accuracy enters no aggregate, so only rendering would
    # have met it, as an OverflowError rather than a malformed file.
    raw = json.loads(results_json_text(helpers.failed_and_tuned_matrix()))
    next(cell for cell in raw["cells"] if cell["error"] is not None)["accuracy"] = 10**400
    path = tmp_path / "results.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(CorruptFileError, match="^results file is malformed: int too large to convert to float$"):
        load_results(path)


def test_matrix_dict_round_trip(matrix):
    again = matrix_from_dict(matrix_to_dict(matrix))
    assert results_json_text(again) == results_json_text(matrix)


@pytest.fixture(scope="module")
def mixed_matrix():
    return helpers.failed_and_tuned_matrix()


def _oracle_text(matrix) -> str:
    return json.dumps(helpers.matrix_to_dict(matrix), sort_keys=True, indent=2) + "\n"


def test_results_json_matches_the_field_by_field_oracle(matrix, full_matrix, mixed_matrix):
    cells = mixed_matrix.cells.values()
    assert any(c.error and c.confusion is None and c.accuracy is None for c in cells)
    assert any(c.cv_table for c in cells)
    for m in (matrix, full_matrix, mixed_matrix):
        text = results_json_text(m)
        assert text == _oracle_text(m)
        assert results_json_text(matrix_from_dict(json.loads(text))) == text
        assert _oracle_text(helpers.matrix_from_dict(json.loads(text))) == text


def _places(node, path=()):
    """The path to every dict entry and list item; of a list longer than 8,
    only the first and the last item."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node))) if len(node) <= 8 else [0, len(node) - 1]
    else:
        keys = []
    for key in keys:
        yield path + (key,)
        yield from _places(node[key], path + (key,))


_RETYPES = (None, "x", 1.5, True, 7, [], [1], {}, {"a": 1})


def _edits(text):
    """Every single-place edit of a results file's JSON: drop a dict key,
    shorten a list to half its length, or replace a value by one of _RETYPES."""
    for path in _places(json.loads(text)):
        for edit in ("drop", "shorten") + _RETYPES:
            raw = json.loads(text)
            parent = raw
            for key in path[:-1]:
                parent = parent[key]
            key, child = path[-1], parent[path[-1]]
            if edit == "drop" and isinstance(parent, dict):
                del parent[key]
            elif edit == "shorten" and isinstance(child, list) and child:
                del child[len(child) // 2:]
            elif edit not in ("drop", "shorten"):
                parent[key] = json.loads(json.dumps(edit))
            else:
                continue
            yield raw


def _outcome(load, to_dict, raw):
    try:
        return to_dict(load(raw))
    except Exception as exc:
        return type(exc), str(exc)


def test_edited_results_load_as_the_oracle_loads_them(mixed_matrix):
    text = results_json_text(mixed_matrix)
    n = 0
    for raw in _edits(text):
        ours = _outcome(matrix_from_dict, matrix_to_dict, json.loads(json.dumps(raw)))
        assert ours == _outcome(helpers.matrix_from_dict, helpers.matrix_to_dict, raw)
        n += 1
    assert n > 1000


def test_svg_charts_have_axis_and_values(matrix, tmp_path):
    files = emit_report(matrix, tmp_path / "svg")
    fig2a = files["fig2a"].read_text()
    assert fig2a.startswith("<svg")
    for tick in ("0.0", "0.5", "1.0"):
        assert f">{tick}</text>" in fig2a
    fig2b = files["fig2b"].read_text()
    assert "GaussianNB" in fig2b
    assert "Accuracy" in fig2b and "F1" in fig2b


def test_emit_report_catches_aggregate_drift(matrix, tmp_path):
    # loaded as `spineml report` loads a file, so the edit cannot reach `matrix`
    broken = matrix_from_dict(json.loads(results_json_text(matrix)))
    broken.group_stats[matrix.groups[0]]["mean_acc"] = 0.123456
    with pytest.raises(AssertionError):
        emit_report(broken, tmp_path / "broken")
