import json

from perfbench import checks

GROUPS, MODELS = ("I", "VII"), ("GaussianNB", "KNN_opt")


def _cell(g, m, error=None, rows=32, folds=8):
    cv = None if m == "GaussianNB" else [{"fold_scores": [0.5] * folds}] * rows
    return {"group": g, "model": m, "error": error, "cv_table": cv}


def _write_outputs(out, cells, stamp="2026-01-01T00:00:00+00:00"):
    out.mkdir(parents=True, exist_ok=True)
    results = {"provenance": {"seed": 42, "timestamp": stamp}, "cells": cells}
    (out / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    for name in checks.OUTPUT_FILES[1:]:
        (out / name).write_text(f"{name} contents\n")


def _good_cells():
    return [_cell(g, m) for g in GROUPS for m in MODELS]


def test_clean_outputs_pass_and_the_timestamp_is_ignored(tmp_path):
    _write_outputs(tmp_path / "a", _good_cells())
    recorded = checks.fingerprint(tmp_path / "a")
    _write_outputs(tmp_path / "b", _good_cells(), stamp="2027-06-30T12:00:00+00:00")
    assert checks.failed_cells(tmp_path / "b", GROUPS, MODELS, 8, recorded) == (4, [])


def test_one_changed_output_byte_trips_the_fingerprint_gate(tmp_path):
    out = tmp_path / "out"
    _write_outputs(out, _good_cells())
    recorded = checks.fingerprint(out)
    svg = out / "fig2b.svg"
    data = bytearray(svg.read_bytes())
    data[0] ^= 0x01
    svg.write_bytes(bytes(data))
    n, notes = checks.failed_cells(out, GROUPS, MODELS, 8, recorded)
    assert n == 4 and len(notes) == 4
    assert "fig2b.svg" in notes[0]


def test_structural_checks_for_unrecorded_seeds(tmp_path):
    cells = _good_cells()
    cells[1] = _cell("I", "KNN_opt", rows=31)
    cells[2] = _cell("VII", "GaussianNB", error="boom")
    cells[3] = _cell("VII", "KNN_opt", folds=7)
    _write_outputs(tmp_path, cells)
    n, notes = checks.failed_cells(tmp_path, GROUPS, MODELS, 8, None)
    assert n == 4 and len(notes) == 3
    _write_outputs(tmp_path, cells[:1])
    assert len(checks.failed_cells(tmp_path, GROUPS, MODELS, 8, None)[1]) == 3


def test_the_recorded_fingerprints_cover_the_default_seed():
    recorded = checks.recorded_fingerprint("paper_matrix", 42)
    assert recorded is not None and set(recorded) == set(checks.OUTPUT_FILES)
