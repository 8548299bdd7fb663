"""Correctness gates on the files a `spineml run` writes.

For a seed recorded in `fingerprints.json`, every output file must hash to
the recorded sha256 (results.json with `provenance.timestamp` set to null).
For every seed, results.json must hold one cell per (group, model), no cell
may have failed, and each grid-searched cell's CV table must hold one row
per grid combination with one score per fold.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
OUTPUT_FILES = ("results.json", "table4.csv", "table5.csv", "fig2a.svg", "fig2b.svg")

# Sizes of the default grids: KNN 8 k × 2 weightings × 2 metrics, DT 2
# criteria × 6 depths × 3 split sizes × 3 leaf sizes.
GRID_ROWS = {"KNN_opt": 32, "KNN_RO": 32, "KNN_SMOTE": 32, "DT_opt": 108}


def results_text_without_timestamp(text: str) -> str:
    stamp = json.loads(text)["provenance"]["timestamp"]
    needle = f'"timestamp": {json.dumps(stamp)}'
    if text.count(needle) != 1:
        raise ValueError("results.json does not hold exactly one provenance timestamp")
    return text.replace(needle, '"timestamp": null')


def fingerprint(out_dir) -> dict:
    """sha256 of each output file, the timestamp nulled in results.json."""
    out = Path(out_dir)
    digests = {}
    for name in OUTPUT_FILES:
        data = (out / name).read_bytes()
        if name == "results.json":
            data = results_text_without_timestamp(data.decode("utf-8")).encode("utf-8")
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def recorded_fingerprint(workload: str, seed: int) -> dict | None:
    table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def failed_cells(out_dir, groups, models, n_folds: int, expected: dict | None) -> tuple[int, list]:
    """(cells attempted, one note per failed cell) for one run's output directory.

    A fingerprint mismatch fails every cell of the run, since the changed
    bytes cannot be attributed to one cell.
    """
    n_cells = len(groups) * len(models)
    notes = []
    try:
        raw = json.loads((Path(out_dir) / "results.json").read_text(encoding="utf-8"))
        cells = {(c["group"], c["model"]): c for c in raw["cells"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return n_cells, [f"results.json unreadable: {exc}"] * n_cells
    for g in groups:
        for m in models:
            cell = cells.get((g, m))
            if cell is None:
                notes.append(f"{g}/{m}: missing")
            elif cell["error"] is not None:
                notes.append(f"{g}/{m}: failed: {cell['error']}")
            elif m in GRID_ROWS and (
                len(cell["cv_table"] or ()) != GRID_ROWS[m]
                or any(len(row["fold_scores"]) != n_folds for row in cell["cv_table"])
            ):
                notes.append(f"{g}/{m}: CV table is not {GRID_ROWS[m]} rows × {n_folds} folds")
    if len(cells) != n_cells and not notes:
        notes.append(f"{len(cells)} cells in results.json, expected {n_cells}")
    if expected is not None:
        try:
            actual = fingerprint(out_dir)
        except (OSError, ValueError) as exc:
            actual = {"error": str(exc)}
        if actual != expected:
            changed = sorted(k for k in set(actual) | set(expected) if actual.get(k) != expected.get(k))
            notes = [f"fingerprint mismatch in {', '.join(changed)}"] * n_cells
    return n_cells, notes
