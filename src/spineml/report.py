"""Report rendering: results.json, per-model/per-group CSV tables, SVG charts.

CSV tables print values with 2 decimal places and flag each row's best
value with a trailing asterisk; results.json keeps full precision and is
byte-deterministic apart from its provenance timestamp. Charts are plain
hand-built SVG (no plotting dependency): grouped bars with a 0.1-step
axis and value labels. `_FILES` names each file and its renderer.
"""

from __future__ import annotations

import json
from dataclasses import fields
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import CorruptFileError, VersionMismatchError
from .experiment import CellResult, ExperimentMatrix, _aggregate
from .metrics import ConfusionMatrix
from .schema import builtin_groups, read_json

RESULTS_FORMAT_VERSION = 1

_AGG_TOLERANCE = 1e-12


# results.json names the CellResult fields `group_id` and `model_id` this way.
_JSON_NAMES = {"group_id": "group", "model_id": "model"}


def matrix_to_dict(matrix: ExperimentMatrix) -> dict:
    cells = []
    for g in matrix.groups:
        for m in matrix.models:
            cell = matrix.cells[(g, m)]
            entry = {_JSON_NAMES.get(k, k): v for k, v in vars(cell).items()}
            if cell.confusion is not None:
                entry["confusion"] = vars(cell.confusion)
            cells.append(entry)
    return {**vars(matrix), "format_version": RESULTS_FORMAT_VERSION, "groups": list(matrix.groups),
            "models": list(matrix.models), "cells": cells}


def matrix_from_dict(raw: dict) -> ExperimentMatrix:
    try:
        version = raw["format_version"]
        if version != RESULTS_FORMAT_VERSION:
            raise VersionMismatchError(f"unsupported results version: {version}")
        cells = {}
        for entry in raw["cells"]:
            for key in ("accuracy", "f1", "macro_f1"):
                value = entry[key]
                if value is not None and not isinstance(value, Real):
                    raise CorruptFileError(f"results file holds a non-numeric {key}: {value!r}")
                float(value or 0)  # an integer past float range raises OverflowError here, not when rendered
            cell = CellResult(**{f.name: entry[_JSON_NAMES.get(f.name, f.name)] for f in fields(CellResult)})
            if cell.confusion is not None:
                cell.confusion = ConfusionMatrix(**cell.confusion)
            cells[(cell.group_id, cell.model_id)] = cell
        matrix = ExperimentMatrix(**{f.name: raw[f.name] for f in fields(ExperimentMatrix)})
        matrix.groups, matrix.models, matrix.cells = tuple(matrix.groups), tuple(matrix.models), cells
        _check_aggregates(matrix, CorruptFileError)
        return matrix
    except KeyError as exc:
        raise CorruptFileError(f"results file is malformed: missing key {exc}") from exc
    except (TypeError, OverflowError) as exc:  # OverflowError: an integer past float range
        raise CorruptFileError(f"results file is malformed: {exc}") from exc


def load_results(path) -> ExperimentMatrix:
    return matrix_from_dict(read_json(path, CorruptFileError, "results file"))


def results_json_text(matrix: ExperimentMatrix) -> str:
    return json.dumps(matrix_to_dict(matrix), sort_keys=True, indent=2) + "\n"


_GROUP_STAT_KEYS = ("mean_acc", "sd_acc", "mean_f1", "sd_f1")


def _fmt_cell(value, best) -> str:
    if value is None:
        return "ERR"
    text = f"{value:.2f}"
    return text + "*" if best else text


def render_table4(matrix: ExperimentMatrix) -> str:
    """Model × metric rows against group columns, best value per row starred."""
    lines = ["Model," + ",".join(matrix.groups)]
    for m in matrix.models:
        for metric, attr in (("Acc", "accuracy"), ("F1", "f1")):
            values = [getattr(matrix.cells[(g, m)], attr) for g in matrix.groups]
            present = [v for v in values if v is not None]
            best = max(present) if present else None
            row = [f"{m} ({metric})"]
            row += [_fmt_cell(v, v is not None and v == best) for v in values]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_table5(matrix: ExperimentMatrix) -> str:
    """Per-group mean and sample-SD of accuracy and F1 across models."""
    lines = ["group,mean_acc,sd_acc,mean_f1,sd_f1"]
    for g in matrix.groups:
        s = matrix.group_stats[g]
        lines.append(",".join([g] + [_fmt_cell(s[key], False) for key in _GROUP_STAT_KEYS]))
    return "\n".join(lines) + "\n"


def render_table5_text(matrix: ExperimentMatrix) -> str:
    """Aligned stdout rendering of the per-group summary."""
    names = {g: grp.name for g, grp in builtin_groups().items()}
    header = f"{'group':<6}{'variables':<30}{'mean_acc':>9}{'sd_acc':>8}{'mean_f1':>9}{'sd_f1':>8}"
    lines = [header, "-" * len(header)]
    for g in matrix.groups:
        s = matrix.group_stats[g]
        cells = [_fmt_cell(s[key], False) for key in _GROUP_STAT_KEYS]
        lines.append(
            f"{g:<6}{names.get(g, ''):<30}{cells[0]:>9}{cells[1]:>8}{cells[2]:>9}{cells[3]:>8}"
        )
    return "\n".join(lines)


def _svg_grouped_bars(title: str, names, stats: dict, width: int) -> str:
    """Mean accuracy and mean F1 of each name in `stats` as a grouped bar
    chart on a fixed [0, 1] axis with 0.1 ticks."""
    height = 400
    series = {"Accuracy": [stats[n]["mean_acc"] for n in names], "F1": [stats[n]["mean_f1"] for n in names]}
    margin_l, margin_r, margin_t, margin_b = 56, 16, 44, 56
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    colors = ("#4878a8", "#e49444", "#6aa56e", "#d1605e")
    n_cat = len(names)
    n_ser = len(series)
    slot = plot_w / max(n_cat, 1)
    bar_w = slot * 0.72 / max(n_ser, 1)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # y axis: ticks every 0.1
    for i in range(11):
        v = i / 10.0
        y = margin_t + plot_h * (1.0 - v)
        out.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" x2="{width - margin_r}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{margin_l - 6}" y="{y + 4:.1f}" text-anchor="end">{v:.1f}</text>'
        )
    # bars
    for si, (name, values) in enumerate(series.items()):
        color = colors[si % len(colors)]
        for ci, value in enumerate(values):
            x = margin_l + ci * slot + slot * 0.14 + si * bar_w
            if value is None:
                label_y = margin_t + plot_h - 4
                out.append(
                    f'<text x="{x + bar_w / 2:.1f}" y="{label_y:.1f}" '
                    f'text-anchor="middle" fill="{color}">n/a</text>'
                )
                continue
            h = plot_h * max(0.0, min(1.0, value))
            y = margin_t + plot_h - h
            out.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" fill="{color}"/>'
            )
            out.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{y - 3:.1f}" text-anchor="middle" '
                f'font-size="9">{value:.2f}</text>'
            )
    # x labels
    for ci, cat in enumerate(names):
        x = margin_l + ci * slot + slot / 2
        y = margin_t + plot_h + 16
        out.append(f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="middle">{cat}</text>')
    # legend
    lx = margin_l
    ly = height - 18
    for si, name in enumerate(series):
        color = colors[si % len(colors)]
        out.append(f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        out.append(f'<text x="{lx + 14}" y="{ly}">{name}</text>')
        lx += 14 + 8 * len(name) + 24
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _check_aggregates(matrix: ExperimentMatrix, error=AssertionError) -> None:
    """Raise `error` unless every stored group and model statistic is within
    _AGG_TOLERANCE of its value recomputed from the cells (NaN never is, nor
    the infinite spread of cell values past the square range)."""
    with np.errstate(over="ignore", invalid="ignore"):
        recomputed = _aggregate(matrix.cells, matrix.groups, matrix.models)
    stored = (matrix.group_stats, matrix.model_stats)
    for kind, names, fresh, kept in zip(("group", "model"), (matrix.groups, matrix.models),
                                        recomputed, stored):
        for name in names:
            for key, value in fresh[name].items():
                old = kept[name][key]
                if value is None or old is None:
                    drifted = value != old
                else:
                    drifted = not abs(value - old) <= _AGG_TOLERANCE
                if drifted:
                    raise error(f"aggregate mismatch for {kind} {name}/{key}")


# The report files: (key in emit_report's result, file name, renderer).
_FILES = (
    ("table4", "table4.csv", render_table4),
    ("table5", "table5.csv", render_table5),
    ("fig2a", "fig2a.svg", lambda m: _svg_grouped_bars(
        "Mean accuracy and F1 by variable group (across models)", m.groups, m.group_stats, 720)),
    ("fig2b", "fig2b.svg", lambda m: _svg_grouped_bars(
        "Mean accuracy and F1 by model (across variable groups)", m.models, m.model_stats, 860)),
    ("results", "results.json", results_json_text),
)


def emit_report(matrix: ExperimentMatrix, out_dir, write_results: bool = True) -> dict:
    """Write the `_FILES` (results.json only with `write_results`) and return
    their paths by key. Aggregates are recomputed from the cells before
    writing and must agree with the stored ones to within 1e-12."""
    _check_aggregates(matrix)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for key, name, render in _FILES:
        if write_results or key != "results":
            files[key] = out / name
            files[key].write_text(render(matrix), encoding="utf-8")
    return files
