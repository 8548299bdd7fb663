"""Command-line interface: generate, run, report, predict.

Exit codes: 0 success, 1 domain error (printed to stderr) or a run in
which every cell failed, 2 usage error.
All randomness flows from explicit --seed flags (default constant 42), so
repeat invocations are reproducible. Each scalar config setting has one
`run` flag, whose dest is the setting's name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .dataset import write_csv
from .errors import ConfigError, PipelineError
from .experiment import (
    MODEL_IDS,
    SETTING_TYPES,
    ExperimentConfig,
    load_config_data,
    run_matrix_fitted,
)
from .model_selection import SCORINGS
from .persist import load_model, predict_single, save_model
from .report import emit_report, load_results, render_table5_text
from .schema import GROUP_IDS, read_json
from .synthetic import SYNTHETIC_DEFAULTS


def _build_parser() -> argparse.ArgumentParser:
    defaults = ExperimentConfig  # the class attributes are the fields' defaults
    parser = argparse.ArgumentParser(
        prog="spineml",
        description="Spine-surgery outcome prediction pipeline: synthetic data, "
        "model-by-group experiments, reports, and single-record prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic patient CSV")
    gen.add_argument("--n", type=int, default=SYNTHETIC_DEFAULTS["n"], help="number of patients (≥ 20)")
    gen.add_argument("--seed", type=int, default=defaults.seed)
    gen.add_argument("--signal", type=float, default=SYNTHETIC_DEFAULTS["signal"],
                     help="strength of injected predictive structure in [0, 1]")
    gen.add_argument("--p-success", type=float, default=SYNTHETIC_DEFAULTS["p_success"],
                     help="success-class proportion in [0, 1]")
    gen.add_argument("--out", required=True, help="output CSV path")

    run = sub.add_parser("run", help="run the experiment matrix and write reports")
    run.add_argument("--config", help="JSON experiment config (flags override it)")
    run.add_argument("--csv", help="input CSV path (default: synthetic data)")
    run.add_argument("--schema", help="JSON schema override file")
    run.add_argument("--n", type=int, help=f"synthetic patient count (default {SYNTHETIC_DEFAULTS['n']})")
    run.add_argument("--signal", type=float,
                     help=f"synthetic signal strength (default {SYNTHETIC_DEFAULTS['signal']})")
    run.add_argument("--data-seed", type=int, help="synthetic generator seed (default: master seed)")
    run.add_argument("--seed", type=int, help=f"master seed (default {defaults.seed})")
    run.add_argument("--groups", help="comma list of variable groups, e.g. I,IV,VII")
    run.add_argument("--models", help="comma list of model ids, e.g. KNN,DT_opt")
    run.add_argument("--test-fraction", type=float,
                     help=f"test partition fraction (default {defaults.test_fraction})")
    run.add_argument("--folds", dest="n_folds", metavar="FOLDS", type=int,
                     help=f"cross-validation folds (default {defaults.n_folds})")
    run.add_argument("--keep-fraction", type=float,
                     help=f"feature-selection keep fraction (default {defaults.keep_fraction})")
    run.add_argument("--scoring", choices=SCORINGS, help=f"grid-search scoring (default {defaults.scoring})")
    run.add_argument("--per-cell-split", action="store_true", default=None,
                     help="use an independent split per cell instead of one shared split")
    run.add_argument("--workers", type=int, help=f"concurrent cell workers (default {defaults.workers})")
    run.add_argument("--save-models", action="store_true", default=None,
                     help="persist every fitted cell under <out>/models/")
    run.add_argument("--out", dest="out_dir", metavar="OUT",
                     help=f"report directory (default: {defaults.out_dir})")

    rep = sub.add_parser("report", help="re-render tables/charts from results.json")
    rep.add_argument("--results", required=True, help="existing results.json")
    rep.add_argument("--out", required=True, help="directory for re-rendered files")

    pred = sub.add_parser("predict", help="classify one record with a saved model")
    pred.add_argument("--model", required=True, help="persisted model file")
    pred.add_argument("--record", required=True,
                      help="JSON file path or inline JSON object with the features")
    pred.add_argument("--trace", action="store_true",
                      help="include the preprocessing trace in the output")
    return parser


def _cmd_generate(args, parser) -> int:
    ds = load_config_data(ExperimentConfig(synthetic={
        "n": args.n, "seed": args.seed, "signal": args.signal, "p_success": args.p_success}))
    write_csv(ds, args.out)
    n0, n1 = ds.class_counts()
    print(
        f"wrote {args.out}: n={ds.n}, success={n1} ({100.0 * n1 / ds.n:.1f}%), "
        f"no-success={n0} ({100.0 * n0 / ds.n:.1f}%)"
    )
    return 0


def _parse_list(parser, text, valid, what):
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    for item in items:
        if item not in valid:
            parser.error(f"unknown {what}: {item}")
    return items


def _build_run_config(args, parser) -> ExperimentConfig:
    for flag, value in (("config", args.config), ("csv", args.csv), ("schema", args.schema),
                        ("groups", args.groups), ("models", args.models), ("out", args.out_dir)):
        if value == "":
            parser.error(f"--{flag} must not be empty")
    synthetic = {key: value for key, value in (("n", args.n), ("signal", args.signal),
                                               ("seed", args.data_seed)) if value is not None}
    if args.csv and synthetic:
        parser.error("--csv cannot be combined with --n, --signal or --data-seed")
    raw = {}
    if args.config:
        raw = read_json(args.config, ConfigError, "config")
        ExperimentConfig.from_dict(raw)  # a malformed file fails before any flag is laid over it
    if args.csv:
        raw["data"] = {"csv": args.csv}
    elif synthetic:  # over the file's synthetic settings, or in place of its CSV
        raw["data"] = {"synthetic": {**(raw.get("data") or {}).get("synthetic", {}), **synthetic}}
    if args.schema:
        raw["schema"] = args.schema
    if args.groups:
        raw["groups"] = list(_parse_list(parser, args.groups, GROUP_IDS, "group"))
    if args.models:
        raw["models"] = list(_parse_list(parser, args.models, MODEL_IDS, "model"))
    for name in SETTING_TYPES:
        if getattr(args, name) is not None:
            raw[name] = getattr(args, name)
    return ExperimentConfig.from_dict(raw)


def _cmd_run(args, parser) -> int:
    config = _build_run_config(args, parser)
    matrix, fitted = run_matrix_fitted(config)
    files = emit_report(matrix, config.out_dir)
    if config.save_models:
        models_dir = Path(config.out_dir) / "models"
        models_dir.mkdir(parents=True, exist_ok=True)
        for (g, m), fit in fitted.items():
            cell = matrix.cells[(g, m)]
            save_model(cell, fit, models_dir / f"{m}__{g}.json")
    failures = [c for c in matrix.cells.values() if c.error is not None]
    print(render_table5_text(matrix))
    print(f"\nreports written to {files['table4'].parent}")
    for c in failures:
        print(f"cell failed: {c.model_id} × {c.group_id}: {c.error}", file=sys.stderr)
    if len(failures) == len(matrix.cells):
        print(f"error: all {len(failures)} cells failed", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args, parser) -> int:
    if args.out == "":
        parser.error("--out must not be empty")
    matrix = load_results(args.results)
    files = emit_report(matrix, args.out, write_results=False)
    print(f"re-rendered {len(files)} files in {args.out}")
    return 0


def _cmd_predict(args, parser) -> int:
    pm = load_model(args.model)
    text = args.record
    try:
        if not text.lstrip().startswith("{") and os.path.exists(text):
            text = Path(text).read_text(encoding="utf-8-sig")
        record = json.loads(text)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        parser.error("--record must be a JSON object or a path to one")
    if not isinstance(record, dict):
        parser.error("--record must decode to a JSON object")
    result = predict_single(pm, record, trace=args.trace)
    print(json.dumps(result))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "report": _cmd_report,
    "predict": _cmd_predict,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
