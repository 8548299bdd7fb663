import argparse
import codecs
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from helpers import FAILED_AND_TUNED, schema_without_bounds

import spineml
from spineml.cli import _build_parser, _build_run_config, main
from spineml.dataset import load_csv
from spineml.experiment import SETTING_TYPES, ExperimentConfig
from spineml.model_selection import stratified_shuffle_split
from spineml.schema import default_schema
from spineml.synthetic import generate_synthetic


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_header_plus_rows(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, stdout, _ = _run(capsys, "generate", "--n", "244", "--seed", "7",
                           "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 245
    assert "n=244" in stdout
    assert "success=" in stdout


def test_generate_rejects_small_n(tmp_path, capsys):
    code, _, stderr = _run(capsys, "generate", "--n", "5", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert stderr.splitlines() == ["error: n must be ≥ 20, got 5"]


@pytest.mark.parametrize("generate_flags,run_flags,message", [
    (["--seed", "-1"], ["--data-seed", "-1"], "synthetic seed must be ≥ 0: -1"),
    (["--n", "5"], ["--n", "5"], "n must be ≥ 20, got 5"),
    (["--signal", "nan"], ["--signal", "nan"], "signal must be in [0, 1], got nan"),
    (["--n", "100000000000000000000"], ["--n", "100000000000000000000"],
     f"n must be ≤ {(2**63 - 1) // (8 * 23)} for 23 feature columns, got 100000000000000000000"),
])
def test_generate_refuses_a_synthetic_setting_with_runs_error_line(tmp_path, capsys, generate_flags, run_flags,
                                                                   message):
    # `generate --seed -1` reached numpy's generator unchecked and ended in a
    # traceback; its other bad settings exited 2 with argparse's usage line.
    gen = _run(capsys, "generate", *generate_flags, "--out", str(tmp_path / "x.csv"))
    run = _run(capsys, "run", *run_flags, "--out", str(tmp_path / "r"))
    assert gen == run == (1, "", f"error: {message}\n")
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "r").exists()


@pytest.mark.parametrize("n", ["100000000000000000000", "4611686018427387904"])
@pytest.mark.parametrize("command", ["generate", "run"])
def test_an_n_past_the_largest_array_is_refused_before_anything_is_allocated(tmp_path, capsys, command, n):
    # Both n ended in a traceback from the generator's first arrays: numpy's
    # "Maximum allowed dimension exceeded" and "array is too big". The bound
    # is the most rows of 23 float64 columns an array can hold.
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([command, "--n", n, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: n must be ≤ {(2**63 - 1) // (8 * 23)} for 23 feature columns, got {n}"]
    assert peak < 2**20 and not out.exists()


@pytest.mark.parametrize("value", ["-0.2", "1.5", "nan"])
def test_generate_rejects_an_out_of_range_p_success(tmp_path, capsys, value):
    code, _, stderr = _run(capsys, "generate", "--p-success", value, "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert stderr.splitlines() == [f"error: p_success must be in [0, 1], got {float(value)}"]
    assert not (tmp_path / "x.csv").exists()


def test_run_rejects_an_out_of_range_signal_flag(tmp_path, capsys):
    code, _, stderr = _run(capsys, "run", "--signal", "3", "--out", str(tmp_path / "r"))
    assert code == 1
    assert stderr.strip().splitlines() == ["error: signal must be in [0, 1], got 3.0"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flags", [["--n", "5000"], ["--signal", "0.9"], ["--data-seed", "3"],
                                   ["--n", "5000", "--signal", "0.9"]])
def test_run_rejects_csv_with_a_synthetic_data_flag(tmp_path, capsys, flags):
    csv = tmp_path / "p.csv"
    main(["generate", "--n", "60", "--out", str(csv)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--csv", str(csv), *flags, "--groups", "I", "--models", "GaussianNB",
              "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "spineml: error: --csv cannot be combined with --n, --signal or --data-seed")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag", ["--csv", "--schema", "--config", "--groups", "--models", "--out"])
def test_run_rejects_an_empty_path_or_list_flag(tmp_path, monkeypatch, capsys, flag):
    # An empty value once counted as no flag: `--csv ""` ran synthetic data,
    # and `--out ""` wrote the reports into the working directory.
    monkeypatch.chdir(tmp_path)
    rest = {"--groups": "I", "--models": "GaussianNB", "--out": "r"}
    argv = ["run", flag, "", "--folds", "4"]
    for other, value in rest.items():
        if other != flag:
            argv += [other, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"spineml: error: {flag} must not be empty"
    assert list(tmp_path.iterdir()) == []


def test_synthetic_data_flags_replace_a_config_files_csv(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"data": {"csv": "p.csv"}}))
    parser = _build_parser()
    config = _build_run_config(parser.parse_args(["run", "--config", str(cfg_path), "--n", "60"]), parser)
    assert config.csv_path is None
    assert config.synthetic == {"n": 60}


def _run_flag_actions():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["run"]._actions


def _other_value(action, default):
    """A valid value of the setting other than its default."""
    if action.choices:
        return next(c for c in action.choices if c != default)
    if isinstance(default, str):
        return default + "_x"
    return default + 1 if isinstance(default, int) else default / 2


@pytest.mark.parametrize("name", list(SETTING_TYPES))
def test_each_config_setting_has_one_run_flag(name):
    [action] = [a for a in _run_flag_actions() if a.dest == name]
    default = getattr(ExperimentConfig, name)
    if action.nargs == 0:  # a switch, off unless given
        assert default is False
        argv, value = [action.option_strings[0]], True
    else:
        assert re.search(rf"\(default:? {re.escape(str(default))}\)", action.help)
        value = _other_value(action, default)
        argv = [action.option_strings[0], str(value)]
    parser = _build_parser()
    assert getattr(_build_run_config(parser.parse_args(["run", *argv]), parser), name) == value


def test_generate_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run(capsys, "generate", "--n", "50", "--seed", "3", "--out", str(a))
    _run(capsys, "generate", "--n", "50", "--seed", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_with_config_file(tmp_path, capsys):
    cfg = {
        "data": {"synthetic": {"n": 80, "seed": 5, "signal": 0.6}},
        "groups": ["I"],
        "models": ["GaussianNB", "KNN"],
        "n_folds": 4,
        "out_dir": str(tmp_path / "reports"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, stdout, _ = _run(capsys, "run", "--config", str(cfg_path))
    assert code == 0
    out_dir = tmp_path / "reports"
    for name in ("table4.csv", "table5.csv", "fig2a.svg", "fig2b.svg", "results.json"):
        assert (out_dir / name).exists()
    assert "mean_acc" in stdout


def test_run_inline_flags_restrict_cells(tmp_path, capsys):
    code, stdout, _ = _run(
        capsys, "run", "--n", "80", "--data-seed", "5", "--signal", "0.6",
        "--groups", "I", "--models", "KNN,DT", "--folds", "4",
        "--out", str(tmp_path / "r"),
    )
    assert code == 0
    results = json.loads((tmp_path / "r" / "results.json").read_text())
    assert len(results["cells"]) == 2
    ids = {(c["group"], c["model"]) for c in results["cells"]}
    assert ids == {("I", "KNN"), ("I", "DT")}


def test_run_rejects_unknown_group(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--groups", "VIII", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "VIII" in capsys.readouterr().err


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data": {"synthetic": {"n": 50}}, "oops": 1}))
    code, _, stderr = _run(capsys, "run", "--config", str(cfg_path))
    assert code == 1
    assert "oops" in stderr


def test_run_save_models_writes_model_files(tmp_path, capsys):
    code, _, _ = _run(
        capsys, "run", "--n", "80", "--data-seed", "2", "--groups", "I",
        "--models", "KNN", "--folds", "4", "--save-models",
        "--out", str(tmp_path / "r"),
    )
    assert code == 0
    assert (tmp_path / "r" / "models" / "KNN__I.json").exists()


def test_run_default_seed_is_reproducible(tmp_path, capsys):
    args = ["run", "--n", "60", "--groups", "IV", "--models", "GaussianNB", "--folds", "4"]
    _run(capsys, *args, "--out", str(tmp_path / "r1"))
    _run(capsys, *args, "--out", str(tmp_path / "r2"))
    a = json.loads((tmp_path / "r1" / "results.json").read_text())
    b = json.loads((tmp_path / "r2" / "results.json").read_text())
    a["provenance"]["timestamp"] = b["provenance"]["timestamp"] = None
    assert a == b


def test_report_rerenders_without_recompute(tmp_path, capsys):
    _run(capsys, "run", "--n", "80", "--data-seed", "4", "--groups", "I",
         "--models", "KNN,DT", "--folds", "4", "--out", str(tmp_path / "r"))
    code, _, _ = _run(capsys, "report", "--results", str(tmp_path / "r" / "results.json"),
                      "--out", str(tmp_path / "again"))
    assert code == 0
    assert (tmp_path / "again" / "table4.csv").read_bytes() == (
        tmp_path / "r" / "table4.csv"
    ).read_bytes()
    assert not (tmp_path / "again" / "results.json").exists()


def test_report_rejects_an_empty_out(tmp_path, monkeypatch, capsys):
    # An empty --out once re-rendered the reports into the working directory.
    _run(capsys, "run", "--n", "80", "--data-seed", "4", "--groups", "I",
         "--models", "GaussianNB", "--folds", "4", "--out", str(tmp_path / "r"))
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    with pytest.raises(SystemExit) as exc:
        main(["report", "--results", str(tmp_path / "r" / "results.json"), "--out", ""])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "spineml: error: --out must not be empty"
    assert list(here.iterdir()) == []


@pytest.mark.parametrize("edit,message", [
    (lambda r: r["group_stats"]["VII"].update(mean_acc=0.123),
     "aggregate mismatch for group VII/mean_acc"),
    (lambda r: r["cells"].pop(), "results file is malformed: missing key ('VII', 'DT')"),
    (lambda r: r["cells"][0].update(accuracy="0.9"),
     "results file holds a non-numeric accuracy: '0.9'"),
    (lambda r: r["group_stats"].pop("VII"), "results file is malformed: missing key 'VII'"),
    (lambda r: r["cells"][0].update(accuracy=10**400),
     "results file is malformed: int too large to convert to float"),
], ids=["changed-group-stat", "removed-cell", "string-accuracy", "missing-group-stats",
        "huge-integer-accuracy"])
def test_report_rejects_an_edited_results_file(tmp_path, capsys, edit, message):
    _run(capsys, "run", "--n", "80", "--data-seed", "4", "--groups", "I,VII",
         "--models", "GaussianNB,DT", "--folds", "4", "--out", str(tmp_path / "r"))
    raw = json.loads((tmp_path / "r" / "results.json").read_text())
    edit(raw)
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(raw))
    code, stdout, stderr = _run(capsys, "report", "--results", str(bad),
                                "--out", str(tmp_path / "again"))
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {message}\n"


@pytest.mark.parametrize("edit", [lambda r: r["group_stats"]["I"].update(mean_f1=float("nan")),
                                  lambda r: r["cells"][0].update(f1=float("nan"))],
                         ids=["nan-group-stat", "nan-cell-f1"])
def test_report_rejects_a_results_file_with_a_nan_statistic(tmp_path, capsys, edit):
    # json reads the NaN token, and a NaN compared within the tolerance read
    # as no drift: `report` wrote "nan" into table5 or table4 and exited 0.
    _run(capsys, "run", "--n", "80", "--data-seed", "4", "--groups", "I,VII",
         "--models", "GaussianNB,DT", "--folds", "4", "--out", str(tmp_path / "r"))
    raw = json.loads((tmp_path / "r" / "results.json").read_text())
    edit(raw)
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(raw))
    code, stdout, stderr = _run(capsys, "report", "--results", str(bad), "--out", str(tmp_path / "again"))
    assert (code, stdout, stderr) == (1, "", "error: aggregate mismatch for group I/mean_f1\n")
    assert not (tmp_path / "again").exists()


def test_report_rejects_a_results_file_whose_recomputed_spread_overflows(tmp_path, capsys):
    # A cell accuracy of 1e200 overflows the square in the recomputed
    # standard deviation: `report` raised numpy's RuntimeWarning from its
    # aggregate check before it could name the drift.
    _run(capsys, "run", "--n", "80", "--data-seed", "4", "--groups", "I,VII",
         "--models", "GaussianNB,DT", "--folds", "4", "--out", str(tmp_path / "r"))
    raw = json.loads((tmp_path / "r" / "results.json").read_text())
    raw["cells"][0]["accuracy"] = 1e200
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(raw))
    proc = _spineml("report", "--results", str(bad), "--out", str(tmp_path / "again"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: aggregate mismatch for group I/mean_acc\n")
    assert not (tmp_path / "again").exists()


def _make_model(tmp_path, capsys):
    _run(capsys, "run", "--n", "80", "--data-seed", "3", "--groups", "II",
         "--models", "KNN", "--folds", "4", "--save-models",
         "--out", str(tmp_path / "r"))
    return tmp_path / "r" / "models" / "KNN__II.json"


def _subprocess_env():
    """The environment of a child interpreter that imports this spineml."""
    src = str(Path(spineml.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_predict_does_not_import_numpy_random(tmp_path, capsys):
    # Importing numpy.random adds 3–5% to a cold `spineml predict`, and
    # nothing predict runs draws a random number.
    model = _make_model(tmp_path, capsys)
    record = json.dumps({"GEN": 1, "AGE": 50, "EMP_ST": 3})
    script = (f"import sys; from spineml.cli import main; code = main(['predict', '--model', {str(model)!r}, "
              f"'--record', {record!r}]); print(code, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_subprocess_env(),
                          timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


def test_predict_inline_record(tmp_path, capsys):
    model = _make_model(tmp_path, capsys)
    record = json.dumps({"GEN": 1, "AGE": 50, "EMP_ST": 3})
    code, stdout, _ = _run(capsys, "predict", "--model", str(model), "--record", record)
    assert code == 0
    payload = json.loads(stdout.strip().split("\n")[-1])
    assert set(payload) == {"label", "score"}
    assert payload["label"] in ("success", "no-success")


def test_predict_record_file_and_trace(tmp_path, capsys):
    model = _make_model(tmp_path, capsys)
    rec_path = tmp_path / "rec.json"
    rec_path.write_text(json.dumps({"GEN": 0, "AGE": 61, "EMP_ST": 7}))
    code, stdout, _ = _run(capsys, "predict", "--model", str(model),
                           "--record", str(rec_path), "--trace")
    assert code == 0
    payload = json.loads(stdout.strip().split("\n")[-1])
    assert set(payload) == {"label", "score", "trace"}
    assert {t["name"] for t in payload["trace"]} == {"GEN", "AGE", "EMP_ST"}


def test_predict_missing_feature_exits_1(tmp_path, capsys):
    model = _make_model(tmp_path, capsys)
    code, _, stderr = _run(capsys, "predict", "--model", str(model),
                           "--record", json.dumps({"GEN": 1, "EMP_ST": 3}))
    assert code == 1
    assert "missing feature: AGE" in stderr


@pytest.mark.parametrize("name,value", [("LEVELS", True), ("BMI", "27.5")])
def test_predict_reads_record_values_by_the_json_number_rule(tmp_path, capsys, name, value):
    # `float(value)` read a bool as 1.0 and a numeric string as its number,
    # and predicted with exit 0; every other JSON input refuses both.
    _run(capsys, "run", "--n", "80", "--data-seed", "3", "--groups", "I",
         "--models", "GaussianNB", "--folds", "4", "--save-models", "--out", str(tmp_path / "r"))
    record = {"BMI": 27.5, "LEVELS": 2, "PRE_LUMBAR_EVA": 7, "PRE_LEG_EVA": 6, "PRE_ODI": 40}
    model = str(tmp_path / "r" / "models" / "GaussianNB__I.json")
    assert _run(capsys, "predict", "--model", model, "--record", json.dumps(record))[0] == 0
    code, stdout, stderr = _run(capsys, "predict", "--model", model, "--record", json.dumps({**record, name: value}))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: feature {name}: value must be a finite number, got {value!r}\n"


@pytest.mark.parametrize("name,value,column", [("DRAM", 1.5, "ordinal column in [0, 3]"),
                                               ("GEN", 0.5, "binary column in [0, 1]"),
                                               ("AGE", 90.5, "continuous column in [18, 90]")])
def test_predict_refuses_a_value_its_column_cannot_hold(tmp_path, capsys, name, value, column):
    # `predict` encoded the ordinal DRAM 1.5 as 1.0 and the binary GEN 0.5
    # as 0.0 and exited 0, while a run fitted no such value. A value out of
    # range was refused before, with another message.
    _run(capsys, "run", "--n", "80", "--data-seed", "3", "--groups", "VII",
         "--models", "GaussianNB", "--folds", "4", "--save-models", "--out", str(tmp_path / "r"))
    data = generate_synthetic(20, 5, 0.5)
    record = dict(zip(data.feature_names, data.rows[0].tolist()))
    model = str(tmp_path / "r" / "models" / "GaussianNB__VII.json")
    assert _run(capsys, "predict", "--model", model, "--record", json.dumps(record))[0] == 0
    code, stdout, stderr = _run(capsys, "predict", "--model", model, "--record", json.dumps({**record, name: value}))
    assert (code, stdout, stderr) == (1, "", f"error: feature {name}={value} is not a value of its {column}\n")


def test_a_csv_row_with_a_value_its_column_cannot_hold_is_dropped_at_ingestion(tmp_path, capsys):
    # Rows with the ordinal DRAM at 1.5 were kept; each cell whose training
    # partition held one failed ("categorical column holds non-integer
    # codes") and the run exited 0.
    data = tmp_path / "d.csv"
    _run(capsys, "generate", "--out", str(data))
    header, *rows = [line.split(",") for line in data.read_text().splitlines()]
    for row in rows[::24]:
        row[header.index("DRAM")] = "1.5"
    data.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    code, _, stderr = _run(capsys, "run", "--csv", str(data), "--models", "GaussianNB,KNN", "--out", str(tmp_path / "r"))
    assert (code, stderr) == (0, f"note: dropped 11 of 244 data rows from {data} (first: row 1: bad DRAM)\n")


def test_predict_version_mismatch_exits_1(tmp_path, capsys):
    model = _make_model(tmp_path, capsys)
    raw = json.loads(model.read_text())
    raw["format_version"] = 9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, _, stderr = _run(capsys, "predict", "--model", str(bad),
                           "--record", json.dumps({"GEN": 1, "AGE": 50, "EMP_ST": 3}))
    assert code == 1
    assert "version" in stderr.lower()


@pytest.mark.parametrize("model_id,section,field,value", [
    ("KNN", "classifier", "metric", "cosine"),
    ("KNN", "classifier", "weighting", "distance"),
    ("DT", "classifier", "criterion", "mse"),
    ("DT", "preprocessing", "scaling_mode", "zscore"),
    ("KNN", "classifier", "k", 0),
    ("KNN", "classifier", "k", -2),
    ("KNN", "classifier", "k", 100000),
    ("KNN", "classifier", "labels", [0, 2]),
    ("GaussianNB", "classifier", "classes", [0, 2]),
    ("DT", "preprocessing", "kept", [0, 99]),
    ("KNN", "classifier", "k", 3.7),
    ("KNN", "classifier", "k", True),
    ("KNN", "classifier", "k", "3"),
    ("KNN", "classifier", "k", [3]),
    ("DT", "classifier", "n_features", 16.9),
    ("DT", "classifier", "max_depth", "deep"),
    ("DT", "classifier", "min_samples_leaf", "1"),
    ("KNN", "preprocessing", "kept", [2, 1, 0]),
    ("GaussianNB", "preprocessing", "kept", [0, 0, 1]),
    ("KNN", "preprocessing", "kept", [0, 1]),
])
def test_predict_rejects_a_model_file_with_an_unknown_setting(
    tmp_path, capsys, model_id, section, field, value
):
    _run(capsys, "run", "--n", "80", "--data-seed", "3", "--groups", "II",
         "--models", model_id, "--folds", "4", "--save-models",
         "--out", str(tmp_path / "r"))
    raw = json.loads((tmp_path / "r" / "models" / f"{model_id}__II.json").read_text())
    raw[section][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, stdout, stderr = _run(capsys, "predict", "--model", str(bad),
                                "--record", json.dumps({"GEN": 1, "AGE": 50, "EMP_ST": 3}))
    assert code == 1
    assert stdout == ""
    assert len(stderr.strip().splitlines()) == 1
    assert stderr.startswith("error: model file is malformed") and str(value) in stderr


def _rename_ordinal_column(raw):
    codes = raw["preprocessing"]["ordinal_codes"]
    codes["BMI"] = codes.pop("EMP_ST")


@pytest.mark.parametrize("model_id,edit", [
    ("KNN", lambda raw: raw["features"][0].pop("name")),
    ("KNN", lambda raw: raw["features"].__setitem__(0, "GEN")),
    ("KNN", lambda raw: raw["preprocessing"]["scaler"]["columns"].__setitem__(0, "BMI")),
    ("KNN", _rename_ordinal_column),
    ("KNN", lambda raw: raw["features"][1].__setitem__("min", "eighteen")),
    ("ComplementNB", lambda raw: raw["preprocessing"]["scaler"]["std"].pop()),
    ("KNN", lambda raw: raw["preprocessing"]["ordinal_codes"].__setitem__("GEN", [])),
], ids=["feature-without-name", "feature-not-an-object", "scaler-column-not-a-feature",
        "ordinal-column-not-a-feature", "non-numeric-min", "scaler-array-one-short",
        "empty-code-list"])
def test_predict_rejects_a_malformed_preprocessing_section_at_load(tmp_path, capsys, model_id, edit):
    _run(capsys, "run", "--n", "80", "--data-seed", "3", "--groups", "II",
         "--models", model_id, "--folds", "4", "--save-models",
         "--out", str(tmp_path / "r"))
    raw = json.loads((tmp_path / "r" / "models" / f"{model_id}__II.json").read_text())
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, stdout, stderr = _run(capsys, "predict", "--model", str(bad),
                                "--record", json.dumps({"GEN": 1, "AGE": 50, "EMP_ST": 3}))
    assert code == 1
    assert stdout == ""
    assert len(stderr.strip().splitlines()) == 1
    assert stderr.startswith("error: model file is malformed: ")


def _set_variance(value, smoothing=None):
    def edit(raw):
        raw["classifier"]["variances"][0][0] = value
        if smoothing is not None:
            raw["classifier"]["var_smoothing"] = smoothing
    return edit


def _set_std(value):
    return lambda raw: raw["preprocessing"]["scaler"]["std"].__setitem__(0, value)


def _set_scaler(key, value):
    def edit(raw):
        scaler = raw["preprocessing"]["scaler"]
        scaler[key] = [value(v) for v in scaler[key]]
    return edit


def _set_counts(value):
    def edit(raw):  # every node's
        nodes = [raw["classifier"]["root"]]
        while nodes:
            node = nodes.pop()
            node["counts"] = list(value)
            nodes += [node[side] for side in ("left", "right") if side in node]
    return edit


@pytest.mark.parametrize("model_id,edit", [
    ("GaussianNB", _set_variance(-0.5)),
    ("GaussianNB", _set_variance(float("nan"))),
    ("GaussianNB", _set_variance(float("inf"))),
    ("GaussianNB", _set_variance(0.0, smoothing=0.0)),
    ("GaussianNB", _set_variance(0.25, smoothing=-1.0)),
    ("GaussianNB", _set_variance(0.25, smoothing=float("nan"))),
    ("KNN", _set_std(0.0)),
    ("KNN", _set_std(-1.5)),
    ("KNN", _set_std(float("nan"))),
    ("KNN", _set_std(float("inf"))),
    ("DT", lambda raw: raw["classifier"]["root"].__setitem__("threshold", float("nan"))),
    ("KNN", lambda raw: raw["classifier"]["points"][0].__setitem__(1, float("inf"))),
    ("KNN", _set_scaler("mean", lambda v: float("inf"))),
    ("KNN", _set_scaler("constant", lambda v: "no")),
    ("DT", lambda raw: raw["preprocessing"]["kept"].__setitem__(-1, raw["preprocessing"]["kept"][-1] + 0.5)),
    ("KNN", _set_scaler("mean", str)),
    ("GaussianNB", lambda raw: raw["classifier"].__setitem__("priors", [0.0, 0.0])),
    ("GaussianNB", lambda raw: raw["classifier"].__setitem__("priors", [-0.5, 1.5])),
    ("DT", _set_counts([0, 0])),
    ("DT", _set_counts([3, -5])),
], ids=["negative-variance", "nan-variance", "infinite-variance", "zero-smoothed-variance",
        "negative-smoothed-variance", "nan-var-smoothing", "zero-std", "negative-std",
        "nan-std", "infinite-std", "nan-threshold", "infinite-point", "infinite-scaler-mean",
        "string-constant-flag", "fractional-kept", "string-scaler-mean", "zero-priors",
        "negative-prior", "zero-counts", "negative-count"])
def test_predict_rejects_impossible_model_values_at_load(tmp_path, capsys, model_id, edit):
    # Well-typed values that no fit can produce: each once gave a NaN score,
    # a score outside [0, 1] or a label after a numpy warning, with exit 0.
    _assert_refused_at_load(tmp_path, capsys, model_id, edit, "standardize")


def _set_minmax(low, high, constant=False):
    def edit(raw):
        scaler = raw["preprocessing"]["scaler"]
        scaler["min"][1], scaler["max"][1], scaler["constant"][1] = low, high, constant
    return edit


@pytest.mark.parametrize("edit", [_set_minmax(3.0, 1.0), _set_minmax(2.0, 2.0),
                                  _set_minmax(3.0, 1.0, constant=True)],
                         ids=["max-below-min", "max-equals-min", "constant-max-below-min"])
def test_predict_rejects_impossible_minmax_scaler_values_at_load(tmp_path, capsys, edit):
    # A ComplementNB file scales every column by min-max: a max below the min
    # or equal to it in a column not flagged constant once predicted with exit
    # 0, the latter after a RuntimeWarning.
    _assert_refused_at_load(tmp_path, capsys, "ComplementNB", edit, "minmax")


def _assert_refused_at_load(tmp_path, capsys, model_id, edit, scaling_mode):
    _run(capsys, "run", "--n", "80", "--data-seed", "3", "--groups", "II",
         "--models", model_id, "--folds", "4", "--save-models",
         "--out", str(tmp_path / "r"))
    raw = json.loads((tmp_path / "r" / "models" / f"{model_id}__II.json").read_text())
    assert raw["preprocessing"]["scaling_mode"] == scaling_mode
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, stdout, stderr = _run(capsys, "predict", "--model", str(bad),
                                "--record", json.dumps({"GEN": 1, "AGE": 50, "EMP_ST": 3}))
    assert code == 1
    assert stdout == ""
    assert len(stderr.strip().splitlines()) == 1
    assert stderr.startswith("error: model file is malformed: ")


def test_a_constant_column_scales_to_zero_in_run_and_predict(tmp_path, capsys):
    # A column of 0.7 has a sample std of 2.2e-16, not 0, so it was not taken
    # for constant: min-max divided 0 by 0 and the run ended in a traceback,
    # and a saved KNN scaled a record's 0.8 to 4.5e14.
    data = tmp_path / "d.csv"
    _run(capsys, "generate", "--n", "120", "--seed", "5", "--out", str(data))
    header, *rows = [line.split(",") for line in data.read_text().splitlines()]
    creat = header.index("CREAT")
    for row in rows:
        row[creat] = "0.7"
    data.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    code, _, stderr = _run(capsys, "run", "--csv", str(data), "--groups", "IV", "--models",
                           "ComplementNB,KNN", "--save-models", "--out", str(tmp_path / "r"))
    assert (code, _error_lines(stderr)) == (0, [])
    for model_id in ("ComplementNB", "KNN"):
        model = tmp_path / "r" / "models" / f"{model_id}__IV.json"
        scaler = json.loads(model.read_text())["preprocessing"]["scaler"]
        assert [c == "CREAT" for c in scaler["columns"]] == scaler["constant"]
        record = {name: float(rows[0][header.index(name)]) for name in ("GLU", "UREA", "URIC_ACID", "CHOL")}
        code, stdout, _ = _run(capsys, "predict", "--model", str(model), "--trace",
                               "--record", json.dumps({**record, "CREAT": 0.8}))
        assert code == 0
        scaled = next(t["scaled"] for t in json.loads(stdout)["trace"] if t["name"] == "CREAT")
        assert abs(scaled) <= 0.1 + 1e-9


@pytest.mark.parametrize("command", ["generate", "run", "report", "predict"])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_predict_output_is_strict_json(tmp_path, capsys):
    model = _make_model(tmp_path, capsys)
    record = json.dumps({"GEN": 1, "AGE": 44, "EMP_ST": 1})
    _, stdout, _ = _run(capsys, "predict", "--model", str(model), "--record", record)
    line = stdout.strip().split("\n")[-1]
    json.loads(line)  # must parse strictly


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _spineml(*argv):
    """`spineml *argv` in a child interpreter, so that its real stderr is read."""
    return subprocess.run([sys.executable, "-c", "import sys; from spineml.cli import main; sys.exit(main())",
                           *argv], capture_output=True, text=True, env=_subprocess_env(), timeout=300)


def test_a_run_past_memory_ends_in_one_error_line(tmp_path):
    # 10^12 synthetic rows need 7.3 TiB for their first array. The child's
    # address space is capped at 2 GiB, so the allocation fails without
    # touching the host's memory; numpy's MemoryError ends in one line.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

    proc = subprocess.run([sys.executable, "-c", "import sys; from spineml.cli import main; sys.exit(main())",
                           "run", "--n", "1000000000000", "--groups", "VII", "--models", "GaussianNB",
                           "--out", str(tmp_path / "r")],
                          capture_output=True, text=True, env=_subprocess_env(), timeout=300, preexec_fn=cap)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("model_id,printed", [("KNN", '{"label": "no-success", "score": 0.6}'),
                                              ("GaussianNB", '{"label": "no-success", "score": 0.5}')])
def test_predict_on_a_record_scaled_past_the_square_range_warns_nothing(tmp_path, capsys, model_id, printed):
    # A loaded scaler mean of 1e200 scales the record to about -1e200, whose
    # square overflows: numpy's "overflow encountered in multiply" reached
    # stderr, and GaussianNB's "invalid value encountered in subtract" too,
    # from the all -inf row its shift leaves NaN. The printed result is the
    # one it was then.
    _run(capsys, "run", "--groups", "II", "--models", model_id, "--save-models", "--out", str(tmp_path / "r"))
    raw = json.loads((tmp_path / "r" / "models" / f"{model_id}__II.json").read_text())
    raw["preprocessing"]["scaler"]["mean"] = [1e200]
    model = tmp_path / "far.json"
    model.write_text(json.dumps(raw))
    proc = _spineml("predict", "--model", str(model), "--record", json.dumps({"GEN": 1, "AGE": 50, "EMP_ST": 3}))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, printed + "\n", "")


def test_a_run_whose_test_row_is_scaled_past_the_square_range_warns_nothing(tmp_path, capsys):
    # The first test row of the seed-42 split has an AGE of 1e200, which a
    # schema without AGE bounds keeps: the scaler fitted on the training
    # rows maps it past the square range, and the run printed all three
    # warnings above. Its results are as they were.
    data = tmp_path / "huge.csv"
    _run(capsys, "generate", "--out", str(data))
    header, *rows = [line.split(",") for line in data.read_text().splitlines()]
    labels = load_csv(data)[0].labels
    first = stratified_shuffle_split(labels, ExperimentConfig.test_fraction, seed=42).test_idx[0]
    rows[first][header.index("AGE")] = "1e200"
    data.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    proc = _spineml("run", "--csv", str(data), "--schema", schema_without_bounds(tmp_path, "AGE"), "--groups", "II",
                    "--models", "GaussianNB,KNN,KNN_opt,DT", "--out", str(tmp_path / "r"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "II    Socioeconomic                      0.48    0.02     0.50    0.05" in proc.stdout.splitlines()


def test_predict_gives_a_finite_score_when_every_neighbor_is_infinitely_far(tmp_path, capsys):
    # A loaded scaler mean of 1e200 puts every neighbor at an infinite
    # distance, so every inverse-distance weight is 0: the score was 0/0 and
    # `predict` printed "score": NaN with exit 0.
    _run(capsys, "run", "--groups", "II", "--models", "KNN", "--save-models", "--out", str(tmp_path / "r"))
    raw = json.loads((tmp_path / "r" / "models" / "KNN__II.json").read_text())
    raw["classifier"]["weighting"] = "inverse-distance"
    raw["preprocessing"]["scaler"]["mean"] = [1e200]
    model = tmp_path / "far.json"
    model.write_text(json.dumps(raw))
    code, stdout, _ = _run(capsys, "predict", "--model", str(model),
                           "--record", json.dumps({"GEN": 1, "AGE": 50, "EMP_ST": 3}))
    assert code == 0
    payload = json.loads(stdout, parse_constant=_refuse_constant)
    assert payload["label"] in ("success", "no-success") and 0.0 <= payload["score"] <= 1.0


def test_a_run_whose_scaler_overflows_fails_those_cells_and_saves_only_loadable_files(tmp_path, capsys):
    # One AGE of 1e200 in ten rows (kept by a schema without AGE bounds)
    # makes the sample std of AGE overflow: the run printed numpy's RuntimeWarning, exited 0 and saved group II's files
    # with a std of Infinity, which `predict` refused, the ComplementNB file
    # too although min-max scaling never reads it.
    data = tmp_path / "huge.csv"
    _run(capsys, "generate", "--out", str(data))
    header, *rows = [line.split(",") for line in data.read_text().splitlines()]
    for row in rows[:10]:
        row[header.index("AGE")] = "1e200"
    data.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    proc = _spineml("run", "--csv", str(data), "--schema", schema_without_bounds(tmp_path, "AGE"), "--groups", "I,II",
                    "--models", "KNN,ComplementNB", "--save-models", "--out", str(tmp_path / "r"))
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    failed = [line.split(": ")[1] for line in proc.stderr.splitlines() if line.startswith("cell failed: ")]
    assert failed == ["ComplementNB × II", "KNN × II"]
    saved = sorted(p.name for p in (tmp_path / "r" / "models").iterdir())
    assert saved == ["ComplementNB__I.json", "KNN__I.json"]
    record = {name: float(value) for name, value in zip(header, rows[-1])}
    for name in saved:
        code, stdout, stderr = _run(capsys, "predict", "--model", str(tmp_path / "r" / "models" / name),
                                    "--record", json.dumps(record))
        assert (code, stderr) == (0, "")
        assert json.loads(stdout, parse_constant=_refuse_constant)["label"] in ("success", "no-success")


def _error_lines(stderr):
    return [line for line in stderr.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("fraction,message", [
    ("0.001", "test_fraction 0.001 of 244 rows leaves no test row"),
    ("0.999", "test_fraction 0.999 of 244 rows leaves no class 0 row to train on"),
], ids=["no-test-row", "no-training-row"])
@pytest.mark.parametrize("per_cell", [[], ["--per-cell-split"]], ids=["shared-split", "per-cell-split"])
def test_run_with_an_empty_partition_fails_before_any_cell(tmp_path, capsys, monkeypatch, workers, fraction,
                                                          message, per_cell):
    monkeypatch.setattr("spineml.experiment.run_cell_fitted", None)  # a cell that ran would fail otherwise
    code, stdout, stderr = _run(capsys, "run", "--groups", "VII", "--models", "KNN,DT", "--test-fraction",
                                fraction, "--workers", workers, *per_cell, "--out", str(tmp_path / "r"))
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("per_cell", [[], ["--per-cell-split"]], ids=["shared-split", "per-cell-split"])
def test_run_with_a_class_smaller_than_the_folds_fails_before_any_cell(tmp_path, capsys, monkeypatch, workers,
                                                                       per_cell):
    # At test fraction 0.95 the default data leave 6 class-0 training rows
    # for 8 folds, for every split seed: every tuned cell would fail alike.
    monkeypatch.setattr("spineml.experiment.run_cell_fitted", None)  # a cell that ran would fail otherwise
    code, stdout, stderr = _run(capsys, "run", "--test-fraction", "0.95", "--workers", workers, *per_cell,
                                "--out", str(tmp_path / "r"))
    assert (code, stdout, stderr) == (
        1, "", "error: class 0 has 6 rows in the training partition, fewer than 8 folds\n")
    assert not (tmp_path / "r").exists()


def test_run_of_untuned_models_with_a_class_smaller_than_the_folds_succeeds(tmp_path, capsys):
    code, _, stderr = _run(capsys, "run", "--test-fraction", "0.95", "--models", "GaussianNB,KNN,DT",
                           "--out", str(tmp_path / "r"))
    assert (code, stderr) == (0, "")
    cells = json.loads((tmp_path / "r" / "results.json").read_text())["cells"]
    assert len(cells) == 21 and all(cell["error"] is None for cell in cells)


def test_run_on_one_outcome_class_fails_before_any_cell(tmp_path, capsys, monkeypatch):
    _run(capsys, "generate", "--p-success", "1.0", "--out", str(tmp_path / "one.csv"))
    monkeypatch.setattr("spineml.experiment.run_cell_fitted", None)
    code, stdout, stderr = _run(capsys, "run", "--csv", str(tmp_path / "one.csv"), "--out", str(tmp_path / "r"))
    assert (code, stdout, stderr) == (1, "", "error: every label is class 1: a stratified split needs both classes\n")
    assert not (tmp_path / "r").exists()


def test_run_exits_1_when_every_cell_failed(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grids": {"KNN": {"k": [5000]}}}))
    code, _, stderr = _run(
        capsys, "run", "--config", str(cfg_path), "--models", "KNN_opt", "--groups", "VII",
        "--n", "80", "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert _error_lines(stderr) == ["error: all 1 cells failed"]
    assert "cell failed: KNN_opt × VII" in stderr


def test_run_with_some_failed_cells_exits_0_with_notes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grids": {"KNN": {"k": [5000]}}}))
    code, _, stderr = _run(
        capsys, "run", "--config", str(cfg_path), "--models", "KNN,KNN_opt", "--groups", "VII",
        "--n", "80", "--out", str(tmp_path / "r"),
    )
    assert code == 0
    assert _error_lines(stderr) == []
    assert "cell failed: KNN_opt × VII" in stderr


@pytest.mark.parametrize(
    "key, bound, shown",
    [("min", "NaN", "nan"), ("max", "Infinity", "inf"), ("min", '"18"', "'18'"), ("max", "true", "True")],
)
def test_run_rejects_a_schema_bound_that_is_no_finite_number(tmp_path, capsys, key, bound, shown):
    # Read with float(), NaN and infinite bounds reached the data generator
    # and ended in a traceback, and "18" and true were taken as numbers.
    columns = [{"name": c.name, "kind": c.kind, "role": c.role,
                **dict(zip(("min", "max"), c.valid_range or (None, None)))} for c in default_schema().columns]
    for entry in columns:
        if entry["name"] == "AGE":
            entry[key] = "BOUND"
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({"columns": columns}).replace('"BOUND"', bound))
    code, _, stderr = _run(capsys, "run", "--schema", str(schema_path), "--n", "80", "--groups", "I",
                           "--models", "KNN", "--out", str(tmp_path / "r"))
    assert code == 1
    assert stderr.strip().splitlines() == [
        f"error: schema {schema_path}: {key} of column 'AGE' must be a finite number, got {shown}"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "schema_text, message",
    [("{bad", "is not valid JSON"), ("{}", "missing key 'columns'")],
)
def test_run_rejects_a_bad_schema_file_without_traceback(tmp_path, capsys, schema_text, message):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(schema_text)
    code, _, stderr = _run(
        capsys, "run", "--schema", str(schema_path), "--n", "80", "--groups", "I",
        "--models", "KNN", "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert stderr.strip().splitlines() == _error_lines(stderr)
    assert len(_error_lines(stderr)) == 1 and message in stderr


def test_run_rejects_a_mistyped_config_number_without_traceback(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_folds": "8"}))
    code, _, stderr = _run(capsys, "run", "--config", str(cfg_path))
    assert code == 1
    assert stderr.strip().splitlines() == ["error: n_folds must be an integer, got '8'"]


@pytest.mark.parametrize(
    "config, message",
    [
        ({"grids": {"KNN": {"metric": ["foo"]}}}, "grid KNN metric: invalid value 'foo'"),
        ({"data": {"synthetic": 5}}, "data.synthetic must be an object, got 5"),
        ({"grids": {"KNN": 5}}, "grid KNN must be an object, got 5"),
        ({"grids": {"DT": {"max_depth": 3}}}, "grid DT max_depth must be a list, got 3"),
        ({"groups": "VII", "models": ["GaussianNB"]},
         "groups must be a list, got 'VII'"),
        ({"models": ["KNN", 3]}, "unknown model: 3"),
        ([{"seed": 1}], "config must be an object, got [{'seed': 1}]"),
        ({"grids": [1]}, "grids must be an object, got [1]"),
        ({"grids": {"KNN": {"weighting": ["cosine"]}}},
         "grid KNN weighting: invalid value 'cosine'"),
        ({"grids": {"KNN": {"k": [3, "5"]}}}, "grid KNN k: invalid value '5'"),
        ({"grids": {"KNN": {"k": [True]}}}, "grid KNN k: invalid value True"),
        ({"grids": {"KNN": {"leaf": [1]}}}, "unknown grid parameter for KNN: leaf"),
        ({"grids": {"DT": {"criterion": ["log_loss"]}}},
         "grid DT criterion: invalid value 'log_loss'"),
        ({"grids": {"DT": {"max_depth": [None, 2.5]}}}, "grid DT max_depth: invalid value 2.5"),
        ({"grids": {"DT": {"min_samples_leaf": ["1"]}}},
         "grid DT min_samples_leaf: invalid value '1'"),
        ({"seed": -1}, "seed must be ≥ 0: -1"),
        ({"out_dir": 5}, "out_dir must be a string, got 5"),
        ({"grids": {"DT": {"min_samples_leaf": [0]}}}, "grid DT min_samples_leaf: invalid value 0"),
        ({"grids": {"DT": {"max_depth": [-1]}}}, "grid DT max_depth: invalid value -1"),
        ({"grids": {"DT": {"min_samples_split": [-5]}}},
         "grid DT min_samples_split: invalid value -5"),
        ({"data": {"synthetic": {"signal": 5}}}, "signal must be in [0, 1], got 5"),
        ({"data": {"synthetic": {"p_success": -0.2}}}, "p_success must be in [0, 1], got -0.2"),
        ({"data": {"synthetic": {"p_success": 1.5}}}, "p_success must be in [0, 1], got 1.5"),
        ({"data": {"synthetic": {"p_success": float("nan")}}},
         "p_success must be in [0, 1], got nan"),
        ({"out_dir": ""}, "out_dir must not be empty"),
        ({"schema": ""}, "schema_path must not be empty"),
        ({"data": {"csv": ""}}, "csv_path must not be empty"),
        ({"grids": {"KNN": {"k": []}}}, "grid KNN k must not be empty"),
        ({"grids": {"DT": {"criterion": []}}}, "grid DT criterion must not be empty"),
        ({"grids": {"KNN": {"k": [0]}}}, "grid KNN k: invalid value 0"),
        ({"grids": {"KNN": {"k": [3, -2]}}}, "grid KNN k: invalid value -2"),
    ],
)
def test_run_rejects_a_malformed_config_without_traceback(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    argv = ["run", "--config", str(cfg_path), "--n", "80", "--out", str(tmp_path / "r")]
    if "groups" not in config:
        argv += ["--groups", "VII", "--models", "KNN_opt,DT_opt"]
    code, _, stderr = _run(capsys, *argv)
    assert code == 1
    assert stderr.strip().splitlines() == [f"error: {message}"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("grid, error", [
    ({"min_samples_leaf": [2**63 - 1]}, None),
    ({"max_depth": [2**64]}, "grid DT max_depth: invalid value 18446744073709551616"),
    ({"min_samples_split": [2**64]}, "grid DT min_samples_split: invalid value 18446744073709551616"),
], ids=["leaf-2**63-1", "depth-2**64", "split-2**64"])
def test_a_grid_integer_runs_to_a_loadable_model_or_fails_the_config(tmp_path, capsys, grid, error):
    # A min_samples_leaf of 2**63 − 1 ended in an IndexError from the CART
    # grower's int64 arithmetic. A max_depth or min_samples_split of 2**64
    # ran and saved a DT_opt file that `predict` refused as malformed: a
    # model file holds no integer above 2**63 − 1, and now no grid does.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grids": {"DT": grid}}))
    code, _, stderr = _run(capsys, "run", "--config", str(cfg_path), "--groups", "II", "--models", "DT_opt",
                           "--save-models", "--out", str(tmp_path / "r"))
    if error is not None:
        assert (code, stderr) == (1, f"error: {error}\n")
        assert not (tmp_path / "r").exists()
        return
    assert (code, stderr) == (0, "")
    model = tmp_path / "r" / "models" / "DT_opt__II.json"
    assert json.loads(model.read_text())["classifier"]["min_samples_leaf"] == 2**63 - 1
    code, stdout, stderr = _run(capsys, "predict", "--model", str(model),
                                "--record", json.dumps({"GEN": 1, "AGE": 50, "EMP_ST": 3}))
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["label"] in ("success", "no-success")


def test_config_file_leaves_the_data_seed_to_the_seed_flag(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text("{}")
    args = ["run", "--n", "60", "--groups", "IV", "--models", "GaussianNB", "--folds", "4",
            "--seed", "7"]
    _run(capsys, *args, "--config", str(cfg_path), "--out", str(tmp_path / "r1"))
    _run(capsys, *args, "--out", str(tmp_path / "r2"))
    a = json.loads((tmp_path / "r1" / "results.json").read_text())
    b = json.loads((tmp_path / "r2" / "results.json").read_text())
    a["provenance"]["timestamp"] = b["provenance"]["timestamp"] = None
    assert a == b


@pytest.mark.parametrize("case", ["config", "model", "results", "csv", "record"])
def test_undecodable_input_files_end_in_one_error_line(tmp_path, capsys, case):
    bad = tmp_path / "bad"
    bad.write_bytes(("GEN,AGE,café\n1,50,2\n" if case == "csv" else '{"name": "café"}')
                    .encode("latin-1"))
    out = str(tmp_path / "r")
    argv = {
        "config": ["run", "--config", str(bad), "--out", out],
        "model": ["predict", "--model", str(bad), "--record", "{}"],
        "results": ["report", "--results", str(bad), "--out", out],
        "csv": ["run", "--csv", str(bad), "--groups", "I", "--models", "KNN", "--out", out],
    }
    if case == "record":
        # one record file that is not UTF-8 and one that is not JSON
        not_json = tmp_path / "not_json"
        not_json.write_text("{not json")
        model = _make_model(tmp_path, capsys)
        for record in (bad, not_json):
            with pytest.raises(SystemExit) as exc:
                main(["predict", "--model", str(model), "--record", str(record)])
            assert exc.value.code == 2
            assert "--record must be a JSON object" in capsys.readouterr().err
        return
    code, stdout, stderr = _run(capsys, *argv[case])
    assert code == 1
    assert stdout == ""
    assert len(stderr.strip().splitlines()) == 1 and stderr.startswith("error: ")


def test_run_reports_dropped_csv_rows_on_stderr(tmp_path, capsys):
    clean = tmp_path / "clean.csv"
    _run(capsys, "generate", "--n", "60", "--seed", "5", "--out", str(clean))
    lines = clean.read_text().splitlines()
    age = lines[0].split(",").index("AGE")
    for row in (3, 9):  # data rows 3 and 9 get an unparseable AGE
        fields = lines[row].split(",")
        fields[age] = "n/a"
        lines[row] = ",".join(fields)
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("\n".join(lines) + "\n")
    args = ["run", "--groups", "IV", "--models", "GaussianNB", "--folds", "4"]

    code, stdout, stderr = _run(capsys, *args, "--csv", str(dirty), "--out", str(tmp_path / "r"))
    assert code == 0
    assert stderr.splitlines() == [
        f"note: dropped 2 of 60 data rows from {dirty} (first: row 3: bad AGE)"
    ]
    assert "note:" not in stdout
    code, _, stderr = _run(capsys, *args, "--csv", str(clean), "--out", str(tmp_path / "c"))
    assert code == 0 and stderr == ""


def _outputs(out):
    """The files a command wrote to `out`, results.json without its timestamp."""
    files = {p.name: p.read_text() for p in sorted(out.glob("*.*"))}
    if "results.json" in files:
        raw = json.loads(files["results.json"])
        raw["provenance"]["timestamp"] = None
        files["results.json"] = raw
    return files


@pytest.mark.parametrize("case", ["csv", "config", "model", "record", "results"])
def test_input_files_may_start_with_a_utf8_bom(tmp_path, capsys, case):
    # Excel's "CSV UTF-8" export and Windows Notepad write a byte-order mark.
    out = tmp_path / "out"
    run = ["run", "--groups", "IV", "--models", "GaussianNB", "--folds", "4", "--out", str(out)]
    path = tmp_path / "input"
    if case == "csv":
        _run(capsys, "generate", "--n", "60", "--seed", "5", "--out", str(path))
        argv = run + ["--csv", str(path)]
    elif case == "config":
        path.write_text(json.dumps({"data": {"synthetic": {"n": 60, "seed": 5}}, "n_folds": 4}))
        argv = ["run", "--config", str(path), "--groups", "IV", "--out", str(out)]
    elif case == "results":
        _run(capsys, *run, "--n", "60")
        (out / "results.json").rename(path)
        argv = ["report", "--results", str(path), "--out", str(out)]
    else:
        model = _make_model(tmp_path, capsys)
        record = {"GEN": 0, "AGE": 61, "EMP_ST": 7}
        if case == "model":
            model.rename(path)
            argv = ["predict", "--model", str(path), "--record", json.dumps(record)]
        else:
            path.write_text(json.dumps(record))
            argv = ["predict", "--model", str(model), "--record", str(path), "--trace"]
    plain = path.read_bytes()
    outcomes = []
    for data in (plain, codecs.BOM_UTF8 + plain):
        path.write_bytes(data)
        code, stdout, stderr = _run(capsys, *argv)
        outcomes.append((code, stdout, stderr, _outputs(out) if out.exists() else None))
    assert outcomes[0][0] == 0
    assert outcomes[1] == outcomes[0]


def _run_files(capsys, out, *argv):
    """A run's exit code, stdout, stderr and output files by relative path,
    with results.json's timestamp nulled and the output path masked."""
    code, stdout, stderr = _run(capsys, "run", *argv, "--out", str(out))
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "results.json":
            raw = json.loads(data)
            raw["provenance"]["timestamp"] = None
            data = json.dumps(raw, sort_keys=True).encode()
        files[str(path.relative_to(out))] = data
    return code, stdout.replace(str(out), "<out>"), stderr, files


def test_group_and_model_order_is_one_experiment(tmp_path, capsys):
    # Groups and models run in their paper order whatever order the flags
    # list them in, so every order (and a repeat) is one experiment, with one
    # config_hash in results.json and in every model file.
    runs = [_run_files(capsys, tmp_path / str(i), "--n", "80", "--data-seed", "3", "--folds", "4",
                       "--save-models", "--groups", groups, "--models", models)
            for i, (groups, models) in enumerate([("I,VII", "KNN,DT"), ("VII,I", "DT,KNN"),
                                                  ("VII,I,VII", "DT,KNN,KNN")])]
    assert runs[0][0] == 0 and len(runs[0][3]) > 4
    assert runs[1] == runs[0] and runs[2] == runs[0]
    config = json.loads(runs[0][3]["results.json"])["provenance"]["config"]
    assert (config["groups"], config["models"]) == (["I", "VII"], ["KNN", "DT"])


@pytest.mark.parametrize("models,code", [(None, 0), ("KNN_opt", 1)], ids=["some-cells-fail", "every-cell-fails"])
def test_failing_cells_give_the_same_run_for_any_worker_count(tmp_path, capsys, models, code):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FAILED_AND_TUNED.canonical_dict()))
    runs = [_run_files(capsys, tmp_path / f"w{workers}", "--config", str(config), "--save-models",
                       "--workers", str(workers), *(["--models", models] if models else []))
            for workers in (1, 2, 3)]
    assert runs[0][0] == code
    failed = [line.split(":")[1].strip() for line in runs[0][2].splitlines() if line.startswith("cell failed:")]
    assert failed == ["KNN_opt × I", "KNN_opt × VII"]
    assert _error_lines(runs[0][2]) == ([] if code == 0 else ["error: all 2 cells failed"])
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("groups, flags", [("VII", []), ("VII", ["--keep-fraction", "0.5"]),
                                           ("VII", ["--per-cell-split"]), ("I,IV,VII", [])],
                         ids=["shared-partition", "own-columns", "own-split", "group-jobs"])
def test_shared_neighbor_tables_give_the_same_run_for_any_worker_count(tmp_path, capsys, groups, flags):
    # With two workers a one-group run makes each cell a job in a worker
    # process, with its own tables; a three-group run makes each group a
    # job, whose k-NN cells share one table store in their process.
    runs = [_run_files(capsys, tmp_path / f"w{workers}", "--n", "300", "--groups", groups, "--models",
                       "KNN_opt,KNN_RO,KNN_SMOTE", "--save-models", "--workers", str(workers), *flags)
            for workers in (1, 2)]
    assert runs[0][0] == 0
    assert sum(name.startswith("models") for name in runs[0][3]) == 3 * len(groups.split(","))
    assert runs[1] == runs[0]
