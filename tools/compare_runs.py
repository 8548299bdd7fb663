"""Run one `spineml run` sweep and a `spineml generate` sweep in two
checkouts and compare every output.

Usage: python tools/compare_runs.py PARENT_DIR CHANGE_DIR

Each run of `SWEEP` is `spineml run --save-models` with the listed flags,
made once in each checkout by a child interpreter with
PYTHONPATH=<checkout>/src and PYTHONDONTWRITEBYTECODE=1, into a fresh
temporary output directory. The `--config` run reads README's example
`grids` from a temporary file. Every output file must be equal byte for
byte, with results.json's `provenance.timestamp` set to null on both sides;
stdout and stderr must be equal with the output directory masked, and so
must the exit code. After each run one more child per checkout loads every
saved model file in sorted order and prints, one JSON line per file,
`predict_single(load_model(path), RECORD, trace=True)` or the error line,
RECORD holding every predictor column of the default schema at the midpoint
of its range; its stdout, stderr and exit code are compared as the run's.
Each run of `GENERATE` is `spineml generate` with the listed flags, writing
<out>/data.csv; the CSV bytes, stdout, stderr and exit code are compared.
Each difference is printed; the exit code is 1 if there is any, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# README's example `grids`.
README_GRIDS = {"KNN": {"k": [3, 5, 7]}, "DT": {"max_depth": [2, 4, None]}}

# (name, flags); "{config}" stands for the path of a config holding README_GRIDS.
SWEEP = (
    ("seed 42", ["--seed", "42"]),
    ("seed 7", ["--seed", "7"]),
    ("seed 3", ["--seed", "3"]),
    ("keep fraction 0.5", ["--keep-fraction", "0.5"]),
    ("keep fraction 0.5, per-cell split", ["--keep-fraction", "0.5", "--per-cell-split"]),
    ("n 1000, group VII, k-NN models", ["--n", "1000", "--groups", "VII", "--models", "KNN,KNN_opt,KNN_RO,KNN_SMOTE"]),
    ("2 workers", ["--workers", "2"]),
    ("README grids", ["--config", "{config}"]),
    # On the default data (117/127 rows) the split moves one class's test
    # rows by -1 and by +1 at these fractions.
    ("test fraction 0.1", ["--test-fraction", "0.1"]),
    ("test fraction 0.2, per-cell split", ["--test-fraction", "0.2", "--per-cell-split"]),
)

# (name, flags) of `spineml generate`: the sweep's seeds at n 244 and 1 000.
GENERATE = tuple((f"generate seed {seed}, n {n}", ["--seed", str(seed), "--n", str(n)])
                 for n in (244, 1000) for seed in (42, 7, 3))

MAIN = "import sys; from spineml.cli import main; sys.exit(main())"


# The child that predicts RECORD with each model file named on its command line.
PREDICT = """
import json, sys
from spineml.errors import PipelineError
from spineml.persist import load_model, predict_single
from spineml.schema import default_schema
RECORD = {c.name: sum(c.valid_range) / 2 for c in default_schema().feature_columns}
for path in sys.argv[1:]:
    try:
        print(json.dumps(predict_single(load_model(path), RECORD, trace=True)))
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}")
"""


def child(checkout: Path, argv: list, out: Path) -> tuple:
    """(exit code, stdout, stderr) of `python argv` with `checkout`'s
    spineml, the streams naming `out` as <out>."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=out.parent)
    return done.returncode, done.stdout.replace(str(out), "<out>"), done.stderr.replace(str(out), "<out>")


def run(checkout: Path, flags: list, out: Path) -> tuple:
    """`spineml run --save-models` in `checkout`, writing to `out`."""
    return child(checkout, ["-c", MAIN, "run", *flags, "--save-models", "--out", str(out)], out)


def generate(checkout: Path, flags: list, out: Path) -> tuple:
    """`spineml generate` in `checkout`, writing `out`/data.csv."""
    out.mkdir()
    return child(checkout, ["-c", MAIN, "generate", *flags, "--out", str(out / "data.csv")], out)


def predict(checkout: Path, out: Path) -> tuple:
    """PREDICT in `checkout` over the model files saved in `out`."""
    return child(checkout, ["-c", PREDICT, *map(str, sorted((out / "models").glob("*.json")))], out)


def contents(path: Path) -> bytes:
    """A file's bytes; results.json's with its timestamp set to null."""
    data = path.read_bytes()
    if path.name == "results.json":
        stamp = json.loads(data)["provenance"]["timestamp"]
        data = data.replace(json.dumps(stamp).encode(), b"null", 1)
    return data


def differences(out_parent: Path, out_change: Path, outcomes: dict) -> list:
    """What differs between the two sides of one command's output directory
    and of `outcomes`, each prefix's two (exit code, stdout, stderr)."""
    found = []
    for prefix, sides in outcomes.items():
        found += [f"{prefix}{what} differs:\n  parent: {a!r}\n  change: {b!r}"
                  for what, a, b in zip(("exit code", "stdout", "stderr"), *sides) if a != b]
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (out_parent, out_change)]
    for name in sorted(files[0] ^ files[1]):
        found.append(f"{name}: only in {'parent' if name in files[0] else 'change'}")
    for name in sorted(files[0] & files[1]):
        if contents(out_parent / name) != contents(out_change / name):
            found.append(f"{name}: contents differ")
    return found


def show(name: str, found: list, detail: str) -> bool:
    """Print one command's verdict and differences; whether there are any."""
    print(f"{name}: {'DIFFERENT' if found else 'same'} ({detail})")
    for line in found:
        print("  " + line.replace("\n", "\n    "))
    return bool(found)


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_runs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    checkouts = tuple(Path(a).resolve() for a in argv)
    any_difference = False
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "grids.json"
        config.write_text(json.dumps({"grids": README_GRIDS}), encoding="utf-8")
        for i, (name, flags) in enumerate(SWEEP + GENERATE):
            flags = [f.replace("{config}", str(config)) for f in flags]
            outs = [Path(tmp) / side / str(i) / "out" for side in ("parent", "change")]
            for out in outs:
                out.parent.mkdir(parents=True)
            if i >= len(SWEEP):
                outcome = [generate(checkout, flags, out) for checkout, out in zip(checkouts, outs)]
                any_difference |= show(name, differences(*outs, {"": outcome}), f"exit {outcome[1][0]}")
                continue
            outcome = [run(checkout, flags, out) for checkout, out in zip(checkouts, outs)]
            predicted = [predict(checkout, out) for checkout, out in zip(checkouts, outs)]
            found = differences(*outs, {"": outcome, "predict ": predicted})
            n_files = sum(1 for p in outs[1].rglob("*") if p.is_file())
            n_lines = len(predicted[1][1].splitlines())
            any_difference |= show(name, found, f"exit {outcome[1][0]}, {n_files} files, {n_lines} predictions")
    return 1 if any_difference else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
