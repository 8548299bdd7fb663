"""The three spineml benchmark workloads and the phases every run goes through.

A run of one workload has four phases, all on inputs made from the seed:

1. set-up: generate the synthetic patients, write them as CSV, fit the
   group-VII cells that `predict_single` will serve, save and load them,
   and derive each test record's batch prediction for the parity check.
   Its median over all repetitions is `setup_s`.
2. matrix: `spineml run` through `cli.main`, in process with its output
   captured. Its outputs pass the gates in `checks.py`.
3. predict: a closed loop with one client sends each test record in turn
   through `persist.predict_single` on every loaded model; every label
   must equal the fitted cell's batch prediction for the same row.
4. cold: `spineml predict` subprocesses, one at a time.

The phases are interleaved in slices (see `measure`), and the host's
speed is measured while they run, with the benchmark's own calibration
code (see `Speed`, `_micro_unit` and `NULL_START`). An
operation is a cell or a prediction; a failed cell, a gate or parity
mismatch, or a failed cold start counts as one failed operation.
"""

from __future__ import annotations

import array
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from spineml import (
    cli,
    dataset,
    experiment,
    metrics,
    model_selection,
    persist,
    preprocess,
    schema,
    synthetic,
)

from . import checks
from .tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SIGNAL = 0.5
N_FOLDS = 8  # the CLI default, which every workload keeps
PREDICT_GROUP = "VII"
TRACED_PREDICT_ROUNDS = 500


@dataclass(frozen=True)
class Workload:
    n: int
    groups: tuple[str, ...]
    models: tuple[str, ...]
    served: tuple[str, ...]  # group-VII cells fitted in set-up for predict_single
    keep_fraction: float = 1.0
    matrix_runs: int = 1
    setup_reps: int = 1  # per slice
    predict_share: float = 0.25  # of --seconds, for the closed predict loop
    cold_starts: int = 16
    min_predict_rounds: int = 1000


WORKLOADS = {
    "paper_matrix": Workload(
        244, schema.GROUP_IDS, experiment.MODEL_IDS,
        ("GaussianNB", "ComplementNB", "KNN", "DT"), setup_reps=8,
    ),
    "knn_large": Workload(
        1000, ("VII",), ("KNN", "KNN_opt", "KNN_RO", "KNN_SMOTE"), ("KNN",), setup_reps=4,
    ),
    "tree_select": Workload(
        244, ("VII",), ("GaussianNB", "ComplementNB", "DT", "DT_opt"),
        ("GaussianNB", "ComplementNB", "DT", "DT_opt"), keep_fraction=0.5,
        matrix_runs=3, predict_share=0.15,
    ),
}

# Sizes small enough for the benchmark's own tests.
TINY = {
    name: replace(w, n=80, groups=("VII",), matrix_runs=1, setup_reps=1, cold_starts=1,
                  min_predict_rounds=20)
    for name, w in WORKLOADS.items()
}

# A fixed mix of interpreter and small-array numpy work, like the program's.
_CAL_POINTS = np.random.default_rng(20250318).random((500, 24))
CAL_NOMINAL_S = 0.0025  # its time at the reference speed
CAL_PERIOD_S = 0.2
P99_BLOCK = 1000  # rounds per block of the blocked p99


def _calibration_unit() -> int:
    counts: dict = {}
    for i in range(7500):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + 1
    acc = len(counts)
    for i in range(0, 500, 32):
        diff = _CAL_POINTS - _CAL_POINTS[i]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        acc += int(np.argsort(dist, kind="stable")[1])
    return acc


# Timed after every predict round: the host's speed changes within tens of
# milliseconds (a round's latency was seen to halve from one pass over the
# records to the next), faster than the interval timer samples it.
_MICRO_POINTS = _CAL_POINTS[:64, 0].copy()
MICRO_NOMINAL_S = 25e-6
# A cold start without spineml: the interpreter and numpy starting up.
NULL_START = ("-c", "import json, numpy")
NULL_NOMINAL_S = 0.2


def _micro_unit() -> int:
    counts: dict = {}
    for i in range(150):
        key = (i * 7919) & 255
        counts[key] = counts.get(key, 0) + 1
    return int(np.argsort(_MICRO_POINTS * len(counts), kind="stable")[0])


class Speed:
    """The host's CPU speed during one run, from a calibration unit that an
    interval timer runs every CAL_PERIOD_S while the program runs in process.

    On a shared host the CPU speed drifts by a quarter and more over
    minutes, and the program's times follow it. A reported time is its wall
    time, less the calibration time inside it, × `factor(phase)`: the time
    it would have taken with the calibration unit at its nominal
    CAL_NOMINAL_S. The unit is the benchmark's own code, so a change to
    spineml does not move it.
    """

    def __init__(self):
        self.samples: list = []  # (phase, seconds)
        self.spent = 0.0  # seconds spent in calibration so far
        self.phase = "setup"

    def sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        _calibration_unit()
        took = time.perf_counter() - start
        self.samples.append((self.phase, took))
        self.spent += took

    def clock(self) -> float:
        """Wall clock less the calibration time so far."""
        return time.perf_counter() - self.spent

    @contextmanager
    def running(self, phase: str):
        """Sample on the timer while the block runs, and once after it,
        tagged with `phase`."""
        self.phase = phase
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def factor(self, phase: str, first: int = 0) -> float:
        """From the mean calibration time of the samples of `phase` from
        sample `first` on: the mean, not the median, so that a slow stretch
        weighs as much as it slowed the program."""
        times = [t for ph, t in self.samples[first:] if ph == phase]
        return CAL_NOMINAL_S / statistics.fmean(times)


@dataclass
class Tally:
    attempted: int = 0
    notes: list = field(default_factory=list)  # one per failed operation

    def add(self, attempted: int, notes) -> None:
        self.attempted += attempted
        self.notes.extend(notes)


@dataclass
class Prepared:
    csv: str  # relative to ROOT, so results.json is the same in every checkout
    served: list  # (loaded model, model file, batch label name of each record)
    records: list  # test-partition records, as `predict` takes them
    cells: int
    notes: list


def data_seed(seed: int, k: int) -> int:
    """The seed of slice k's inputs: slice 0 takes the run's seed, so that the
    recorded fingerprints apply to its matrix run; later slices take their
    own, so that a run's metrics average over more than one data set."""
    return seed + 1_000_003 * k


def _work_dir(size: str, name: str) -> Path:
    return Path(".perfbench_work") / size / name


def _batch_labels(data, split, fit, cell) -> np.ndarray | None:
    """The in-memory fitted cell's batch predictions on its test rows, or None
    when they do not reproduce the cell's reported confusion matrix."""
    group = schema.builtin_groups()[fit.group_id]
    test = dataset.select_group(data, group).take(split.test_idx)
    codes = {k: np.asarray(v, dtype=float) for k, v in fit.ordinal_codes.items()}
    test = preprocess.apply_ordinal_encoder(test, preprocess.OrdinalEncoderState(codes))
    scaler = preprocess.ScalerState(
        tuple(fit.scaler_columns), fit.scaler_mean, fit.scaler_std,
        fit.scaler_min, fit.scaler_max, fit.scaler_constant,
    )
    if fit.scaling_mode == "minmax":
        test = preprocess.apply_minmax(test, scaler)
    else:
        test = preprocess.apply_standardizer(test, scaler)
    preds = experiment._predict_final(fit.family, fit.classifier, test.rows[:, fit.kept])
    if metrics.confusion(test.labels, preds) != cell.confusion:
        return None
    return preds


def set_up(w: Workload, seed: int, size: str, name: str) -> Prepared:
    work = _work_dir(size, name)
    models_dir = work / "models"
    shutil.rmtree(work, ignore_errors=True)
    models_dir.mkdir(parents=True)
    csv = str(work / "data.csv")
    dataset.write_csv(synthetic.generate_synthetic(w.n, seed, SIGNAL), csv)
    data, _report = dataset.load_csv(csv)

    config = experiment.ExperimentConfig(
        csv_path=csv, groups=(PREDICT_GROUP,), models=w.served, seed=seed
    )
    matrix, fitted = experiment.run_matrix_fitted(config)
    split = model_selection.stratified_shuffle_split(data.labels, config.test_fraction, seed)
    records = [
        {col: float(v) for col, v in zip(data.feature_names, data.rows[i])}
        for i in split.test_idx
    ]
    served, notes = [], []
    for m in matrix.models:
        cell, fit = matrix.cells[(PREDICT_GROUP, m)], fitted.get((PREDICT_GROUP, m))
        expected = None if fit is None else _batch_labels(data, split, fit, cell)
        if expected is None:
            notes.append(f"set-up cell {PREDICT_GROUP}/{m}: {cell.error or 'batch parity'}")
            continue
        path = models_dir / f"{m}__{PREDICT_GROUP}.json"
        persist.save_model(cell, fit, path)
        labels = [schema.LABEL_NAMES[int(v)] for v in expected]
        served.append((persist.load_model(path), str(path), labels))
    return Prepared(csv, served, records, len(matrix.models), notes)


def matrix_argv(w: Workload, seed: int, csv: str, out: str) -> list:
    argv = ["run", "--csv", csv, "--seed", str(seed), "--workers", "1", "--out", out]
    if w.groups != schema.GROUP_IDS:
        argv += ["--groups", ",".join(w.groups)]
    if w.models != experiment.MODEL_IDS:
        argv += ["--models", ",".join(w.models)]
    if w.keep_fraction != 1.0:
        argv += ["--keep-fraction", str(w.keep_fraction)]
    return argv


def run_matrix(w: Workload, seed: int, prep: Prepared, expected: dict | None, tally: Tally) -> float:
    """One `spineml run`; returns its wall time and tallies its cells."""
    out = Path(prep.csv).parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = matrix_argv(w, seed, prep.csv, str(out))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    n_cells, notes = checks.failed_cells(out, w.groups, w.models, N_FOLDS, expected)
    if code != 0:
        notes = [f"spineml run exited {code}: {err.getvalue().strip()}"] * n_cells
    tally.add(n_cells, notes[:n_cells])
    return elapsed


def predict_loop(prep: Prepared, seconds: float, min_rounds: int, first: int,
                 latencies: array.array, tally: Tally, micro: array.array | None = None) -> float:
    """Closed loop, one client. A round sends one record, from record `first`
    on, through every served model; its time divided by the number of models
    is one latency sample. With `micro`, a micro calibration unit runs after
    each round (and once before the first) and `micro` gets its times.
    Returns the loop's time without those units."""
    mismatches, rounds, spent = [], 0, 0.0
    n = len(prep.records)
    predict = persist.predict_single
    clock = time.perf_counter
    if micro is not None:
        start = clock()
        _micro_unit()
        micro.append(clock() - start)
    begin = clock()
    while True:
        r = (first + rounds) % n
        record = prep.records[r]
        start = clock()
        labels = [predict(pm, record)["label"] for pm, _path, _expected in prep.served]
        end = clock()
        latencies.append((end - start) / len(prep.served))
        if micro is not None:
            _micro_unit()
            micro.append(clock() - end)
            spent += micro[-1]
        for (pm, _path, expected), label in zip(prep.served, labels):
            if label != expected[r]:
                mismatches.append(f"predict_single {pm.model_id}: {label} != batch {expected[r]}")
        rounds += 1
        if end - begin - spent >= seconds and rounds >= min_rounds:
            break
    tally.add(rounds * len(prep.served), mismatches)
    return clock() - begin - spent


def scaled_latencies(latencies, micro, pieces) -> np.ndarray:
    """Each latency × MICRO_NOMINAL_S / the mean of the micro units just
    before and after its round; `pieces` lists the rounds of each loop,
    whose `micro` holds one unit more than rounds."""
    out, at, m = [], 0, np.asarray(micro)
    lat = np.asarray(latencies)
    for k, rounds in enumerate(pieces):
        around = m[at + k: at + k + rounds + 1]
        out.append(lat[at: at + rounds] * (2 * MICRO_NOMINAL_S / (around[:-1] + around[1:])))
        at += rounds
    return np.concatenate(out)


def cold_starts(prep: Prepared, picks, times: list, null_times: list, tally: Tally) -> None:
    """`python -m spineml.cli predict` one at a time; start j classifies a
    record picked by j with served model j mod the number served. Each is
    preceded by a null start (NULL_START). Appends both wall times."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stride = max(1, len(prep.records) // 16)
    notes = []
    for j in picks:
        pm, path, labels = prep.served[j % len(prep.served)]
        r = (j * stride) % len(prep.records)
        argv = [sys.executable, "-m", "spineml.cli", "predict", "--model", path,
                "--record", json.dumps(prep.records[r])]
        start = time.perf_counter()
        subprocess.run([sys.executable, *NULL_START], capture_output=True, timeout=120, check=True)
        null_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        times.append(time.perf_counter() - start)
        try:
            label = json.loads(proc.stdout)["label"] if proc.returncode == 0 else None
        except (ValueError, KeyError, TypeError):
            label = None
        if label != labels[r]:
            notes.append(f"cold predict {pm.model_id}: exit {proc.returncode}, {label} != {labels[r]}")
    tally.add(len(picks), notes)


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values), q))


def _blocked_p99(latencies) -> float:
    """Median over blocks of P99_BLOCK consecutive samples of each block's
    p99, so that host load during a few blocks does not decide the tail."""
    values = np.asarray(latencies)
    blocks = max(1, len(values) // P99_BLOCK)
    return float(np.median([np.percentile(b, 99) for b in np.array_split(values, blocks)]))


@dataclass
class Outcome:
    tally: Tally
    metrics: dict  # name -> (value, unit)
    samples: dict  # name -> sample count or raw samples, for the details file


def measure(name: str, seed: int, seconds: int, size: str = "full") -> Outcome:
    """The untraced run: every end-to-end metric.

    The run is cut into slices, one more than the matrix runs. Each slice
    repeats the set-up and runs its part of the predict loop and of the
    cold starts; a matrix run follows every slice but the last. Every metric
    thus samples the whole run rather than one stretch of it, and each is
    scaled by the speed measured while it ran (see `Speed`).
    """
    w = (WORKLOADS if size == "full" else TINY)[name]
    expected = checks.recorded_fingerprint(name, seed) if size == "full" else None
    slices = w.matrix_runs + 1
    tally, speed = Tally(), Speed()
    setup_times, run_times, wall_runs, cold, null_starts = [], [], [], [], []
    latencies, micro, pieces = array.array("d"), array.array("d"), []
    for k in range(slices):
        with speed.running("setup"):
            for _ in range(w.setup_reps):
                start = speed.clock()
                prep = set_up(w, data_seed(seed, k), size, name)
                setup_times.append(speed.clock() - start)
                tally.add(prep.cells, prep.notes)
        if prep.served:
            before = len(latencies)
            predict_loop(
                prep, w.predict_share * seconds / slices,
                math.ceil(w.min_predict_rounds / slices), before, latencies, tally, micro,
            )
            pieces.append(len(latencies) - before)
            picks = range(k * w.cold_starts // slices, (k + 1) * w.cold_starts // slices)
            cold_starts(prep, picks, cold, null_starts, tally)
        if k < w.matrix_runs:
            first = len(speed.samples)
            with speed.running("matrix"):
                start = speed.clock()
                run_matrix(w, data_seed(seed, k), prep, expected if k == 0 else None, tally)
                wall_runs.append(speed.clock() - start)
            run_times.append(wall_runs[-1] * speed.factor("matrix", first))

    nan = float("nan")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(tally.notes)
    f_setup = speed.factor("setup")
    f_cold = NULL_NOMINAL_S / statistics.median(null_starts) if cold else nan
    scaled = scaled_latencies(latencies, micro, pieces) if latencies else None
    values = {
        "setup_s": (statistics.median(setup_times) * f_setup, "s"),
        "run_s": (statistics.median(run_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_fraction": (1.0 - failed / tally.attempted, "fraction"),
        "predict_p50_us": (_percentile(scaled, 50) * 1e6 if latencies else nan, "us"),
        "predict_p99_us": (_blocked_p99(scaled) * 1e6 if latencies else nan, "us"),
        "predict_per_s": (1.0 / float(np.mean(scaled)) if latencies else nan, "1/s"),
        "predict_cold_s": (statistics.median(cold) * f_cold if cold else nan, "s"),
    }
    samples = {
        "speed_factor": {ph: speed.factor(ph) for ph in sorted({ph for ph, _t in speed.samples})},
        "calibration_samples": len(speed.samples),
        "wall_setup_s": setup_times,
        "wall_run_s": wall_runs,
        "predict_rounds": len(latencies),
        "wall_predict_p50_us": _percentile(latencies, 50) * 1e6 if latencies else nan,
        "wall_predict_p99_us": _percentile(latencies, 99) * 1e6 if latencies else nan,
        "wall_predict_cold_s": cold,
        "null_start_s": null_starts,
        "micro_median_us": float(np.median(micro)) * 1e6 if micro else nan,
        "failed_fraction": failed / tally.attempted,
    }
    return Outcome(tally, values, samples)


def measure_traced(name: str, seed: int, size: str = "full") -> Outcome:
    """The traced run: one untraced `spineml run` for the overhead baseline,
    then set-up, one run and a fixed number of predict rounds under the tracer."""
    w = (WORKLOADS if size == "full" else TINY)[name]
    expected = checks.recorded_fingerprint(name, seed) if size == "full" else None
    rounds = TRACED_PREDICT_ROUNDS if size == "full" else w.min_predict_rounds

    untraced = run_matrix(w, seed, set_up(w, seed, size, name), expected, Tally())
    tally = Tally()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("perfbench.setup"):
            prep = set_up(w, seed, size, name)
        tally.add(prep.cells, prep.notes)
        first = len(tracer.spans)
        traced = run_matrix(w, seed, prep, expected, tally)
        root = next(i for i in range(first, len(tracer.spans)) if tracer.spans[i][0] == "cli.main")
        if prep.served:
            predict_loop(prep, 0.0, rounds, 0, array.array("d"), tally)
    finally:
        tracer.uninstall()

    values = layer_metrics(tracer, root)
    self_sum = sum(v for k, (v, _u) in values.items() if k.endswith(".run_self_s"))
    values.update({
        "trace.run_s": (traced, "s"),
        "trace.untraced_run_s": (untraced, "s"),
        "trace.overhead_frac": ((traced - untraced) / untraced, "fraction"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.self_coverage": (self_sum / traced, "fraction"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return Outcome(tally, values, {"spans": len(tracer.spans)})
