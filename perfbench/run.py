"""Run one spineml benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_matrix --seed 42 --seconds 30 --trace 0

`--workload all` runs every workload in its own fresh process, one after
another, and merges their results on the last line (metric names prefixed
by the workload).

Run from anywhere inside a checkout; the benchmark works from the checkout
root and writes only under `.perfbench_work/`. Human-readable lines come
first (environment, every metric by name and unit, sample counts); the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer metrics of a separate traced run.
The exit code is 0 when the run completed, whether or not it was correct,
and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The benchmark's own tests run every workload at a tiny size.
    p.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be ≥ 0 and --seconds ≥ 1")
    return args


def run_all(args, names) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()  # load average before any work starts
    if not (SRC / "spineml" / "__init__.py").is_file():
        print(f"error: spineml sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    if args.trace:
        outcome = workloads.measure_traced(args.workload, args.seed, args.size)
    else:
        outcome = workloads.measure(args.workload, args.seed, args.seconds, args.size)
    failed = len(outcome.tally.notes)

    for key, value in env.items():
        print(f"# {key}: {value}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{time.perf_counter() - started:.1f} s")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    for name, value in outcome.samples.items():
        print(f"# {name}: {value}")
    for note in outcome.tally.notes[:20]:
        print(f"# failed: {note}")

    details = {
        "environment": env,
        "args": vars(args),
        "samples": outcome.samples,
        "failures": outcome.tally.notes,
    }
    out = ROOT / ".perfbench_work" / args.size / args.workload / f"details_trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=2, default=str) + "\n", encoding="utf-8")

    finite = all(math.isfinite(v) for v, _u in outcome.metrics.values())
    print(json.dumps({
        "correct": failed == 0 and finite,
        "attempted": outcome.tally.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
