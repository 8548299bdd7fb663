"""Record the output fingerprints that gate the paper_matrix workload.

    python3 perfbench/record_fingerprints.py 0-20 42

Runs the paper_matrix `spineml run` once per seed and writes the sha256 of
each output file to perfbench/fingerprints.json. Re-record only for a
change that is meant to move output bytes, and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(args) -> list:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    seeds = parse_seeds(sys.argv[1:] if argv is None else argv)
    if not seeds:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, workloads

    name = "paper_matrix"
    w = workloads.WORKLOADS[name]
    table = json.loads(checks.FINGERPRINTS.read_text(encoding="utf-8"))
    for seed in seeds:
        prep = workloads.set_up(w, seed, "full", name)
        tally = workloads.Tally()
        workloads.run_matrix(w, seed, prep, None, tally)
        if tally.notes:
            print(f"seed {seed}: not recorded: {tally.notes[0]}", file=sys.stderr)
            return 1
        out = Path(prep.csv).parent / "out"
        table.setdefault(name, {})[str(seed)] = checks.fingerprint(out)
        print(f"seed {seed}: recorded")
    table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    checks.FINGERPRINTS.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
