#!/usr/bin/env python3
"""Runs the benchmark over several seeds and collects the result lines.

    python3 perfbench/sweep.py --out runs.jsonl [--runs 10] [--seed-base 1]
                               [--seconds 10] [--trace 0] [--workloads a,b]

Run from the repository root.  Each run is one `perfbench/run.py` process;
run i of every workload uses seed `seed-base + i`.  Each result is appended
to `--out` as one JSON line {"workload", "seed", "result"} as soon as it
finishes, so an interrupted sweep keeps what it measured.  Feed two such
files to `compare.py`.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--workloads", default=",".join(names))
    a = ap.parse_args()

    failed = 0
    for workload in a.workloads.split(","):
        if workload not in names:
            sys.exit(f"sweep.py: unknown workload {workload}; known: {', '.join(names)}")
        for i in range(a.runs):
            seed = a.seed_base + i
            t0 = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(a.seconds), "--trace", a.trace],
                stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            wall = time.monotonic() - t0
            if done.returncode != 0 or not lines:
                failed += 1
                print(f"{workload} seed {seed}: exit {done.returncode} after {wall:.0f} s", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            with a.out.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
            print(f"{workload} seed {seed}: {wall:.0f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
