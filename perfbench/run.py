#!/usr/bin/env python3
"""Builds and runs the benchmark: one workload, one process, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The benchmark is built from source with cargo,
twice: plain for the measured runs and with the `stats` feature for the traced
run, each in its own directory under $CARGO_TARGET_DIR (default
`.bench_build`).  With `--trace 1` the plain build runs first, with the same
seed and length, so the traced run can price its own overhead against it; the
traced run's span log is written beside the builds.  The last line printed is
the result of the run asked for.  The exit code is non-zero if a build fails,
a run fails an answer check, or a run does not finish within its time limit.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["read-mostly", "write-heavy", "hot-range-map"]
# A run must end within 180 s; a traced run is two processes.
RUN_LIMIT_S = 170


def build(target: Path, features: list) -> Path:
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml"), "--target-dir", str(target)] + features
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    return target / "release" / "perfbench"


def run(binary: Path, args: list, timeout: float) -> tuple:
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    with subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            sys.exit(f"run.py: {binary.name} {' '.join(args)} did not finish in {timeout:.0f} s")
    return proc.returncode, out.splitlines()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    a = ap.parse_args()

    builds = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    plain = build(builds / "perfbench-plain", [])
    traced = build(builds / "perfbench-traced", ["--features", "stats"])
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]

    code, lines = run(plain, args + ["--trace", "0"], RUN_LIMIT_S if a.trace == "0" else RUN_LIMIT_S / 2)
    if a.trace == "1":
        for line in lines:
            print(f"untraced: {line}", file=sys.stderr)
        if code != 0:
            return code
        mops = json.loads(lines[-1])["metrics"]["throughput_mops"]["value"]
        spans = builds / "perfbench-spans" / f"{a.workload}.tsv"
        code, lines = run(traced, args + ["--trace", "1", "--baseline-mops", repr(mops),
                                          "--trace-out", str(spans)], RUN_LIMIT_S / 2)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
