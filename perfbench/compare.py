#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py FIRST.jsonl [SECOND.jsonl]

Each file holds the result lines `sweep.py` collects.  For every workload
and metric it prints each set's median and quartiles (Python's
`statistics.quantiles(values, n=4)`) and the spread, the distance between
the quartiles as a share of the median.  With two sets it also says whether
the second median is within the metric's end-to-end bound of the first, in
the metric's worse direction, and whether the share of failed operations is
the same.  It exits non-zero if a spread (other than `setup_s`'s) exceeds its
bound, a second median is worse than its bound allows, or the failed shares
differ.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    """{workload: {"runs": [...], metric: [values]}}"""
    sets = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        res = rec["result"]
        w = sets[rec["workload"]]
        w["__failed_share"].append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            w[name].append(m["value"])
    return sets


def stats(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main() -> int:
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    first = load(sys.argv[1])
    second = load(sys.argv[2]) if len(sys.argv) == 3 else None
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in first:
            continue
        runs = len(first[w]["__failed_share"])
        extra = f", {len(second[w]['__failed_share'])} runs in the second set" if second and w in second else ""
        print(f"\n== {w} ({runs} runs{extra})")
        print(f"{'metric':32} {'unit':10} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  second set")
        for name, m in metrics.items():
            vals = first[w].get(name)
            if not vals:
                continue
            q1, med, q3 = stats(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag, ok = " SPREAD>BOUND", False
            line = (f"{name:32} {m['unit']:10} {q1:12.5g} {med:12.5g} {q3:12.5g} {spread:8.3f} "
                    f"{bound if bound is not None else '':>6}")
            if second and w in second and second[w].get(name):
                s_q1, s_med, s_q3 = stats(second[w][name])
                s_spread = (s_q3 - s_q1) / s_med if s_med else 0.0
                line += f"  median {s_med:.5g} [{s_q1:.5g}, {s_q3:.5g}] spread {s_spread:.3f}"
                if bound is not None:
                    worse = (s_med - med) / med if m["better"] == "lower" else (med - s_med) / med
                    within = worse <= bound
                    line += f" worse by {worse:+.3f}: {'within' if within else 'OUTSIDE'} bound"
                    ok &= within
                    if name != "setup_s" and s_spread > bound:
                        line += " SPREAD>BOUND"
                        ok = False
            print(line + flag)
        shares = sorted(set(first[w]["__failed_share"]))
        line = f"failed share: {shares}"
        if second and w in second:
            s_shares = sorted(set(second[w]["__failed_share"]))
            same = shares == s_shares
            line += f" vs {s_shares}: {'same' if same else 'DIFFERENT'}"
            ok &= same
        print(line)
    print("\nverdict:", "all within bounds" if ok else "OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
