#!/usr/bin/env python3
"""Compare saved benchmark outputs of a parent and a change.

Each argument after the flag is a file holding the stdout of one
`cargo run --release --offline --manifest-path perfbench/Cargo.toml -- ...`
run. The comparison is refused (exit 2) when the runs were made under
different settings -- workload, seconds, trace mode, nproc, rayon pool size
or build profile -- or when any run failed its correctness gate.

    python3 perfbench/compare.py --parent p1.txt p2.txt ... --change c1.txt c2.txt ...

For each metric it prints both sides' medians and quartiles, the change in
the median, and, for end-to-end metrics, whether that change stays within
the bound BENCHMARK.json fixes.
"""

import argparse
import json
import os
import statistics
import sys

# Settings that must agree between every compared run. The seed, commit and
# source digest are expected to differ.
SETTINGS = ("workload", "seconds", "trace", "nproc", "rayon_threads", "profile")


def load(path):
    settings, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("settings "):
                settings = json.loads(line[len("settings "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if settings is None or result is None:
        sys.exit(f"{path}: no settings line or result line")
    return settings, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", nargs="+", required=True, help="outputs of parent runs")
    ap.add_argument("--change", nargs="+", required=True, help="outputs of change runs")
    args = ap.parse_args()
    parent = [load(p) for p in args.parent]
    change = [load(p) for p in args.change]

    runs = parent + change
    reference = {k: runs[0][0].get(k) for k in SETTINGS}
    for settings, _ in runs:
        differ = {k: (reference[k], settings.get(k)) for k in SETTINGS if settings.get(k) != reference[k]}
        if differ:
            print(f"REFUSED: runs were made under different settings: {differ}")
            return 2
    failed = [r for _, r in runs if not r["correct"]]
    if failed:
        print(f"REFUSED: {len(failed)} run(s) failed the correctness gate")
        return 2

    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(bench) as f:
        e2e = {m["name"]: m for m in json.load(f)["end_to_end"]}

    print(f"settings {reference}; {len(parent)} parent run(s), {len(change)} change run(s)")
    for name in parent[0][1]["metrics"]:
        p = [r["metrics"][name]["value"] for _, r in parent]
        c = [r["metrics"][name]["value"] for _, r in change]
        pq, cq = quartiles(p), quartiles(c)
        delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
        line = f"{name:<34} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {delta:+.2%}"
        if name in e2e:
            m = e2e[name]
            worse = -delta if m["better"] == "higher" else delta
            line += "  within bound" if worse <= m["bound"] else f"  WORSE than bound {m['bound']:.0%}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
