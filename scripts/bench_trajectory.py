#!/usr/bin/env python3
"""Chain the committed perfbench campaigns into one trajectory.

Every BENCH_pr<N>.json at the repository root records one campaign:
the end-to-end medians of the parent commit and of the change, run in
alternating pairs on one machine, back to back. Absolute numbers
drift between campaigns, so campaigns are compared only through their
within-campaign ratios.

For each workload and each end-to-end metric of BENCHMARK.json this
prints the change/parent median ratio of every campaign and their
product since the first one (a ratio above 1 means a larger value;
whether that is better depends on the metric's direction).

It then flags host drift: a campaign whose parent median differs from
the previous campaign's change median by more than that metric's
bound, although both measured the same code when the campaigns are
consecutive.

Usage: scripts/bench_trajectory.py [root-dir]
"""

import glob
import json
import os
import re
import sys


def load_campaigns(root):
    campaigns = []
    for path in glob.glob(os.path.join(root, "BENCH_pr*.json")):
        match = re.fullmatch(r"BENCH_pr(\d+)\.json", os.path.basename(path))
        if match is None:
            continue
        with open(path) as f:
            campaigns.append((int(match.group(1)), json.load(f)))
    campaigns.sort(key=lambda c: c[0])
    return campaigns


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        contract = json.load(f)
    metrics = [(m["name"], m["bound"]) for m in contract["end_to_end"]]
    workloads = [w["name"] for w in contract["workloads"]]
    campaigns = load_campaigns(root)
    if not campaigns:
        print("no BENCH_pr*.json files found", file=sys.stderr)
        return 1

    prs = [pr for pr, _ in campaigns]
    width = max(len(name) for name, _ in metrics)
    for workload in workloads:
        print(f"## {workload}: change/parent median ratio per campaign")
        print(f"{'metric':<{width}} "
              + " ".join(f"{'pr' + str(pr):>7}" for pr in prs)
              + f" {'chained':>8}")
        for name, _ in metrics:
            chained = 1.0
            cells = []
            for _, bench in campaigns:
                parent = bench["medians"]["parent"][workload][name]
                change = bench["medians"]["change"][workload][name]
                ratio = change / parent if parent else 1.0
                chained *= ratio
                cells.append(f"{ratio:7.3f}")
            print(f"{name:<{width}} " + " ".join(cells)
                  + f" {chained:8.3f}")
        print()

    print("## host drift: parent median vs the previous campaign's "
          "change median")
    flagged = 0
    for (prev_pr, prev), (pr, bench) in zip(campaigns, campaigns[1:]):
        for workload in workloads:
            for name, bound in metrics:
                before = prev["medians"]["change"][workload][name]
                now = bench["medians"]["parent"][workload][name]
                if not before:
                    continue
                ratio = now / before
                if abs(ratio - 1.0) > bound:
                    flagged += 1
                    print(f"pr{pr} {workload} {name}: parent "
                          f"{now:.4g} vs pr{prev_pr} change "
                          f"{before:.4g} (x{ratio:.2f}, bound "
                          f"{bound})")
    if flagged == 0:
        print("none beyond the bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
