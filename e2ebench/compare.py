#!/usr/bin/env python3
"""Compares saved benchmark outputs of two commits.

    python3 e2ebench/compare.py --base base_*.txt --new new_*.txt

Each file is the standard output of one `e2ebench/run.py` run. Per side and
metric it prints the median and quartiles over the files, and flags a metric
whose new median is worse than the base median by more than its
BENCHMARK.json bound. Runs whose machine fingerprints (everything but the
source id) differ are reported side by side and not compared. Exits 1 when a
metric regressed beyond its bound, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """(fingerprint without the source id, result) of one saved run."""
    fingerprint = None
    with open(path) as f:
        lines = f.read().rstrip("\n").split("\n")
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
            fingerprint.pop("source", None)
    return fingerprint, json.loads(lines[-1])


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    sides = {"base": [load(p) for p in args.base],
             "new": [load(p) for p in args.new]}
    fingerprints = {json.dumps(fp, sort_keys=True)
                    for runs in sides.values() for fp, _ in runs}
    if len(fingerprints) > 1:
        print("machine fingerprints differ; reported, not compared:")
        for fp in sorted(fingerprints):
            print("  " + fp)

    regressed = False
    print("%-36s %-8s %26s %26s  %s" % ("metric", "unit", "base median [q1, q3]",
                                        "new median [q1, q3]", "verdict"))
    names = sides["base"][0][1]["metrics"]
    for name in names:
        unit = names[name]["unit"]
        cols = []
        medians = {}
        for side in ("base", "new"):
            values = [r["metrics"][name]["value"] for _, r in sides[side]
                      if name in r["metrics"]]
            med, q1, q3 = summary(values)
            medians[side] = med
            cols.append("%.5g [%.5g, %.5g]" % (med, q1, q3))
        verdict = ""
        m = specs.get(name)
        if len(fingerprints) == 1 and m is not None and "bound" in m:
            base, new = medians["base"], medians["new"]
            change = (new - base) / abs(base) if base else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "%+.1f%%" % (100 * change)
            if worse > m["bound"]:
                verdict += " REGRESSED (bound %g)" % m["bound"]
                regressed = True
        print("%-36s %-8s %26s %26s  %s" % (name, unit, cols[0], cols[1],
                                            verdict))
    for side, runs in sides.items():
        bad = [r for _, r in runs if not r["correct"] or r["failed"]]
        if bad:
            print("%s: %d run(s) reported failures" % (side, len(bad)))
            regressed = True
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
