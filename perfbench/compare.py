#!/usr/bin/env python3
"""Compare benchmark results of two builds, metric by metric.

Usage (from the repository root):

    python3 perfbench/compare.py --base old/*.json --new new/*.json

Each file is one result that perfbench/run.py saved under
.bench_work/results/.  Results are grouped by workload and trace mode.
For each metric the script prints the median of each side and the
change against the bound in BENCHMARK.json.  It refuses, with exit
code 2, to compare results whose build identities differ in anything
but "version", the build being compared.
"""

import argparse
import json
import os
import statistics
import sys

# Identity fields two results must share to be comparable.
GATED = ("build_type", "compiler", "flags", "simd", "nproc", "host",
         "machine")


def load(paths):
    runs = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        runs.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    return runs


def bounds():
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)

    identities = {json.dumps({k: doc["identity"].get(k) for k in GATED},
                             sort_keys=True)
                  for side in (base, new) for docs in side.values()
                  for doc in docs}
    if len(identities) > 1:
        print("compare: build identities differ; refusing to compare:",
              file=sys.stderr)
        for ident in sorted(identities):
            print("  " + ident, file=sys.stderr)
        return 2

    spec = bounds()
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key])} base runs, "
              f"{len(new[key])} new runs")
        metrics = base[key][0]["result"]["metrics"]
        for name, m in metrics.items():
            b = statistics.median(d["result"]["metrics"][name]["value"]
                                  for d in base[key])
            n = statistics.median(d["result"]["metrics"][name]["value"]
                                  for d in new[key])
            change = (n - b) / b if b else 0.0
            verdict = ""
            if name in spec:
                sign = 1 if spec[name]["better"] == "lower" else -1
                if sign * change > spec[name]["bound"]:
                    verdict = "  WORSE than bound"
                    worse += 1
            print(f"  {name:30s} {b:14.6g} -> {n:14.6g} {m['unit']:6s} "
                  f"{change:+8.2%}{verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
