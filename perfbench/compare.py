#!/usr/bin/env python3
"""Compare two sets of perfbench results.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the stdout of one or more `perfbench/run.py` runs of the
same workload and mode: a provenance line followed by a result line, per
run. Prints, per metric, both medians and NEW/BASE. Refuses (exit 2) to
compare results whose host core count, build type, workload or mode
differ: host time from different hosts or builds is not comparable.
"""

import json
import statistics
import sys

MUST_MATCH = ("host_cores", "build_type", "workload", "trace")


def load(path):
    provs, runs = [], []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "provenance" in obj:
                provs.append(obj["provenance"])
            elif "metrics" in obj:
                runs.append(obj)
    if not runs or len(provs) != len(runs):
        sys.exit(f"compare: {path}: expected provenance + result per run")
    for p in provs[1:]:
        for key in MUST_MATCH:
            if p[key] != provs[0][key]:
                sys.exit(f"compare: {path} mixes {key} values")
    return provs[0], runs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (pa, ra), (pb, rb) = load(sys.argv[1]), load(sys.argv[2])
    for key in MUST_MATCH:
        if pa[key] != pb[key]:
            print(f"compare: refusing: {key} differs "
                  f"({pa[key]!r} vs {pb[key]!r})", file=sys.stderr)
            sys.exit(2)
    print(f"{pa['workload']} trace={pa['trace']} on {pa['host_cores']} "
          f"cores, {pa['build_type']}: {len(ra)} vs {len(rb)} runs")
    for r, label in ((ra, "base"), (rb, "new")):
        bad = sum(not x["correct"] for x in r)
        if bad:
            print(f"  {label}: {bad} run(s) reported incorrect output")
    print(f"{'metric':34} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, m in ra[0]["metrics"].items():
        a = statistics.median(x["metrics"][name]["value"] for x in ra)
        b = statistics.median(x["metrics"][name]["value"] for x in rb
                              if name in x["metrics"])
        ratio = f"{b / a:9.3f}" if a else f"{'-':>9}"
        print(f"{name:34} {a:14.6g} {b:14.6g} {ratio}  {m['unit']}")


if __name__ == "__main__":
    main()
