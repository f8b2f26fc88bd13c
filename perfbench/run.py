#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (a CMake package that compiles the
simulator libraries from src/) in a Release build under .bench_build/
(or $CARGO_TARGET_DIR), runs one workload and prints the benchmark's
provenance line and, as the last line of stdout, its JSON result. With
--trace 1 the span file the run writes is validated with the
repository's tracecheck tool; a file that fails counts as a failed check.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ("syscall", "tar240_k4", "fsdata", "serve")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """sha256 over the sources the benchmark compiles and runs."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        for d, _, names in os.walk(os.path.join(root, top)):
            files += [os.path.join(d, n) for n in names]
    files.append(os.path.join(root, "tools", "tracecheck.cc"))
    for path in sorted(files):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit_of(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"),
               "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def expected_metrics(root, traced):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("src/CMakeLists.txt", "tools/tracecheck.cc"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a full checkout")

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    build(root, build_dir)

    spans = os.path.join(build_dir,
                         f"spans-{args.workload}-{args.seed}.json")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_of(root),
           "--source-digest", source_digest(root)]
    if args.trace:
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"perfbench exited {r.returncode}")
    result = json.loads(lines[-1])

    want = expected_metrics(root, args.trace)
    if want is not None and want != set(result["metrics"]):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(want ^ set(result['metrics']))}")

    if args.trace:
        tc = subprocess.run([os.path.join(build_dir, "tracecheck"),
                             "--trace", spans, "--phases", "BE"],
                            stdout=sys.stderr)
        if tc.returncode != 0:
            result["correct"] = False
            result["failed"] += 1

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
