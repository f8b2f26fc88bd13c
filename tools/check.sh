#!/bin/sh
# Full pre-merge check: build and run the test suite twice, once in the
# default optimized configuration and once instrumented with ASan+UBSan
# (the fiber/ucontext switching is ASan-aware, no extra options needed).
#
# Usage: tools/check.sh [jobs]   (default: nproc)
set -eu

cd "$(dirname "$0")/.."
jobs=${1:-$(nproc)}

run_config() {
    dir=$1
    labels=$2
    shift 2
    echo "=== configure $dir ($*)"
    cmake -B "$dir" -S . "$@"
    echo "=== build $dir"
    cmake --build "$dir" -j "$jobs"
    echo "=== test $dir ($labels)"
    # shellcheck disable=SC2086  # $labels is a ctest flag pair
    ctest --test-dir "$dir" -j "$jobs" --output-on-failure $labels
}

# The release pass runs the quick suite; the randomized invariant/fuzz
# tests (label "slow") run once, in the sanitized build, so every check
# includes ASan+UBSan-instrumented fuzzing without doubling its cost.
run_config build-release "-LE slow" -DCMAKE_BUILD_TYPE=Release -DM3_SANITIZE=
run_config build-asan "-LE slow" -DM3_SANITIZE=address,undefined
echo "=== test build-asan (-L slow: sanitized invariant/fuzz suite)"
ctest --test-dir build-asan -j "$jobs" --output-on-failure -L slow

# Parallel-engine gate under TSan: the sharded engine's cross-thread
# hand-offs (inbox posts, barrier windows, atomic metric cells) and the
# DRAM page free list and module locks must be race-free. TSan selects
# the ucontext fiber fallback automatically, so the full-machine tests
# drive real fibers on worker threads: one 4-domain machine sharing a
# DRAM module, one striped machine with a module per stripe. Only the
# parallel suites run here — the rest of the tree is single-threaded
# and covered by the ASan pass.
echo "=== parallel engine under TSan"
cmake -B build-tsan -S . -DM3_SANITIZE=thread
cmake --build build-tsan -j "$jobs" --target test_shards test_determinism \
    test_mem
./build-tsan/tests/test_shards
./build-tsan/tests/test_mem
./build-tsan/tests/test_determinism \
    --gtest_filter='Determinism.ThreadCountInvariant:Determinism.DistfsThreadCountInvariant'

# Observability smoke: a traced micro-benchmark must emit a well-formed
# Chrome trace containing every phase the exporter produces (span B/E,
# complete X, flow s/f, counter C) and a metrics dump with the schema
# keys CI consumers rely on.
echo "=== traced micro-benchmark (tracecheck)"
obs=$(mktemp -d)
trap 'rm -rf "$obs"' EXIT
./build-release/tools/m3bench syscall \
    --trace="$obs/t.json" --metrics="$obs/m.json" > /dev/null
./build-release/tools/tracecheck \
    --trace "$obs/t.json" --phases BEXsfC \
    --metrics "$obs/m.json" \
    --require dtu.msgs_sent,dtu.reply_latency.ep0,noc.packets,kernel.syscalls,sim.queue_depth

# Request-tracing gate: the open-loop serving driver must produce a
# structurally valid request trace (every flow paired, spans nested), a
# metrics dump carrying the per-class latency histograms with their
# quantile estimates, and an SLO report with the schema CI consumers
# parse. Runs once against the release build and once under ASan+UBSan
# (the context shadow rides DTU closures and ring slots — exactly where
# lifetime bugs would hide).
echo "=== open-loop serving driver + SLO report (request tracing)"
for build in build-release build-asan; do
    ./$build/bench/openloop --clients 6 --requests 30 --kernels 2 \
        --shards=2 --threads=2 \
        --slo="$obs/slo.json" --trace="$obs/req.json" \
        --metrics="$obs/reqm.json" > /dev/null
    ./build-release/tools/tracecheck \
        --trace "$obs/req.json" --phases BEXsf \
        --metrics "$obs/reqm.json" \
        --require req.echo.total,req.echo.credit_stall,req.kv.service,quantiles \
        --slo "$obs/slo.json" \
        --slo-require schema,workload,sustainable,classes,p999,decomposition
done

# Perf smoke: the release build must reproduce the committed simulated
# state (events, sim_cycles) exactly — including on the mk4.tN thread
# sweep, whose rows must also match *each other* (thread-count
# invariance of the parallel engine) — and stay within the events/sec
# regression tolerance recorded in BENCH_simperf.json. The t8-vs-t1
# speedup gate arms itself only on hosts with >= 8 cores. Tracing is
# compiled in but disabled here, so this doubles as the zero-overhead
# gate for the observability layer.
echo "=== simperf smoke (vs BENCH_simperf.json)"
# Best-of-3 measurement: a single rep is too noisy on a loaded host to
# hold the 25% tolerance against the recorded baseline.
./build-release/bench/simperf --reps 3 --check BENCH_simperf.json

# Multi-kernel gate: the sharded-control-plane table of fig6 must keep
# both verdicts (two kernels remove most of the syscall bottleneck;
# four strictly beat one per instance). Runs against the release build;
# the inter-kernel protocol itself is exercised under ASan+UBSan by the
# suites above (test_multikernel, and Invariants.MultiKernelWorkloads
# in the -L slow pass).
echo "=== fig6 multi-kernel verdict"
./build-release/bench/fig6_scalability --multikernel-only

# Striped-data-plane gate: the distfs tables of fig6 must keep their
# verdicts (two stripes beat the single instance on tar and untar;
# four stripes deliver >= 1.6x bandwidth on both; the replicated R=2
# columns bound the write-amplification cost). Simulated cycles are
# sanitizer-independent, so the same verdicts run once against the
# release build and once under ASan+UBSan — the pipelined metadata
# fan-out, the replica mirror segments and the parallel per-stripe DTU
# transfers are exactly where lifetime bugs would hide. The randomized
# striped invariant suites (Invariants.Striped*) ride the sanitized
# -L slow pass above via test_invariants.
echo "=== fig6 distfs striped + replicated verdict (release + sanitized)"
./build-release/bench/fig6_scalability --distfs-only
./build-asan/bench/fig6_scalability --distfs-only

# Pipe-teardown gate, named explicitly so a test relabel cannot drop
# it: the writer destructor's bounded-EOF path must survive a dead
# reader under ASan+UBSan — destructors are where lifetime bugs hide.
echo "=== pipe teardown robustness (sanitized)"
# gtest exits 0 when a filter matches nothing, so assert the test ran.
./build-asan/tests/test_robustness \
    --gtest_filter='Robustness.PipeWriterTeardownSurvivesDeadReader' \
    2>&1 | tee "$obs/pipe_teardown.log"
grep -q '\[  PASSED  \] 1 test' "$obs/pipe_teardown.log"

# Rolling-restart gate: drain + kill every compute PE once under a
# fig6-class request workload; the run must finish with byte-identical
# application output, zero lost in-flight work and no aborted
# migration. The bench prints the table and enforces the verdicts.
echo "=== rolling restart drill (live migration)"
./build-release/bench/robustness --rolling-restart

# Stripe-kill gate: replicated distfs (R=2 + spare) must survive the
# kill of each stripe's server PE in turn — every byte reads back
# intact with zero PeerGone surfaced, and the rebuild onto the spare
# restores the full stripe set. Runs against the release build and
# under ASan+UBSan: degraded reads re-route through replica handles and
# abandoned subfiles — exactly where lifetime bugs would hide.
echo "=== stripe kill drill (replicated distfs, release + sanitized)"
./build-release/bench/robustness --stripe-kill
./build-asan/bench/robustness --stripe-kill

echo "=== all checks passed"
