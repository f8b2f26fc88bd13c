/**
 * @file
 * perfbench main program: repeats one workload for a fixed host-time budget
 * and prints the end-to-end metrics (--trace 0) or the per-layer
 * metrics (--trace 1) as the last line of stdout, preceded by a
 * provenance line. See README.md for the metric definitions.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--spans FILE] [--commit C] [--source-digest D]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <tuple>

#include "perfbench.hh"

using namespace m3;
using namespace pb;

namespace
{

struct Args
{
    std::string workload;
    uint64_t seed = PINNED_SEED;
    double seconds = 10;
    bool trace = false;
    std::string spans;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

/** Fewest repetitions a median is taken over. */
constexpr size_t MIN_REPS = 3;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename F>
double
medianOver(const std::vector<Rep> &reps, F &&field)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(static_cast<double>(field(r)));
    return median(v);
}

double
counterMedian(const std::vector<Rep> &reps, const std::string &name)
{
    return medianOver(reps, [&](const Rep &r) {
        auto it = r.counters.find(name);
        return it == r.counters.end() ? 0.0 : double(it->second);
    });
}

/** Nearest-rank quantile (per mille) over every sample of @p reps. */
double
syscallQuantile(const std::vector<Rep> &reps, uint32_t perMille)
{
    std::vector<uint32_t> all;
    for (const Rep &r : reps)
        all.insert(all.end(), r.syscallNs.begin(), r.syscallNs.end());
    if (all.empty())
        return 0;
    size_t rank = (all.size() * perMille + 999) / 1000;
    rank = std::clamp<size_t>(rank, 1, all.size());
    std::nth_element(all.begin(), all.begin() + (rank - 1), all.end());
    return all[rank - 1];
}

/** Peak resident memory of the process so far. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

/** Share of a repetition's own time spent on the host-speed probe
 *  after it. */
constexpr double PROBE_SHARE = 0.05;

/**
 * Run repetitions until @p seconds have passed and at least @p minReps
 * ran; each repetition gets its own span run id. The host-speed probe
 * runs after every repetition; @p probe holds the last probe before
 * the first one and, on return, the last one after them.
 */
std::vector<Rep>
repeat(const Workload &w, const RepOpts &opts, double seconds,
       size_t minReps, double &probe, uint32_t &runId,
       std::vector<uint32_t> *runIds)
{
    std::vector<Rep> reps;
    const auto t0 = Clock::now();
    while (reps.size() < minReps || secondsSince(t0) < seconds) {
        if (runIds)
            runIds->push_back(runId);
        Spans::beginRun(runId++);
        reps.push_back(w.runRep(opts));
        Rep &r = reps.back();
        r.peakRssMb = peakRssMb();
        const double after = probeHostSpeed(PROBE_SHARE * r.wall);
        r.probe = (probe + after) / 2;
        probe = after;
        std::fprintf(stderr,
                     "perfbench: %s rep %u%s: wall %.4f s, setup %.4f s, "
                     "run %.4f s (%ld faults), cpu %.4f s (user share "
                     "%.2f/%.2f/%.2f), probe %.5f s, failed %llu\n",
                     w.name, runId - 1, opts.traced ? " (traced)" : "",
                     r.wall, r.setup, r.run, r.runMinorFaults,
                     r.cpuUser + r.cpuSys, r.setupUserShare,
                     r.runUserShare, r.restUserShare, r.probe,
                     static_cast<unsigned long long>(r.failed));
    }
    return reps;
}

/**
 * One repetition before timing starts. Its outputs are checked like any
 * other, but its times are not used: the first machine a process builds
 * runs 1-2 s slower on tar240_k4 while the host hands it fresh memory,
 * and that cost swings with host state, not with the code. The
 * host-speed probe after it is left in the returned repetition's
 * probe field.
 */
Rep
warmUp(const Workload &w, const RepOpts &opts, uint32_t &runId)
{
    Spans::beginRun(runId++);
    Rep r = w.runRep(opts);
    r.probe = probeHostSpeed(PROBE_SHARE * r.wall);
    std::fprintf(stderr, "perfbench: %s warm-up: wall %.4f s, failed %llu\n",
                 w.name, r.wall, static_cast<unsigned long long>(r.failed));
    return r;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

void
tally(const std::vector<Rep> &reps, uint64_t &attempted, uint64_t &failed)
{
    for (const Rep &r : reps) {
        attempted += r.attempted;
        failed += r.failed;
    }
}

/**
 * @p seconds of a phase at the reference host speed. The user-mode
 * share (@p userShare) of the phase is scaled by @p k, the reference
 * probe time over the probe time measured next to the phase; the
 * kernel's share stays as measured.
 */
double
atReferenceSpeed(double seconds, double userShare, double k)
{
    return seconds * (1 - userShare + userShare * k);
}

int
endToEnd(const Workload &w, const Args &a)
{
    RepOpts opts;
    opts.seed = a.seed;
    uint32_t runId = 0;
    const Rep warm = warmUp(w, opts, runId);
    double probe = warm.probe;
    std::vector<Rep> reps = repeat(w, opts, a.seconds, MIN_REPS, probe,
                                   runId, nullptr);
    std::vector<Rep> checked = reps;
    checked.push_back(warm);
    uint64_t attempted = 0, failed = w.checkAcross(checked, a.seed);
    tally(checked, attempted, failed);

    auto med = [&](auto field) { return medianOver(reps, field); };
    auto setup = [](const Rep &r) {
        return atReferenceSpeed(r.setup, r.setupUserShare,
                                PROBE_REF_S / r.probe);
    };
    auto run = [](const Rep &r) {
        return atReferenceSpeed(r.run, r.runUserShare, PROBE_REF_S / r.probe);
    };
    auto rest = [](const Rep &r) {
        return atReferenceSpeed(r.wall - r.setup - r.run, r.restUserShare,
                                PROBE_REF_S / r.probe);
    };
    // The measured times, before scaling to the reference host speed.
    std::printf("{\"unscaled\": {\"wall_s\": %.12g, \"setup_s\": %.12g, "
                "\"run_s\": %.12g, \"probe_s\": %.12g}}\n",
                med([](const Rep &r) { return r.wall; }),
                med([](const Rep &r) { return r.setup; }),
                med([](const Rep &r) { return r.run; }),
                med([](const Rep &r) { return r.probe; }));
    printResult(attempted, failed, {
        {"wall_s",
         med([&](const Rep &r) { return setup(r) + run(r) + rest(r); }),
         "s"},
        {"setup_s", med(setup), "s"},
        {"run_s", med(run), "s"},
        // After the warm-up and the first timed repetition: later
        // repetitions' heap churn would tie it to how many ran.
        {"peak_rss_mb", reps.front().peakRssMb, "MB"},
        {"minor_faults", med([](const Rep &r) { return r.minorFaults; }),
         "count"},
        {"sim_cycles", med([](const Rep &r) { return r.headline; }),
         "cycles"},
    });
    return 0;
}

/** Median host seconds of constructing and of destroying the
 *  workload's machine, for workloads whose runner owns the machine. */
std::pair<double, double>
constructTeardownProbe(const M3SystemCfg &cfg)
{
    SpanScope s("libm3.machine_probe");
    std::vector<double> ctor, dtor;
    for (size_t i = 0; i < MIN_REPS; ++i) {
        auto t0 = Clock::now();
        auto sys = std::make_unique<M3System>(cfg);
        ctor.push_back(secondsSince(t0));
        t0 = Clock::now();
        sys.reset();
        dtor.push_back(secondsSince(t0));
    }
    return {median(ctor), median(dtor)};
}

int
perLayer(const Workload &w, const Args &a)
{
    const bool serve = std::strcmp(w.name, "serve") == 0;
    // serve splits its budget three ways: trace layer on untraced,
    // traced, and trace layer off (for trace.on_off_run_ratio).
    const double share = a.seconds / (serve ? 3 : 2);
    uint32_t runId = 0;

    RepOpts plain;
    plain.seed = a.seed;
    const Rep warm = warmUp(w, plain, runId);
    double lastProbe = warm.probe;
    std::vector<Rep> untraced =
        repeat(w, plain, share, MIN_REPS - 1, lastProbe, runId, nullptr);

    RepOpts tracedOpts = plain;
    tracedOpts.traced = true;
    Spans::on = true;
    std::vector<uint32_t> tracedRuns;
    std::vector<Rep> traced =
        repeat(w, tracedOpts, share, 1, lastProbe, runId, &tracedRuns);
    Spans::on = false;

    std::vector<Rep> off;
    if (serve) {
        RepOpts offOpts = plain;
        offOpts.traceLayer = false;
        off = repeat(w, offOpts, share, MIN_REPS - 1, lastProbe, runId,
                     nullptr);
    }

    Spans::on = true;
    Spans::beginRun(runId++);
    const M3SystemCfg cfg = w.machineCfg(a.seed);
    std::map<std::string, double> probe = runProbes(cfg);
    double construct = medianOver(untraced, [](const Rep &r) {
        return r.construct;
    });
    double teardown = medianOver(untraced, [](const Rep &r) {
        return r.teardown;
    });
    if (construct == 0)
        std::tie(construct, teardown) = constructTeardownProbe(cfg);
    Spans::on = false;

    uint64_t attempted = 0, failed = 0;
    std::vector<Rep> checked = untraced;
    checked.insert(checked.end(), traced.begin(), traced.end());
    checked.push_back(warm);
    failed += w.checkAcross(checked, a.seed);
    tally(checked, attempted, failed);
    tally(off, attempted, failed);

    if (!a.spans.empty() && !Spans::writeChromeJson(a.spans)) {
        std::fprintf(stderr, "perfbench: cannot write spans to '%s'\n",
                     a.spans.c_str());
        failed++;
    }

    auto medU = [&](auto field) { return medianOver(untraced, field); };
    auto medT = [&](auto field) { return medianOver(traced, field); };
    auto cnt = [&](const char *name) { return counterMedian(traced, name); };
    auto per = [](double num, double den) { return den ? num / den : 0; };

    const double runU = medU([](const Rep &r) { return r.run; });
    const double runT = medT([](const Rep &r) { return r.run; });
    const double runOff = medianOver(off, [](const Rep &r) { return r.run; });
    const double events = cnt("sim.events_executed");
    const double syscalls = cnt("kernel.syscalls");
    const double hits = cnt("m3fs.cache.hits");
    const double misses = cnt("m3fs.cache.misses");

    std::vector<Metric> m = {
        {"sim.events", events, "count"},
        {"sim.ns_per_event", per(runU * 1e9, events), "ns"},
        {"sim.peak_pending", cnt("sim.peak_pending"), "count"},
        {"sim.callback_heap_fallbacks", cnt("sim.callback_heap_fallbacks"),
         "count"},
        {"sim.event_ns", probe["sim.event_ns"], "ns"},
        {"sim.fiber_switch_ns", probe["sim.fiber_switch_ns"], "ns"},
        {"mem.dram_bytes", double(untraced.front().dramBytes), "bytes"},
        {"mem.run_minor_faults",
         medU([](const Rep &r) { return r.runMinorFaults; }), "count"},
        {"mem.dram_alloc_s_per_gib", probe["mem.dram_alloc_s_per_gib"],
         "s/GiB"},
        {"pe.platform_construct_s", probe["pe.platform_construct_s"], "s"},
        {"noc.packets", cnt("noc.packets"), "count"},
        {"noc.payload_bytes", cnt("noc.payload_bytes"), "bytes"},
        {"noc.contention_stall_cycles", cnt("noc.contention_stalls"),
         "cycles"},
        {"noc.send_ns", probe["noc.send_ns"], "ns"},
        {"dtu.msgs_sent", cnt("dtu.msgs_sent"), "count"},
        {"dtu.msgs_dropped", cnt("dtu.msgs_dropped"), "count"},
        {"dtu.credit_denials", cnt("dtu.credit_denials"), "count"},
        {"dtu.bytes_moved", cnt("dtu.bytes_read") + cnt("dtu.bytes_written"),
         "bytes"},
        {"dtu.msg_roundtrip_ns", probe["dtu.msg_roundtrip_ns"], "ns"},
        {"dtu.bulk_ns_per_kib", probe["dtu.bulk_ns_per_kib"], "ns/KiB"},
        {"kernel.syscalls", syscalls, "count"},
        {"kernel.vpes_created", cnt("kernel.vpes_created"), "count"},
        {"kernel.ik_requests", cnt("kernel.ik_requests_sent"), "count"},
        {"kernel.host_ns_per_syscall", per(runU * 1e9, syscalls), "ns"},
        {"libm3.machine_construct_s", construct, "s"},
        {"libm3.teardown_s", teardown, "s"},
        {"libm3.syscall_host_ns.p50", syscallQuantile(traced, 500), "ns"},
        {"libm3.syscall_host_ns.p99", syscallQuantile(traced, 990), "ns"},
        {"m3fs.image_format_s", probe["m3fs.image_format_s"], "s"},
        {"m3fs.write_host_ns_per_mib",
         medU([](const Rep &r) { return r.writeNsPerMiB; }), "ns/MiB"},
        {"m3fs.read_host_ns_per_mib",
         medU([](const Rep &r) { return r.readNsPerMiB; }), "ns/MiB"},
        {"m3fs.pipe_host_ns_per_mib",
         medU([](const Rep &r) { return r.pipeNsPerMiB; }), "ns/MiB"},
        {"m3fs.block_cache_hit_ratio", per(hits, hits + misses), "ratio"},
        {"trace.reqtrace_spans",
         medT([](const Rep &r) { return r.reqSpans; }), "count"},
        {"trace.export_s", medT([](const Rep &r) { return r.exportS; }),
         "s"},
        {"trace.on_off_run_ratio", serve ? per(runU, runOff)
                                         : per(runT, runU),
         "ratio"},
        {"trace.overhead_s",
         medT([](const Rep &r) { return r.wall; }) -
             medU([](const Rep &r) { return r.wall; }),
         "s"},
        {"workloads.gen_s", medU([](const Rep &r) { return r.gen; }), "s"},
        {"proc.cpu_user_s", medU([](const Rep &r) { return r.cpuUser; }),
         "s"},
        {"proc.cpu_sys_s", medU([](const Rep &r) { return r.cpuSys; }),
         "s"},
        {"host.probe_s", medU([](const Rep &r) { return r.probe; }), "s"},
        {"fail_ratio", per(double(failed), double(attempted)), "ratio"},
    };
    // Self time of each layer the workload's spans cover, per traced
    // repetition, as the median over those repetitions.
    std::map<std::string, std::vector<double>> self =
        Spans::selfTimeByLayer(tracedRuns);
    for (const char *layer : {"workloads", "libm3", "sim", "m3fs", "trace"})
        m.push_back({std::string("self.") + layer + "_s",
                     median(self[layer]), "s"});

    printResult(attempted, failed, m);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--spans FILE] [--commit C] "
                 "[--source-digest D]\n  workloads:");
    for (const Workload &w : allWorkloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string val = argv[++i];
        if (arg == "--workload")
            a.workload = val;
        else if (arg == "--seed")
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(val.c_str(), nullptr);
        else if (arg == "--trace")
            a.trace = val != "0";
        else if (arg == "--spans")
            a.spans = val;
        else if (arg == "--commit")
            a.commit = val;
        else if (arg == "--source-digest")
            a.sourceDigest = val;
        else
            return usage();
    }
    const Workload *w = nullptr;
    for (const Workload &cand : allWorkloads())
        if (a.workload == cand.name)
            w = &cand;
    if (!w || a.seconds <= 0)
        return usage();

    std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"host_cores\": %u, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"commit\": \"%s\", \"source_digest\": \"%s\"}}\n",
                w->name, static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0,
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER, a.commit.c_str(),
                a.sourceDigest.c_str());
    std::fflush(stdout);
    return a.trace ? perLayer(*w, a) : endToEnd(*w, a);
}
