/**
 * @file
 * perfbench: whole-process host-time benchmark of the simulator.
 *
 * Shared declarations of the benchmark's main program (main.cc), its workloads
 * (workloads.cc), the isolated layer probes (probes.cc) and the span
 * recorder (spans.cc). Everything here measures the simulator from the
 * outside, by timing calls into the public API of each layer.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "libm3/m3system.hh"

namespace pb
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------
// Spans (spans.cc)
// ---------------------------------------------------------------------

/**
 * In-memory recorder of spans: timed calls into a layer, recorded from
 * the benchmark's side, each with a name ("<layer>.<what>"), start,
 * end, parent span and run id (repetition or probe batch). Off by
 * default; when off, SpanScope costs one branch. Spans may only be
 * opened from one host context at a time (the benchmark opens them from
 * its own code and from the root fiber of the simulated machine, never
 * from two fibers at once).
 */
class Spans
{
  public:
    static bool on;

    /** Start a new run id; spans opened afterwards belong to it. */
    static void beginRun(uint32_t run);
    static int32_t open(const char *name);
    static void close(int32_t idx);

    /**
     * Per-layer self time (seconds) of each run in @p runs: a span's
     * duration minus the part its direct children cover, summed by the
     * layer prefix of the span name.
     */
    static std::map<std::string, std::vector<double>>
    selfTimeByLayer(const std::vector<uint32_t> &runs);

    /** Write every span as Chrome trace-event JSON (B/E per run id). */
    static bool writeChromeJson(const std::string &path);
};

/** RAII span; a no-op while Spans::on is false. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name)
        : idx(Spans::on ? Spans::open(name) : -1)
    {}
    ~SpanScope()
    {
        if (idx >= 0)
            Spans::close(idx);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int32_t idx;
};

// ---------------------------------------------------------------------
// Workloads (workloads.cc)
// ---------------------------------------------------------------------

/** How one repetition runs. */
struct RepOpts
{
    uint64_t seed = 0;
    /** Traced repetition: spans, per-call timers and Metrics on. */
    bool traced = false;
    /** The repository's own trace layer (ReqTrace + Metrics) for the
     *  workloads that use it as part of their definition (serve). */
    bool traceLayer = true;
};

/** Host-time and correctness record of one repetition. */
struct Rep
{
    double wall = 0;       //!< input generation .. end of teardown
    double setup = 0;      //!< input generation .. simulate() entered
    double run = 0;        //!< inside simulate()
    double gen = 0;        //!< input generation
    double construct = 0;  //!< M3System constructor
    double teardown = 0;   //!< M3System destructor
    double exportS = 0;    //!< Metrics export (traced repetitions)
    double peakRssMb = 0;  //!< process peak RSS at the end of the rep
    /** Mean of the host-speed probes just before and just after the
     *  repetition (seconds per probe run). */
    double probe = 0;
    long minorFaults = 0;
    long runMinorFaults = 0;  //!< minor faults inside simulate()
    double cpuUser = 0;
    double cpuSys = 0;
    /** User-mode share of the CPU time of set-up, of the run and of the
     *  rest (output checks and teardown). */
    double setupUserShare = 1;
    double runUserShare = 1;
    double restUserShare = 1;

    uint64_t attempted = 0;  //!< operations the workload attempted
    uint64_t failed = 0;     //!< failed operations + failed checks
    uint64_t headline = 0;   //!< the workload's headline sim number

    uint64_t dramBytes = 0;
    /** Host ns of each root-body syscall (traced syscall workload). */
    std::vector<uint32_t> syscallNs;
    /** Host ns per MiB moved by the root body, by path (fsdata). */
    double writeNsPerMiB = 0;
    double readNsPerMiB = 0;
    double pipeNsPerMiB = 0;
    uint64_t reqSpans = 0;
    /** Hash of the run's simulated report (serve's SLO JSON; 0 = none). */
    uint64_t outputHash = 0;
    /** Counters and gauges read from the metric registry. */
    std::map<std::string, uint64_t> counters;
};

/** A benchmark workload: one repetition builds, runs and tears down a
 *  whole simulated machine from freshly generated inputs. */
struct Workload
{
    const char *name;
    Rep (*runRep)(const RepOpts &opts);
    /** The machine configuration a repetition boots (for the isolated
     *  platform and image-format probes). */
    m3::M3SystemCfg (*machineCfg)(uint64_t seed);
    /** Extra cross-repetition checks; returns failed checks. */
    uint64_t (*checkAcross)(const std::vector<Rep> &reps, uint64_t seed);
};

const std::vector<Workload> &allWorkloads();

/** The default seed whose simulated outputs are pinned byte for byte. */
constexpr uint64_t PINNED_SEED = 1;

// ---------------------------------------------------------------------
// Isolated layer probes (probes.cc)
// ---------------------------------------------------------------------

/** Probe results keyed by per-layer metric name. */
std::map<std::string, double> runProbes(const m3::M3SystemCfg &cfg);

// ---------------------------------------------------------------------
// Host-speed probe (hostspeed.cc)
// ---------------------------------------------------------------------

/**
 * Host seconds one run of the speed probe takes on the reference host.
 * The end-to-end times are scaled to it; see README.md.
 */
constexpr double PROBE_REF_S = 0.0125;

/** Run a fixed, simulator-independent piece of work at least three
 *  times and for @p budget seconds; returns the median host seconds of
 *  one run. */
double probeHostSpeed(double budget);

} // namespace pb

#endif // PERFBENCH_PERFBENCH_HH
