/**
 * @file
 * The benchmark's four workloads. Each repetition generates its inputs
 * from the seed, boots a fresh machine through the public M3System API,
 * runs it on the serial engine, checks every simulated output and tears
 * the machine down, timing each phase from the outside.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "libm3/pipe.hh"
#include "libm3/vpe.hh"
#include "m3fs/client.hh"
#include "perfbench.hh"
#include "trace/metrics.hh"
#include "trace/reqtrace.hh"
#include "workloads/generators.hh"
#include "workloads/m3_replay.hh"
#include "workloads/openloop.hh"

using namespace m3;

namespace pb
{

namespace
{

struct Usage
{
    long minorFaults = 0;
    double user = 0;
    double sys = 0;
};

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return Usage{ru.ru_minflt,
                 ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6,
                 ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6};
}

/** User-mode share of the CPU time between @p a and @p b. */
double
userShare(const Usage &a, const Usage &b)
{
    const double user = b.user - a.user, cpu = user + b.sys - a.sys;
    return cpu > 0 ? user / cpu : 1;
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

/** splitmix64: derives per-seed input parameters. */
uint64_t
mixSeed(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** The registry entries the per-layer report reads back. */
void
readRegistry(Rep &rep)
{
    using trace::Metrics;
    for (const char *name :
         {"sim.events_executed", "sim.callback_heap_fallbacks",
          "noc.packets", "noc.payload_bytes", "noc.contention_stalls",
          "dtu.msgs_sent", "dtu.msgs_dropped", "dtu.credit_denials",
          "dtu.bytes_read", "dtu.bytes_written", "kernel.syscalls",
          "kernel.vpes_created", "kernel.ik_requests_sent",
          "m3fs.cache.hits", "m3fs.cache.misses"})
        rep.counters[name] = Metrics::counter(name).value;
    rep.counters["sim.peak_pending"] =
        Metrics::gauge("sim.peak_pending").value;
}

/** Time the export of the metric registry (and the SLO report). */
void
exportRegistry(Rep &rep)
{
    SpanScope s("trace.export");
    auto t0 = Clock::now();
    std::string json = trace::Metrics::toJson();
    if (trace::ReqTrace::on)
        json += trace::ReqTrace::sloJson();
    rep.exportS = secondsSince(t0);
}

/**
 * A workload that owns its machine: generate() builds the inputs and
 * the configuration, install() hands the root program to the machine,
 * check() verifies the outputs before teardown.
 */
template <typename Plan>
Rep
runMachine(const RepOpts &opts)
{
    Rep rep;
    Plan plan;
    plan.seed = opts.seed;
    plan.traced = opts.traced;
    if (opts.traced) {
        trace::Metrics::reset();
        trace::Metrics::enable();
    }
    const Usage u0 = usageNow();
    const auto t0 = Clock::now();
    {
        SpanScope s("workloads.gen");
        plan.generate();
    }
    rep.gen = secondsSince(t0);
    rep.dramBytes = plan.cfg.dramBytes;

    auto tc = Clock::now();
    std::unique_ptr<M3System> sys;
    {
        SpanScope s("libm3.construct");
        sys = std::make_unique<M3System>(plan.cfg);
    }
    rep.construct = secondsSince(tc);
    {
        SpanScope s("libm3.runRoot");
        plan.install(*sys);
    }
    rep.setup = secondsSince(t0);

    const Usage us = usageNow();
    auto tr = Clock::now();
    bool finished;
    {
        SpanScope s("sim.simulate");
        finished = sys->simulate();
    }
    rep.run = secondsSince(tr);
    const Usage ur = usageNow();
    rep.runMinorFaults = ur.minorFaults - us.minorFaults;

    if (!finished || sys->rootExitCode() != 0) {
        std::fprintf(stderr, "perfbench: root %s (exit %d)\n",
                     finished ? "failed" : "did not finish",
                     sys->rootExitCode());
        rep.failed++;
    }
    plan.check(*sys, rep);

    auto td = Clock::now();
    {
        SpanScope s("libm3.teardown");
        sys.reset();
    }
    rep.teardown = secondsSince(td);
    rep.wall = secondsSince(t0);

    const Usage u1 = usageNow();
    rep.minorFaults = u1.minorFaults - u0.minorFaults;
    rep.cpuUser = u1.user - u0.user;
    rep.cpuSys = u1.sys - u0.sys;
    rep.setupUserShare = userShare(u0, us);
    rep.runUserShare = userShare(us, ur);
    rep.restUserShare = userShare(ur, u1);

    if (opts.traced) {
        exportRegistry(rep);
        readRegistry(rep);
        trace::Metrics::disable();
    }
    return rep;
}

/** Count a pinned value that does not match as one failed check. */
void
expectEq(Rep &rep, const char *what, uint64_t got, uint64_t want)
{
    if (got == want)
        return;
    std::fprintf(stderr, "perfbench: %s is %llu, pinned at %llu\n", what,
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    rep.failed++;
}

// ---------------------------------------------------------------------
// syscall: closed loop of Sec. 5.3 null syscalls on a 64 MiB machine.
// ---------------------------------------------------------------------

constexpr uint32_t SYSCALLS = 400000;
constexpr uint32_t SYSCALL_BATCH = 4096;

M3SystemCfg
syscallCfg(uint64_t)
{
    M3SystemCfg cfg;  // 64 MiB DRAM, 16 MiB image, as the fig3 bench
    cfg.appPes = 2;
    return cfg;
}

struct SyscallPlan
{
    uint64_t seed = 0;
    bool traced = false;
    M3SystemCfg cfg;

    uint64_t errors = 0;
    Cycles cycles = 0;
    Cycles xfer = 0;
    Cycles busy = 0;
    std::vector<uint32_t> ns;

    void
    generate()
    {
        // The null syscall has no inputs; the seed only names the run.
        cfg = syscallCfg(seed);
        if (traced)
            ns.reserve(SYSCALLS);
    }

    void
    install(M3System &sys)
    {
        sys.runRoot("syscall", [this] {
            Env &env = Env::cur();
            if (m3fs::M3fsSession::mount(env, "/") != Error::None)
                return 100;
            env.acct().reset();
            Simulator &sim = env.platform.simulator();
            const Cycles c0 = sim.curCycle();
            for (uint32_t done = 0; done < SYSCALLS;) {
                SpanScope s("libm3.noop_batch");
                const uint32_t end =
                    std::min(SYSCALLS, done + SYSCALL_BATCH);
                for (; done < end; ++done) {
                    if (traced) {
                        const int64_t t = nowNs();
                        errors += env.noop() != Error::None;
                        ns.push_back(static_cast<uint32_t>(nowNs() - t));
                    } else {
                        errors += env.noop() != Error::None;
                    }
                }
            }
            cycles = sim.curCycle() - c0;
            xfer = env.acct().total(Category::Xfer);
            busy = env.acct().totalBusy();
            return 0;
        });
    }

    void
    check(M3System &, Rep &rep)
    {
        rep.attempted += SYSCALLS;
        rep.failed += errors;
        rep.headline = cycles / SYSCALLS;
        // EXPERIMENTS.md: 194 cycles = 25 transfer + 169 other.
        expectEq(rep, "syscall cycles", rep.headline, 194);
        expectEq(rep, "syscall xfer cycles", xfer / SYSCALLS, 25);
        expectEq(rep, "syscall other cycles", (busy - xfer) / SYSCALLS,
                 169);
        rep.syscallNs = std::move(ns);
    }
};

// ---------------------------------------------------------------------
// tar240_k4: 240 namespaced tar replays on a 249-PE, 4-kernel,
// 4-m3fs machine (the simperf mk4 machine on the serial engine).
// ---------------------------------------------------------------------

constexpr uint32_t TAR_INSTANCES = 240;
constexpr uint32_t TAR_KERNELS = 4;
constexpr uint32_t TAR_FS = 4;

/** Give every path of @p w an instance-private prefix. */
workloads::Workload
namespaced(const workloads::Workload &w, uint32_t instance)
{
    const std::string prefix = "/i" + std::to_string(instance);
    workloads::Workload out = w;
    out.setup.dirs.assign(1, prefix);
    for (const std::string &d : w.setup.dirs)
        out.setup.dirs.push_back(prefix + d);
    for (auto &f : out.setup.files)
        f.path = prefix + f.path;
    for (auto &op : out.trace) {
        if (!op.path.empty())
            op.path = prefix + op.path;
        if (!op.path2.empty())
            op.path2 = prefix + op.path2;
    }
    return out;
}

struct TarPlan
{
    uint64_t seed = 0;
    bool traced = false;
    M3SystemCfg cfg;
    std::vector<workloads::Workload> inst;
    std::vector<Cycles> durations;
    std::vector<int> rcs;

    void
    generate()
    {
        cfg.appPes = 1 + TAR_INSTANCES;
        cfg.numKernels = TAR_KERNELS;
        cfg.fsInstances = TAR_FS;
        cfg.dramBytes = size_t(TAR_INSTANCES) * 16 * MiB;
        // Sec. 5.7: DRAM transfers become spins of equal time.
        cfg.costs.spinDataTransfers = true;
        cfg.fsCfg.appendBlocks = 256;
        cfg.fsSpec.totalBlocks = TAR_INSTANCES * 4096;
        cfg.fsSpec.totalInodes = TAR_INSTANCES * 128;

        const workloads::Workload base = workloads::makeTar(cfg.costs.compute);
        for (uint32_t i = 0; i < TAR_INSTANCES; ++i) {
            inst.push_back(namespaced(base, i));
            // The seed picks the member files' contents; sizes and the
            // replayed trace stay fixed, so the cycle pin holds for any
            // seed (data moves are spins here).
            if (seed != PINNED_SEED)
                for (auto &f : inst.back().setup.files)
                    f.seed = mixSeed(seed ^ (uint64_t{i} << 32) ^ f.seed);
            workloads::applySetupToImage(inst.back().setup, cfg.fsSpec);
        }
        durations.assign(TAR_INSTANCES, 0);
        rcs.assign(TAR_INSTANCES, -1);
    }

    void
    install(M3System &sys)
    {
        sys.runRoot("orchestrator", [this] {
            Env &env = Env::cur();
            if (m3fs::M3fsSession::mount(env, "/") != Error::None)
                return 100;
            std::vector<std::unique_ptr<VPE>> vpes;
            for (uint32_t i = 0; i < TAR_INSTANCES; ++i) {
                std::unique_ptr<VPE> vpe;
                {
                    SpanScope s("libm3.vpe_create");
                    vpe = std::make_unique<VPE>(
                        env, "inst" + std::to_string(i));
                }
                if (vpe->err() != Error::None)
                    return 101;
                const std::string srv = M3SystemCfg::fsName(i % TAR_FS);
                const workloads::Trace *trace = &inst[i].trace;
                vpe->run([this, i, srv, trace] {
                    Env &ienv = Env::cur();
                    if (m3fs::M3fsSession::mount(ienv, "/", srv) !=
                        Error::None) {
                        rcs[i] = 200;
                        return 1;
                    }
                    Simulator &sim = ienv.platform.simulator();
                    const Cycles t0 = sim.curCycle();
                    rcs[i] = workloads::replayTraceM3(ienv, *trace);
                    durations[i] = sim.curCycle() - t0;
                    return rcs[i];
                });
                vpes.push_back(std::move(vpe));
                // Staggered launch, as in the fig6 runner.
                Fiber::current()->sleep(2000);
            }
            SpanScope s("libm3.vpe_wait");
            int bad = 0;
            for (auto &vpe : vpes)
                bad += vpe->wait() != 0;
            return bad;
        });
    }

    void
    check(M3System &, Rep &rep)
    {
        Cycles sum = 0;
        for (uint32_t i = 0; i < TAR_INSTANCES; ++i) {
            rep.attempted++;
            rep.failed += rcs[i] != 0;
            sum += durations[i];
        }
        rep.headline = sum / TAR_INSTANCES;
        expectEq(rep, "tar240_k4 average instance cycles", rep.headline,
                 560998);
    }
};

M3SystemCfg
tarCfg(uint64_t seed)
{
    TarPlan p;
    p.seed = seed;
    p.generate();
    return p.cfg;
}

// ---------------------------------------------------------------------
// fsdata: Sec. 5.4 file write, read-back and pipe, 4 KiB buffers, in a
// loop inside one machine. Every file lands on fresh blocks.
// ---------------------------------------------------------------------

constexpr size_t FS_FILE_BYTES = 8 * MiB;
constexpr uint32_t FS_ROUNDS = 16;
constexpr uint32_t FS_BUF = 4096;

M3SystemCfg
fsdataCfg(uint64_t)
{
    M3SystemCfg cfg;
    cfg.appPes = 3;  // root + pipe writer
    // Room for every round's file on fresh blocks, plus metadata.
    cfg.fsSpec.totalBlocks =
        static_cast<uint32_t>(FS_ROUNDS * FS_FILE_BYTES / KiB + 8192);
    cfg.fsSpec.dirs = {"/data"};
    cfg.dramBytes = 64 * MiB + cfg.fsSpec.totalBlocks * size_t(KiB);
    return cfg;
}

struct FsdataPlan
{
    uint64_t seed = 0;
    bool traced = false;
    M3SystemCfg cfg;
    std::vector<uint8_t> data;

    uint64_t mismatches = 0;
    uint64_t errors = 0;
    Cycles cycles = 0;
    double writeS = 0, readS = 0, pipeS = 0;

    void
    generate()
    {
        cfg = fsdataCfg(seed);
        data = m3fs::FsImage::patternData(FS_FILE_BYTES, mixSeed(seed));
    }

    int
    writeFile(Env &env, const std::string &path)
    {
        SpanScope s("m3fs.write_file");
        auto t0 = Clock::now();
        Error e = Error::None;
        auto f = env.vfs().open(path, FILE_W | FILE_CREATE, e);
        if (!f)
            return 1;
        for (size_t off = 0; off < data.size(); off += FS_BUF)
            if (f->write(data.data() + off, FS_BUF) != FS_BUF)
                return 2;
        f.reset();
        writeS += secondsSince(t0);
        return 0;
    }

    int
    readFile(Env &env, const std::string &path)
    {
        SpanScope s("m3fs.read_file");
        auto t0 = Clock::now();
        Error e = Error::None;
        auto f = env.vfs().open(path, FILE_R, e);
        if (!f)
            return 1;
        std::vector<uint8_t> buf(FS_BUF);
        size_t got = 0;
        for (;;) {
            ssize_t n = f->read(buf.data(), buf.size());
            if (n < 0)
                return 2;
            if (n == 0)
                break;
            if (got + n > data.size() ||
                std::memcmp(buf.data(), data.data() + got, n) != 0)
                mismatches++;
            got += static_cast<size_t>(n);
        }
        mismatches += got != data.size();
        readS += secondsSince(t0);
        return 0;
    }

    int
    pipeXfer(Env &env)
    {
        SpanScope s("libm3.pipe_xfer");
        auto t0 = Clock::now();
        Pipe pipe(env, /*creatorWrites=*/false);
        VPE child(env, "writer");
        if (child.err() != Error::None)
            return 1;
        if (pipe.delegateTo(child) != Error::None)
            return 2;
        const std::vector<uint8_t> *src = &data;
        child.run([src] {
            auto out = pipePeer(Env::cur(), /*peerWrites=*/true);
            for (size_t off = 0; off < src->size(); off += FS_BUF)
                if (out->write(src->data() + off, FS_BUF) != FS_BUF)
                    return 1;
            return 0;
        });
        auto in = pipe.host();
        std::vector<uint8_t> buf(FS_BUF);
        size_t got = 0;
        for (;;) {
            ssize_t n = in->read(buf.data(), buf.size());
            if (n < 0)
                return 3;
            if (n == 0)
                break;
            if (got + n > data.size() ||
                std::memcmp(buf.data(), data.data() + got, n) != 0)
                mismatches++;
            got += static_cast<size_t>(n);
        }
        mismatches += got != data.size();
        if (child.wait() != 0)
            return 4;
        pipeS += secondsSince(t0);
        return 0;
    }

    void
    install(M3System &sys)
    {
        sys.runRoot("fsdata", [this] {
            Env &env = Env::cur();
            if (m3fs::M3fsSession::mount(env, "/") != Error::None)
                return 100;
            Simulator &sim = env.platform.simulator();
            const Cycles c0 = sim.curCycle();
            for (uint32_t r = 0; r < FS_ROUNDS; ++r) {
                const std::string path = "/data/f" + std::to_string(r);
                errors += writeFile(env, path) != 0;
                errors += readFile(env, path) != 0;
                errors += pipeXfer(env) != 0;
            }
            cycles = sim.curCycle() - c0;
            return 0;
        });
    }

    void
    check(M3System &, Rep &rep)
    {
        rep.attempted += 3 * FS_ROUNDS;  // write, read-back, pipe
        rep.failed += errors + mismatches;
        rep.headline = cycles;
        expectEq(rep, "fsdata cycles", cycles, FSDATA_PIN);
        const double mib = FS_ROUNDS * double(FS_FILE_BYTES) / MiB;
        rep.writeNsPerMiB = writeS * 1e9 / mib;
        rep.readNsPerMiB = readS * 1e9 / mib;
        rep.pipeNsPerMiB = pipeS * 1e9 / mib;
    }

    static constexpr Cycles FSDATA_PIN = 70676284;
};

// ---------------------------------------------------------------------
// serve: the open-loop echo/KV load generator with ReqTrace and Metrics on.
// ---------------------------------------------------------------------

constexpr uint32_t SERVE_CLIENTS = 4;
constexpr uint32_t SERVE_REQUESTS = 25000;
/** Pins of the default seed: the SLO report's FNV-1a hash and echo p99. */
constexpr uint64_t SERVE_SLO_PIN = 6639255530329165967ull;
constexpr uint64_t SERVE_P99_PIN = 91268;

M3SystemCfg
serveCfg(uint64_t)
{
    // The machine runOpenLoop boots: no fs, root + service + clients.
    M3SystemCfg cfg;
    cfg.withFs = false;
    cfg.appPes = SERVE_CLIENTS + 2;
    return cfg;
}

/** Pull `"key": <n>` of class @p cls out of an SLO report. */
uint64_t
sloValue(const std::string &slo, const std::string &cls,
         const std::string &key)
{
    size_t at = slo.find("\"" + cls + "\": {");
    if (at == std::string::npos)
        return 0;
    size_t k = slo.find("\"" + key + "\": ", at);
    if (k == std::string::npos)
        return 0;
    return std::strtoull(slo.c_str() + k + key.size() + 4, nullptr, 10);
}

Rep
runServe(const RepOpts &opts)
{
    Rep rep;
    if (opts.traceLayer) {
        trace::ReqTrace::enable();
        trace::Metrics::enable();
    } else {
        trace::ReqTrace::disable();
        trace::Metrics::disable();
    }
    trace::Metrics::reset();

    const Usage u0 = usageNow();
    const auto t0 = Clock::now();
    workloads::OpenLoopOpts o;
    {
        SpanScope s("workloads.gen");
        o.clients = SERVE_CLIENTS;
        o.requestsPerClient = SERVE_REQUESTS;
        o.seed = opts.seed;
    }
    rep.gen = secondsSince(t0);
    rep.dramBytes = serveCfg(opts.seed).dramBytes;
    workloads::OpenLoopResult res;
    {
        SpanScope s("workloads.run_open_loop");
        res = workloads::runOpenLoop(o);
    }
    rep.wall = secondsSince(t0);
    rep.run = res.hostSeconds;
    // runOpenLoop owns its machine: everything outside simulate() —
    // construction and teardown — counts as set-up here.
    rep.setup = rep.wall - rep.run;

    const Usage u1 = usageNow();
    rep.minorFaults = u1.minorFaults - u0.minorFaults;
    rep.cpuUser = u1.user - u0.user;
    rep.cpuSys = u1.sys - u0.sys;
    // runOpenLoop runs every phase: one share for all of them.
    rep.setupUserShare = rep.runUserShare = rep.restUserShare =
        userShare(u0, u1);

    const uint64_t total = uint64_t{SERVE_CLIENTS} * SERVE_REQUESTS;
    rep.attempted = total;
    if (res.rc != 0) {
        std::fprintf(stderr, "perfbench: serve exited %d\n", res.rc);
        rep.failed += total;
    } else if (opts.traceLayer) {
        rep.failed += total - std::min(total, res.completed);
        // The headline is the mean echo latency, not p99: over ten
        // seeds its quartiles lie 0.6% apart, p99's 1.3%.
        rep.headline = sloValue(res.sloJson, "echo", "mean");
        const uint64_t p99 = sloValue(res.sloJson, "echo", "p99");
        rep.outputHash = fnv1a(res.sloJson);
        rep.reqSpans = trace::ReqTrace::spanCount();
        if (rep.headline == 0 || p99 == 0) {
            std::fprintf(stderr, "perfbench: serve SLO report lacks an "
                                 "echo mean or p99\n");
            rep.failed++;
        }
        if (opts.seed == PINNED_SEED) {
            expectEq(rep, "serve SLO report hash", rep.outputHash,
                     SERVE_SLO_PIN);
            expectEq(rep, "serve echo p99", p99, SERVE_P99_PIN);
        }
    }

    if (opts.traced) {
        exportRegistry(rep);
        readRegistry(rep);
    }
    trace::Metrics::disable();
    trace::ReqTrace::disable();
    return rep;
}

/** The SLO report must be byte-identical across repetitions. */
uint64_t
serveAcross(const std::vector<Rep> &reps, uint64_t)
{
    uint64_t first = 0, bad = 0;
    for (const Rep &r : reps) {
        if (!r.outputHash)
            continue;  // trace layer off: no report
        if (!first)
            first = r.outputHash;
        bad += r.outputHash != first;
    }
    if (bad)
        std::fprintf(stderr, "perfbench: %llu serve SLO reports differ "
                             "from the first repetition's\n",
                     static_cast<unsigned long long>(bad));
    return bad;
}

/** Cycle pins hold within a process: every repetition, same headline. */
uint64_t
sameHeadline(const std::vector<Rep> &reps, uint64_t)
{
    uint64_t bad = 0;
    for (const Rep &r : reps)
        bad += r.headline != reps.front().headline;
    return bad;
}

} // anonymous namespace

const std::vector<Workload> &
allWorkloads()
{
    // Why each workload is here: BENCHMARK.json and README.md.
    static const std::vector<Workload> all = {
        {"syscall", &runMachine<SyscallPlan>, &syscallCfg, &sameHeadline},
        {"tar240_k4", &runMachine<TarPlan>, &tarCfg, &sameHeadline},
        {"fsdata", &runMachine<FsdataPlan>, &fsdataCfg, &sameHeadline},
        {"serve", &runServe, &serveCfg, &serveAcross},
    };
    return all;
}

} // namespace pb
