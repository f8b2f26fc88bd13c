/**
 * @file
 * M3System: the all-in-one harness that assembles a simulated M3 machine
 * — platform, kernel, filesystem image + m3fs service — and runs a root
 * application on it. Every test, example and benchmark builds on this.
 */

#ifndef M3_LIBM3_M3SYSTEM_HH
#define M3_LIBM3_M3SYSTEM_HH

#include <functional>
#include <memory>
#include <string>

#include "kernel/kernel.hh"
#include "libm3/env.hh"
#include "m3fs/fs_image.hh"
#include "m3fs/server.hh"
#include "pe/platform.hh"
#include "sim/simulator.hh"

namespace m3
{

/**
 * Configuration of a simulated M3 machine, apart from the contents of
 * its filesystem image (see M3SystemCfg).
 */
struct M3MachineCfg
{
    /** General-purpose application PEs (beyond kernel and fs PEs). */
    uint32_t appPes = 4;
    /**
     * Kernel instances (Sec. 7: multiple kernels as the control-plane
     * remedy for Fig. 6's syscall bottleneck). Kernel k runs on PE k and
     * owns every later PE p with (p - numKernels) % numKernels == k;
     * the kernels cooperate over an inter-kernel DTU protocol (remote
     * CreateVpe placement, cross-domain sessions). The default of 1 is
     * the classic single-kernel machine, bit-identical to before.
     */
    uint32_t numKernels = 1;
    /** Additional special PEs (accelerators). */
    std::vector<PeDesc> extraPes;
    /** DRAM capacity. */
    size_t dramBytes = 64 * MiB;
    /** All calibration parameters. */
    CostModel costs;
    /** Whether to boot an m3fs instance. */
    bool withFs = true;
    /**
     * Number of m3fs instances (Sec. 7: multiple service instances are
     * the paper's future work; Fig. 6 shows why). Instance k registers
     * as "m3fs" (k = 0) or "m3fs<k>" and serves its own image.
     */
    uint32_t fsInstances = 1;
    /** m3fs server parameters (append granularity etc.). */
    m3fs::ServerConfig fsCfg;

    /**
     * distfs stripes (1 = off, bit-identical to before). With N >= 2
     * the machine boots N m3fs instances (fsInstances is overridden),
     * each backed by its own DRAM module, and every kernel registers
     * the service group "distfs" that fans OpenSess out to the stripe
     * set. Clients mount the stripes with m3fs::DistfsSession.
     */
    uint32_t distfsStripes = 1;
    /** distfs striping unit in blocks (8 KiB with 1 KiB blocks). */
    uint32_t distfsUnitBlocks = 8;
    /**
     * distfs replication factor R (1 = unreplicated, bit-identical to
     * before). With R >= 2 every unit placed on stripe s is mirrored
     * onto the next-neighbour stripes (s+r) % N for r < R: writes fan
     * each gathered run out to all copies, reads go primary-first and
     * fall back to a replica when the primary's server is dead, so a
     * single stripe kill degrades the mount instead of losing data.
     * Advertised to clients through the service group (QuerySrv).
     */
    uint32_t distfsReplicas = 1;
    /**
     * Spare m3fs instances beyond the stripe set: booted with their own
     * DRAM modules and registered as plain services (fsName(k) for
     * k >= distfsStripes) but kept out of the distfs group — standby
     * replacements that DistfsSession::rebuild() re-mirrors a dead
     * stripe onto.
     */
    uint32_t distfsSpares = 0;

    /** The service-group name distfs machines register. */
    static constexpr const char *DISTFS_GROUP = "distfs";

    /**
     * Fault injection (deterministic, seeded). Inactive by default; an
     * inactive plan is not even attached, so the fault-free fast paths
     * stay untouched (set faults.attachInert to attach it anyway).
     */
    FaultPlanCfg faults;
    /** Kernel watchdog: reclaim a VPE silent for this long (0 = off). */
    Cycles watchdogDeadline = 0;
    /** How often the kernel checks (0 = off). */
    Cycles watchdogPeriod = 0;

    /**
     * VPE time multiplexing: the kernel's scheduling quantum. 0 (the
     * default) disables multiplexing entirely — CreateVpe fails when no
     * PE is free, and no context-switch machinery runs. Non-zero lets
     * the kernel co-schedule several VPEs per PE, preempting the
     * resident one after this many cycles when others wait.
     */
    Cycles multiplexSlice = 0;

    /**
     * VPE live migration: lets the kernel move a running VPE to another
     * PE (PE drains, rolling restarts), locally or — via PE leases —
     * across kernel domains. Off by default; a machine without
     * migration is cycle- and trace-byte-identical to before.
     */
    bool migration = false;
    /**
     * Fault-driven failover: when the watchdog finds a VPE silent on a
     * dead core, restart it from its retained entry program on a
     * replacement PE instead of reclaiming it (exit EXIT_PE_DEAD only
     * when no replacement exists). Implies the migration machinery and
     * retains entry functors on every PE.
     */
    bool failover = false;
    /** PE drains to arm at boot: evacuate .first at cycle .second. */
    std::vector<std::pair<peid_t, Cycles>> drains;

    /**
     * Engine shards: split the host discrete-event engine into this many
     * conservatively synchronized partitions, cut along the kernel-domain
     * boundary (PE p lives on shard p mod S, which equals domainOfPe(p)
     * when S == numKernels — the only supported value > 1). 1 (the
     * default) is the serial engine, bit-identical to before. The
     * *simulated* outcome depends only on this value; `threads` is pure
     * host parallelism and never changes a single simulated byte.
     */
    uint32_t shards = 1;
    /**
     * Host worker threads driving a sharded engine (capped at shards;
     * ignored when shards == 1). See DESIGN.md §12.
     */
    uint32_t threads = 1;

    /** Service name of instance @p k. */
    static std::string
    fsName(uint32_t k)
    {
        return k == 0 ? "m3fs" : "m3fs" + std::to_string(k);
    }
};

/** A machine configuration plus the filesystem image it boots with. */
struct M3SystemCfg : M3MachineCfg
{
    /** Content of the filesystem image(s) (replicated per instance). */
    m3fs::FsImageSpec fsSpec;
};

/** A booted M3 machine. */
class M3System
{
  public:
    /**
     * Build the machine. The images are built from @p cfg's spec here;
     * the machine keeps no copy of the file contents.
     */
    explicit M3System(const M3SystemCfg &cfg);

    /** Unregisters the trace clock and, with metrics enabled, folds the
     *  machine's stats structs into the registry (exportMetrics()). */
    ~M3System();

    M3System(const M3System &) = delete;
    M3System &operator=(const M3System &) = delete;

    Simulator &simulator() { return sim; }
    Platform &platform() { return *plat; }
    kernel::Kernel &kernelInstance(uint32_t k = 0) { return *kerns.at(k); }

    /** The active fault plan; nullptr when faults are disabled. */
    FaultPlan *faultPlan() { return faults.get(); }

    /** The image served by fs instance @p k. */
    m3fs::FsImage *
    fsImage(uint32_t k = 0)
    {
        return k < images.size() ? images[k].get() : nullptr;
    }

    peid_t kernelPe(uint32_t k = 0) const { return k; }
    uint32_t numKernels() const { return cfg.numKernels; }
    uint32_t fsCount() const { return cfg.withFs ? cfg.fsInstances : 0; }
    peid_t fsPe(uint32_t k = 0) const
    {
        return cfg.withFs ? cfg.numKernels + k : INVALID_PE;
    }
    peid_t rootPe() const { return cfg.numKernels + fsCount(); }
    /** The kernel domain owning PE @p p (striped across non-kernel PEs). */
    uint32_t
    domainOfPe(peid_t p) const
    {
        if (p < cfg.numKernels)
            return p;
        return (p - cfg.numKernels) % cfg.numKernels;
    }

    /**
     * Install @p main as the root application (a boot program loaded by
     * the kernel). Call before simulate(); can only be called once.
     */
    void runRoot(const std::string &name, std::function<int()> main);

    /**
     * Run the machine until the event queue drains or @p limit passes.
     * @return true if the root program finished
     */
    bool simulate(Cycles limit = ~Cycles(0));

    bool rootFinished() const { return rootDone; }
    int rootExitCode() const { return rootExit; }

    /** Engine events executed by simulate() calls so far. */
    uint64_t eventsExecuted() const { return eventsRun; }

    /** Accounting of the root program (for breakdown reporting). */
    const Accounting &rootAccounting() const { return rootAcct; }

    /**
     * Merged accounting of all application fibers (root plus spawned
     * VPEs), excluding the kernel and fs-service fibers whose time is
     * already reflected in the clients' syscall/IPC waits.
     */
    Accounting appAccounting() const;

    /** Current cycle (end-to-end time measurements). */
    Cycles now() const { return sim.curCycle(); }

    /**
     * Print a machine-wide statistics summary (kernel activity, per-PE
     * DTU traffic, NoC totals) to stdout — the simulator's equivalent
     * of an end-of-run stats dump.
     */
    void printStats() const;

    /**
     * Fold this machine's stats structs (engine, kernel, DTUs, NoC,
     * faults) into the metric registry, so every harness reports them
     * uniformly. Counters add, so sequential machines in one process
     * aggregate; called automatically from the destructor when metrics
     * are enabled.
     */
    void exportMetrics();

  private:
    /** The configuration, less the image contents (which can run to
     *  hundreds of MiB and are read only while building the images). */
    M3MachineCfg cfg;
    Simulator sim;
    std::unique_ptr<Platform> plat;
    std::unique_ptr<FaultPlan> faults;
    std::vector<std::unique_ptr<m3fs::FsImage>> images;
    std::vector<std::unique_ptr<kernel::Kernel>> kerns;

    /** The kernel instance owning PE @p p. */
    kernel::Kernel &kernelOf(peid_t p) { return *kerns.at(domainOfPe(p)); }

    bool rootInstalled = false;
    bool tracerParallel = false; //!< this machine switched the tracer
    bool reqTraceParallel = false; //!< ditto for the request tracer
    bool rootDone = false;
    int rootExit = -1;
    uint64_t eventsRun = 0;
    Accounting rootAcct;
};

} // namespace m3

#endif // M3_LIBM3_M3SYSTEM_HH
