#include "libm3/m3system.hh"

#include "base/logging.hh"
#include "trace/metrics.hh"
#include "trace/reqtrace.hh"
#include "trace/trace.hh"

namespace m3
{

namespace
{

/** Clock adapter handed to the tracer: reads this machine's cycle (on a
 *  sharded engine, the cycle of whichever shard the calling thread is
 *  executing — the one the traced event belongs to). */
uint64_t
simClock(const void *ctx)
{
    return static_cast<const Simulator *>(ctx)->curCycle();
}

} // anonymous namespace

M3System::M3System(const M3SystemCfg &config) : cfg(config)
{
    if (cfg.withFs && cfg.fsInstances == 0)
        fatal("withFs requires at least one fs instance");
    if (cfg.numKernels == 0)
        fatal("numKernels must be at least 1");
    if (cfg.distfsStripes == 0)
        fatal("distfsStripes must be at least 1");
    if (cfg.distfsReplicas == 0)
        fatal("distfsReplicas must be at least 1");
    if (cfg.distfsReplicas > cfg.distfsStripes)
        fatal("distfsReplicas (%u) cannot exceed distfsStripes (%u): "
              "every copy needs its own stripe",
              cfg.distfsReplicas, cfg.distfsStripes);
    const bool striped = cfg.distfsStripes > 1;
    if (cfg.distfsSpares && !striped)
        fatal("distfsSpares requires a striped machine "
              "(distfsStripes > 1)");
    if (striped) {
        if (!cfg.withFs)
            fatal("distfs requires withFs");
        // One m3fs instance per stripe, plus the standby spares that
        // rebuild() re-mirrors dead stripes onto; the group fans
        // sessions out over the stripes only.
        cfg.fsInstances = cfg.distfsStripes + cfg.distfsSpares;
    }
    if (cfg.shards > 1) {
        // The shard cut is the kernel-domain boundary: with S ==
        // numKernels, PE p's shard (p mod S) is exactly domainOfPe(p),
        // so every kernel <-> owned-PE interaction stays shard-local and
        // only NoC packets ever cross the cut.
        if (cfg.shards != cfg.numKernels)
            fatal("shards (%u) must equal numKernels (%u): the engine "
                  "shards along kernel-domain boundaries",
                  cfg.shards, cfg.numKernels);
        // Features whose bookkeeping reaches across domains from
        // arbitrary execution contexts are not (yet) shard-safe.
        if (cfg.multiplexSlice)
            fatal("shards > 1 does not support VPE time multiplexing");
        if (cfg.migration || cfg.failover)
            fatal("shards > 1 does not support migration or failover");
        if (!cfg.drains.empty())
            fatal("shards > 1 does not support PE drains");
        if (cfg.faults.active())
            fatal("shards > 1 does not support fault injection");
        if (cfg.watchdogPeriod)
            fatal("shards > 1 does not support the kernel watchdog");
        // Conservative lookahead: the cheapest packet that can cross a
        // shard cut travels two hops (adjacent nodes are always on
        // different shards) and serializes at least a bare header.
        const HwCosts &hw = cfg.costs.hw;
        Cycles lookahead =
            2 * hw.nocHopLatency +
            (hw.msgHeaderSize + hw.nocBytesPerCycle - 1) /
                hw.nocBytesPerCycle;
        sim.configureShards(cfg.shards, lookahead);
        if (trace::Tracer::on) {
            trace::Tracer::setParallel(true);
            tracerParallel = true;
        }
        if (trace::ReqTrace::on) {
            trace::ReqTrace::setParallel(true);
            reqTraceParallel = true;
        }
    }
    sim.setThreads(cfg.threads);

    PlatformSpec spec;
    spec.costs = cfg.costs;
    spec.dramBytes = cfg.dramBytes;
    // Striped machines give every stripe its own DRAM module so the
    // stripes' memory bandwidth adds up instead of queueing at one
    // controller; modules == 1 keeps the seed's node numbering.
    spec.dramModules = striped ? cfg.fsInstances : 1;
    uint32_t generalPes = cfg.numKernels + fsCount() + cfg.appPes;
    spec.pes.assign(generalPes, PeDesc::general());
    // A striped data plane multiplies the client's concurrent gates
    // (one mem gate in flight per stripe and open file, plus one send
    // gate per stripe session): provision wider DTUs so steady-state
    // I/O is not dominated by endpoint eviction and kernel re-Activate
    // round trips. Non-striped machines keep the prototype's 8 EPs —
    // and their exact cycle counts.
    if (striped) {
        // Replicated mounts hold one extra subfile (and its in-flight
        // memory gate) per stripe and copy; widen further so mirrored
        // writes do not thrash the endpoint cache. R = 1 keeps the
        // PR 9 formula — and its exact cycle counts.
        uint32_t want = 4 + 3 * cfg.distfsStripes +
                        2 * cfg.distfsStripes * (cfg.distfsReplicas - 1);
        epid_t eps = static_cast<epid_t>(
            std::min<uint32_t>(MAX_EP_COUNT, want));
        for (PeDesc &d : spec.pes)
            d.epCount = std::max(d.epCount, eps);
    }
    // Multi-kernel machines carry two extra rings (inter-kernel request
    // and reply) in each kernel's scratchpad; give kernel PEs room for
    // them. Single-kernel machines keep the classic SPM layout.
    if (cfg.numKernels > 1)
        for (uint32_t k = 0; k < cfg.numKernels; ++k)
            spec.pes[k].spmDataSize = 2 * SPM_DATA_SIZE;
    for (const PeDesc &d : cfg.extraPes)
        spec.pes.push_back(d);

    plat = std::make_unique<Platform>(sim, spec);

    // Fresh machine: clear the cross-system environment registry
    // (fiber homes recorded by a previous M3System in this process).
    Env::resetRegistry();
    if (cfg.migration || cfg.failover) {
        for (peid_t p = 0; p < plat->peCount(); ++p) {
            // When a VPE's software lands on another PE, repoint its
            // environment: a live fiber learns its new home on wakeup,
            // a failover restart resolves it at functor entry.
            plat->pe(p).setVpeMovedHook(
                [](Fiber *f, uint64_t id, peid_t newPe) {
                    if (f)
                        Env::noteMoved(f, newPe);
                    else
                        Env::setHome(static_cast<vpeid_t>(id), newPe);
                });
            if (cfg.failover)
                plat->pe(p).setRetainPrograms(true);
        }
    }

    if (cfg.faults.active()) {
        faults = std::make_unique<FaultPlan>(cfg.faults);
        plat->setFaultPlan(*faults);
    }

    goff_t dramAllocStart = 0;
    for (uint32_t k = 0; k < fsCount(); ++k) {
        if (striped) {
            // Stripe k's image at offset 0 of DRAM module k.
            images.push_back(std::make_unique<m3fs::FsImage>(
                plat->dram(k), 0, config.fsSpec));
        } else {
            images.push_back(std::make_unique<m3fs::FsImage>(
                plat->dram(), dramAllocStart, config.fsSpec));
            dramAllocStart += images.back()->sizeBytes();
        }
    }
    if (striped && !images.empty()) {
        // The kernels' dynamic region lives in module 0, above its
        // stripe image.
        dramAllocStart = images[0]->sizeBytes();
    }

    // One kernel per domain. Each gets its own slice of the dynamic DRAM
    // region; a single kernel keeps the whole region, exactly as before.
    const uint32_t K = cfg.numKernels;
    for (uint32_t k = 0; k < K; ++k) {
        goff_t start = dramAllocStart;
        goff_t end = 0;
        if (K > 1) {
            goff_t usable = plat->dram().size() - dramAllocStart;
            goff_t share = (usable / K) & ~goff_t{63};
            start = dramAllocStart + k * share;
            end = k == K - 1 ? plat->dram().size() : start + share;
        }
        kerns.push_back(std::make_unique<kernel::Kernel>(
            *plat, kernelPe(k), start, end));
    }
    if (K > 1) {
        std::vector<peid_t> kernelPes;
        for (uint32_t k = 0; k < K; ++k)
            kernelPes.push_back(kernelPe(k));
        std::vector<uint32_t> ownedCounts(K, 0);
        for (peid_t p = K; p < plat->peCount(); ++p)
            ownedCounts[domainOfPe(p)]++;
        for (uint32_t k = 0; k < K; ++k) {
            kernel::Kernel::DomainCfg dc;
            dc.id = k;
            dc.count = K;
            dc.kernelPes = kernelPes;
            dc.ownedPes.assign(plat->peCount(), false);
            for (peid_t p = K; p < plat->peCount(); ++p)
                dc.ownedPes[p] = domainOfPe(p) == k;
            dc.ownedCounts = ownedCounts;
            kerns[k]->setDomain(std::move(dc));
        }
    }
    for (auto &k : kerns) {
        if (cfg.watchdogPeriod)
            k->enableWatchdog(cfg.watchdogDeadline, cfg.watchdogPeriod);
        if (cfg.multiplexSlice)
            k->enableMultiplexing(cfg.multiplexSlice);
        // Failover needs the same per-VPE context machinery (scheds
        // entries, generations) migration builds on, so it implies it.
        if (cfg.migration || cfg.failover)
            k->enableMigration();
        if (cfg.failover)
            k->enableFailover();
    }
    for (auto &[drainPe, drainAt] : cfg.drains)
        kernelOf(drainPe).scheduleDrain(drainPe, drainAt);

    for (uint32_t k = 0; k < fsCount(); ++k) {
        m3fs::ServerConfig srvCfg = cfg.fsCfg;
        srvCfg.fsBytes = images[k]->sizeBytes();
        srvCfg.name = M3SystemCfg::fsName(k);

        kernel::Kernel::BootProgram fsProg;
        fsProg.pe = fsPe(k);
        fsProg.name = srvCfg.name;
        fsProg.caps.push_back(kernel::Kernel::BootCap{
            srvCfg.fsMemSel, striped ? plat->dramNode(k) : plat->dramNode(),
            striped ? 0
                    : static_cast<goff_t>(k) * images[k]->sizeBytes(),
            images[k]->sizeBytes(), MEM_RW});
        Platform *platPtr = plat.get();
        peid_t pe = fsPe(k);
        fsProg.main = [platPtr, pe, srvCfg](vpeid_t id) {
            Env env(*platPtr, pe, id);
            int rc = m3fs::serverMain(srvCfg);
            env.vpeExit(rc);
        };
        kernelOf(fsPe(k)).addBootProgram(std::move(fsProg));
    }
    if (striped) {
        // Every kernel learns the stripe set so OpenSess("distfs", k)
        // resolves anywhere (members in other domains are reached via
        // the cross-domain service announcement).
        std::vector<std::string> members;
        for (uint32_t k = 0; k < cfg.distfsStripes; ++k)
            members.push_back(M3SystemCfg::fsName(k));
        for (auto &kern : kerns)
            kern->addServiceGroup(M3SystemCfg::DISTFS_GROUP, members,
                                  cfg.distfsReplicas);
    }

    if (trace::Tracer::on) {
        trace::Tracer::setClock(&simClock, &sim);
        for (peid_t p = 0; p < plat->peCount(); ++p) {
            uint32_t n = plat->nocIdOf(p);
            trace::Tracer::trackName(p, "pe" + std::to_string(p));
            trace::Tracer::trackName(trace::dtuTrack(n),
                                     "pe" + std::to_string(p) + " dtu");
            trace::Tracer::trackName(trace::nocTrack(n),
                                     "noc n" + std::to_string(n));
        }
        // A single module keeps the seed's "dram" track name; striped
        // machines label each module.
        if (plat->dramModules() > 1) {
            for (uint32_t m = 0; m < plat->dramModules(); ++m)
                trace::Tracer::trackName(
                    trace::nocTrack(plat->dramNode(m)),
                    "dram" + std::to_string(m));
        } else {
            trace::Tracer::trackName(trace::nocTrack(plat->dramNode()),
                                     "dram");
        }
        // Request tracks appear only when request tracing is armed, so
        // plain traces keep the seed's track set byte-for-byte.
        if (trace::ReqTrace::on) {
            for (peid_t p = 0; p < plat->peCount(); ++p) {
                uint32_t n = plat->nocIdOf(p);
                trace::Tracer::trackName(trace::reqTrack(n),
                                         "req pe" + std::to_string(p));
            }
        }
        // Multi-kernel machines label each kernel's track; single-kernel
        // machines keep the seed's track names byte-for-byte.
        if (cfg.numKernels > 1) {
            for (uint32_t k = 0; k < cfg.numKernels; ++k)
                trace::Tracer::trackName(
                    kernelPe(k), "kernel" + std::to_string(k) + " (pe" +
                                     std::to_string(kernelPe(k)) + ")");
        }
    }
}

M3System::~M3System()
{
    if (trace::Metrics::on)
        exportMetrics();
    trace::Tracer::clearClock(&sim);
    if (tracerParallel)
        trace::Tracer::setParallel(false);
    if (reqTraceParallel)
        trace::ReqTrace::setParallel(false);
}

void
M3System::exportMetrics()
{
    using trace::Metrics;

    const SimStats ss = sim.foldedStats();
    Metrics::counter("sim.events_scheduled").add(ss.eventsScheduled);
    Metrics::counter("sim.events_executed").add(ss.eventsExecuted);
    Metrics::gauge("sim.peak_pending").setMax(ss.peakPending);
    Metrics::counter("sim.callback_heap_fallbacks")
        .add(ss.callbackHeapFallbacks);

    // Aggregate across all kernel instances so the "kernel.*" schema is
    // the same regardless of numKernels.
    kernel::KernelStats ks;
    for (const auto &k : kerns) {
        const kernel::KernelStats &s = k->stats();
        ks.syscalls += s.syscalls;
        ks.vpesCreated += s.vpesCreated;
        ks.capsDelegated += s.capsDelegated;
        ks.capsRevoked += s.capsRevoked;
        ks.serviceRequests += s.serviceRequests;
        ks.heartbeats += s.heartbeats;
        ks.watchdogReclaims += s.watchdogReclaims;
        ks.ctxSwitches += s.ctxSwitches;
        ks.yields += s.yields;
        ks.ikRequestsSent += s.ikRequestsSent;
        ks.ikRequestsHandled += s.ikRequestsHandled;
        ks.remoteVpesPlaced += s.remoteVpesPlaced;
        ks.migrationsStarted += s.migrationsStarted;
        ks.migrationsCompleted += s.migrationsCompleted;
        ks.migrationsAborted += s.migrationsAborted;
        ks.failovers += s.failovers;
        ks.drains += s.drains;
        ks.pesLeased += s.pesLeased;
    }
    Metrics::counter("kernel.syscalls").add(ks.syscalls);
    Metrics::counter("kernel.vpes_created").add(ks.vpesCreated);
    Metrics::counter("kernel.caps_delegated").add(ks.capsDelegated);
    Metrics::counter("kernel.caps_revoked").add(ks.capsRevoked);
    Metrics::counter("kernel.service_requests").add(ks.serviceRequests);
    Metrics::counter("kernel.heartbeats").add(ks.heartbeats);
    Metrics::counter("kernel.watchdog_reclaims").add(ks.watchdogReclaims);
    Metrics::counter("kernel.ctx_switches").add(ks.ctxSwitches);
    Metrics::counter("kernel.yields").add(ks.yields);
    if (cfg.migration || cfg.failover) {
        // Migration keys exist only on machines that enable the
        // feature, keeping the seed's metric key set untouched. The
        // drain-duration histogram (kernel.drain.cycles) is observed
        // directly by the kernel as drains complete.
        Metrics::counter("kernel.migrations_started")
            .add(ks.migrationsStarted);
        Metrics::counter("kernel.migrations_completed")
            .add(ks.migrationsCompleted);
        Metrics::counter("kernel.migrations_aborted")
            .add(ks.migrationsAborted);
        Metrics::counter("kernel.failovers").add(ks.failovers);
        Metrics::counter("kernel.drains").add(ks.drains);
        Metrics::counter("kernel.pes_leased").add(ks.pesLeased);
    }
    if (kerns.size() > 1) {
        // Per-instance breakdown plus the IK totals, only registered on
        // multi-kernel machines (a single kernel keeps the seed's exact
        // metric key set).
        Metrics::counter("kernel.ik_requests_sent").add(ks.ikRequestsSent);
        Metrics::counter("kernel.ik_requests_handled")
            .add(ks.ikRequestsHandled);
        Metrics::counter("kernel.remote_vpes_placed")
            .add(ks.remoteVpesPlaced);
        for (size_t k = 0; k < kerns.size(); ++k) {
            const kernel::KernelStats &s = kerns[k]->stats();
            std::string p = "kernel.k" + std::to_string(k) + ".";
            Metrics::counter(p + "syscalls").add(s.syscalls);
            Metrics::counter(p + "vpes_created").add(s.vpesCreated);
            Metrics::counter(p + "ik_requests_sent").add(s.ikRequestsSent);
            Metrics::counter(p + "ik_requests_handled")
                .add(s.ikRequestsHandled);
            Metrics::counter(p + "remote_vpes_placed")
                .add(s.remoteVpesPlaced);
        }
    }

    DtuStats agg;
    for (peid_t p = 0; p < plat->peCount(); ++p) {
        const DtuStats &ds = plat->pe(p).dtu().stats();
        agg.msgsSent += ds.msgsSent;
        agg.msgsReceived += ds.msgsReceived;
        agg.msgsDropped += ds.msgsDropped;
        agg.msgsCorrupted += ds.msgsCorrupted;
        agg.creditDenials += ds.creditDenials;
        agg.memReads += ds.memReads;
        agg.memWrites += ds.memWrites;
        agg.bytesRead += ds.bytesRead;
        agg.bytesWritten += ds.bytesWritten;
        agg.extConfigs += ds.extConfigs;
        agg.msgsParked += ds.msgsParked;
        agg.msgsUnparked += ds.msgsUnparked;
    }
    Metrics::counter("dtu.msgs_sent").add(agg.msgsSent);
    Metrics::counter("dtu.msgs_received").add(agg.msgsReceived);
    Metrics::counter("dtu.msgs_dropped").add(agg.msgsDropped);
    Metrics::counter("dtu.msgs_corrupted").add(agg.msgsCorrupted);
    Metrics::counter("dtu.credit_denials").add(agg.creditDenials);
    Metrics::counter("dtu.mem_reads").add(agg.memReads);
    Metrics::counter("dtu.mem_writes").add(agg.memWrites);
    Metrics::counter("dtu.bytes_read").add(agg.bytesRead);
    Metrics::counter("dtu.bytes_written").add(agg.bytesWritten);
    Metrics::counter("dtu.ext_configs").add(agg.extConfigs);
    Metrics::counter("dtu.msgs_parked").add(agg.msgsParked);
    Metrics::counter("dtu.msgs_unparked").add(agg.msgsUnparked);

    const NocStats &ns = plat->noc().stats();
    Metrics::counter("noc.packets").add(ns.packets);
    Metrics::counter("noc.payload_bytes").add(ns.payloadBytes);
    Metrics::counter("noc.contention_stalls").add(ns.contentionStalls);
    Metrics::counter("noc.packets_dropped").add(ns.packetsDropped);
    Metrics::counter("noc.packets_delayed").add(ns.packetsDelayed);
    Metrics::counter("noc.packets_delivered").add(ns.packetsDelivered);
    plat->noc().exportMetrics(sim.curCycle());

    if (faults) {
        const FaultStats &fs = faults->stats();
        Metrics::counter("faults.packets_seen").add(fs.packetsSeen);
        Metrics::counter("faults.packets_dropped").add(fs.packetsDropped);
        Metrics::counter("faults.packets_delayed").add(fs.packetsDelayed);
        Metrics::counter("faults.delay_injected").add(fs.delayInjected);
        Metrics::counter("faults.payloads_corrupted")
            .add(fs.payloadsCorrupted);
        Metrics::counter("faults.ext_acks_refused").add(fs.extAcksRefused);
        Metrics::counter("faults.pe_kills").add(fs.peKills);
    }
}

void
M3System::runRoot(const std::string &name, std::function<int()> main)
{
    if (rootInstalled)
        fatal("runRoot called twice");
    rootInstalled = true;

    kernel::Kernel::BootProgram rootProg;
    rootProg.pe = rootPe();
    rootProg.name = name;
    Platform *platPtr = plat.get();
    peid_t pe = rootPe();
    M3System *self = this;
    rootProg.main = [platPtr, pe, self, main = std::move(main)](vpeid_t id) {
        Env env(*platPtr, pe, id);
        int rc = main();
        self->rootExit = rc;
        self->rootDone = true;
        self->rootAcct = env.fiber.accounting();
        env.vpeExit(rc);
    };
    kernelOf(rootPe()).addBootProgram(std::move(rootProg));
    for (auto &k : kerns)
        k->start();
}

Accounting
M3System::appAccounting() const
{
    Accounting total;
    std::vector<std::string> systemPrefixes;
    for (uint32_t k = 0; k < cfg.numKernels; ++k)
        systemPrefixes.push_back("pe" + std::to_string(kernelPe(k)) + ":");
    for (uint32_t k = 0; k < fsCount(); ++k)
        systemPrefixes.push_back("pe" + std::to_string(fsPe(k)) + ":");
    sim.forEachFiber([&](Fiber &f) {
        const std::string &n = f.fiberName();
        for (const std::string &p : systemPrefixes)
            if (n.rfind(p, 0) == 0)
                return;
        total.merge(f.accounting());
    });
    return total;
}

void
M3System::printStats() const
{
    std::printf("==== M3System stats @ cycle %llu ====\n",
                static_cast<unsigned long long>(sim.curCycle()));
    for (size_t k = 0; k < kerns.size(); ++k) {
        const kernel::KernelStats &ks = kerns[k]->stats();
        std::string label =
            kerns.size() > 1 ? "kernel" + std::to_string(k) : "kernel";
        const char *name = label.c_str();
        std::printf("%s: %llu syscalls, %llu VPEs, %llu caps delegated, "
                    "%llu revoked, %llu service requests\n",
                    name, static_cast<unsigned long long>(ks.syscalls),
                    static_cast<unsigned long long>(ks.vpesCreated),
                    static_cast<unsigned long long>(ks.capsDelegated),
                    static_cast<unsigned long long>(ks.capsRevoked),
                    static_cast<unsigned long long>(ks.serviceRequests));
        if (ks.ctxSwitches || ks.yields)
            std::printf("%s: %llu ctx switches, %llu yields\n", name,
                        static_cast<unsigned long long>(ks.ctxSwitches),
                        static_cast<unsigned long long>(ks.yields));
        if (ks.migrationsStarted || ks.failovers)
            std::printf("%s: %llu migrations (%llu completed, "
                        "%llu aborted), %llu failovers, %llu drains\n",
                        name,
                        static_cast<unsigned long long>(
                            ks.migrationsStarted),
                        static_cast<unsigned long long>(
                            ks.migrationsCompleted),
                        static_cast<unsigned long long>(
                            ks.migrationsAborted),
                        static_cast<unsigned long long>(ks.failovers),
                        static_cast<unsigned long long>(ks.drains));
        if (ks.ikRequestsSent || ks.ikRequestsHandled)
            std::printf("%s: %llu ik requests sent, %llu handled, "
                        "%llu remote VPEs placed\n",
                        name,
                        static_cast<unsigned long long>(ks.ikRequestsSent),
                        static_cast<unsigned long long>(
                            ks.ikRequestsHandled),
                        static_cast<unsigned long long>(
                            ks.remoteVpesPlaced));
    }
    const NocStats &ns = plat->noc().stats();
    std::printf("noc: %llu packets, %llu payload bytes, "
                "%llu contention stall cycles\n",
                static_cast<unsigned long long>(ns.packets),
                static_cast<unsigned long long>(ns.payloadBytes),
                static_cast<unsigned long long>(ns.contentionStalls));
    for (peid_t p = 0; p < plat->peCount(); ++p) {
        const DtuStats &ds = plat->pe(p).dtu().stats();
        if (!ds.msgsSent && !ds.msgsReceived && !ds.memReads &&
            !ds.memWrites)
            continue;
        std::printf("pe%-2u dtu: %6llu sent %6llu recvd %4llu dropped | "
                    "%6llu rd (%llu B) %6llu wr (%llu B)\n",
                    p, static_cast<unsigned long long>(ds.msgsSent),
                    static_cast<unsigned long long>(ds.msgsReceived),
                    static_cast<unsigned long long>(ds.msgsDropped),
                    static_cast<unsigned long long>(ds.memReads),
                    static_cast<unsigned long long>(ds.bytesRead),
                    static_cast<unsigned long long>(ds.memWrites),
                    static_cast<unsigned long long>(ds.bytesWritten));
    }
}

bool
M3System::simulate(Cycles limit)
{
    eventsRun += sim.simulate(limit);
    if (!rootDone && sim.queuesEmpty()) {
        auto blocked = sim.blockedFibers();
        std::string names;
        for (const auto &n : blocked)
            names += n + " ";
        warn("simulation drained without root exit; blocked fibers: %s",
             names.c_str());
    }
    return rootDone;
}

} // namespace m3
