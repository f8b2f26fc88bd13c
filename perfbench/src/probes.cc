/**
 * @file
 * Isolated layer probes. Each probe builds its substrate (event queue,
 * simulator, NoC, DTU pair, platform) once, outside the timed region,
 * and times only the layer operation it names, as the median of a few
 * batches.
 */

#include <algorithm>

#include "m3fs/fs_image.hh"
#include "pe/platform.hh"
#include "perfbench.hh"

using namespace m3;

namespace pb
{

namespace
{

constexpr int BATCHES = 5;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Median over BATCHES of @p batch(), each returning seconds. */
template <typename F>
double
medianOf(F &&batch)
{
    std::vector<double> t;
    for (int i = 0; i < BATCHES; ++i)
        t.push_back(batch());
    return median(t);
}

template <typename F>
double
timed(F &&f)
{
    auto t0 = Clock::now();
    f();
    return secondsSince(t0);
}

/** Host ns per scheduled-and-executed event. */
double
eventNs()
{
    SpanScope s("sim.event_probe");
    constexpr int N = 200000;
    EventQueue eq;
    uint64_t sink = 0;
    return medianOf([&] {
        return timed([&] {
            for (int i = 0; i < N; ++i)
                eq.schedule(static_cast<Cycles>(i % 97), [&sink] {
                    ++sink;
                });
            eq.run();
        });
    }) * 1e9 / N;
}

/** Host ns per fiber switch (a sleep switches out and back in). */
double
fiberSwitchNs()
{
    SpanScope s("sim.fiber_probe");
    constexpr int N = 100000;
    Simulator sim;
    return medianOf([&] {
        sim.run("switcher", [] {
            for (int i = 0; i < N; ++i)
                Fiber::current()->sleep(1);
        });
        return timed([&] { sim.simulate(); });
    }) * 1e9 / (2.0 * N);
}

/** Host ns per NoC packet sent and delivered on a 4x4 mesh. */
double
nocSendNs()
{
    SpanScope s("noc.send_probe");
    constexpr int N = 100000;
    EventQueue eq;
    HwCosts hw;
    Noc noc(eq, hw, 4, 4);
    uint64_t delivered = 0;
    return medianOf([&] {
        return timed([&] {
            for (int i = 0; i < N; ++i)
                noc.send(static_cast<nocid_t>(i % 16),
                         static_cast<nocid_t>((i * 7) % 16), 64,
                         [&delivered] { ++delivered; });
            eq.run();
        });
    }) * 1e9 / N;
}

/** Host ns per DTU message sent, received and acknowledged. */
double
dtuMsgNs()
{
    SpanScope s("dtu.msg_probe");
    constexpr int N = 20000;
    Simulator sim;
    Platform platform(sim, PlatformSpec::generalPurpose(2));
    Dtu &tx = platform.pe(0).dtu();
    Dtu &rx = platform.pe(1).dtu();
    RecvEpCfg ring;
    ring.bufAddr = platform.pe(1).spm().alloc(4 * 128);
    ring.slotCount = 4;
    ring.slotSize = 128;
    ring.replyProtected = true;
    rx.configRecv(2, ring);
    SendEpCfg send;
    send.targetNode = 1;
    send.targetEp = 2;
    send.credits = CREDITS_UNLIMITED;
    send.maxMsgSize = 128;
    tx.configSend(2, send);
    spmaddr_t msg = platform.pe(0).spm().alloc(64);
    return medianOf([&] {
        sim.run("rx", [&] {
            for (int i = 0; i < N; ++i) {
                rx.waitForMsg(2);
                int slot = rx.fetchMsg(2);
                rx.ackMsg(2, static_cast<uint32_t>(slot));
            }
        });
        sim.run("tx", [&] {
            for (int i = 0; i < N; ++i) {
                while (tx.startSend(2, msg, 64) != Error::None)
                    Fiber::current()->sleep(10);
                tx.waitUntilIdle();
            }
        });
        return timed([&] { sim.simulate(); });
    }) * 1e9 / N;
}

/** Host ns per KiB read from DRAM into an SPM by DTU bulk transfers. */
double
dtuBulkNsPerKiB()
{
    SpanScope s("dtu.bulk_probe");
    constexpr size_t BYTES = 16 * MiB;
    constexpr size_t CHUNK = 16 * KiB;
    Simulator sim;
    PlatformSpec spec = PlatformSpec::generalPurpose(1);
    spec.dramBytes = BYTES;
    Platform platform(sim, spec);
    Dtu &dtu = platform.pe(0).dtu();
    MemEpCfg mem;
    mem.targetNode = platform.dramNode();
    mem.offset = 0;
    mem.size = BYTES;
    mem.perms = MEM_RW;
    dtu.configMem(2, mem);
    spmaddr_t buf = platform.pe(0).spm().alloc(CHUNK);
    return medianOf([&] {
        sim.run("xfer", [&] {
            for (size_t done = 0; done < BYTES; done += CHUNK) {
                dtu.startRead(2, buf, done, CHUNK);
                dtu.waitUntilIdle();
            }
        });
        return timed([&] { sim.simulate(); });
    }) * 1e9 / (BYTES / KiB);
}

/** Host seconds per GiB of DRAM module construction. */
double
dramAllocSPerGiB()
{
    SpanScope s("mem.dram_probe");
    constexpr size_t BYTES = 256 * MiB;
    return medianOf([] {
        return timed([] {
            Dram d(BYTES, 1);
            // Keep the allocation observable so it cannot be elided.
            volatile uint8_t last = *d.inspect(BYTES - 1, 1);
            (void)last;
        });
    }) * (double(1024 * MiB) / BYTES);
}

/** The general-purpose PE list an M3System builds for @p cfg. */
PlatformSpec
platformSpecOf(const M3SystemCfg &cfg)
{
    PlatformSpec spec;
    spec.costs = cfg.costs;
    // DRAM has its own probe; keep the module minimal here.
    spec.dramBytes = 1 * MiB;
    const uint32_t fs = cfg.withFs ? cfg.fsInstances : 0;
    spec.pes.assign(cfg.numKernels + fs + cfg.appPes, PeDesc::general());
    if (cfg.numKernels > 1)
        for (uint32_t k = 0; k < cfg.numKernels; ++k)
            spec.pes[k].spmDataSize = 2 * SPM_DATA_SIZE;
    return spec;
}

/** Host seconds to construct the workload's platform (PEs, NoC, DTUs,
 *  SPMs) without its DRAM. */
double
platformConstructS(const M3SystemCfg &cfg)
{
    SpanScope s("pe.platform_probe");
    const PlatformSpec spec = platformSpecOf(cfg);
    return medianOf([&] {
        Simulator sim;
        return timed([&] { Platform p(sim, spec); });
    });
}

/** Host seconds to format and populate one of the workload's fs
 *  images (0 for a machine without m3fs). */
double
imageFormatS(const M3SystemCfg &cfg)
{
    if (!cfg.withFs)
        return 0;
    SpanScope s("m3fs.image_probe");
    const size_t bytes =
        size_t(cfg.fsSpec.totalBlocks) * cfg.fsSpec.blockSize;
    Dram dram(bytes, 1);
    std::vector<double> t;
    for (int i = 0; i < 3; ++i)
        t.push_back(timed([&] { m3fs::FsImage img(dram, 0, cfg.fsSpec); }));
    return median(t);
}

} // anonymous namespace

std::map<std::string, double>
runProbes(const M3SystemCfg &cfg)
{
    std::map<std::string, double> out;
    out["sim.event_ns"] = eventNs();
    out["sim.fiber_switch_ns"] = fiberSwitchNs();
    out["noc.send_ns"] = nocSendNs();
    out["dtu.msg_roundtrip_ns"] = dtuMsgNs();
    out["dtu.bulk_ns_per_kib"] = dtuBulkNsPerKiB();
    out["mem.dram_alloc_s_per_gib"] = dramAllocSPerGiB();
    out["pe.platform_construct_s"] = platformConstructS(cfg);
    out["m3fs.image_format_s"] = imageFormatS(cfg);
    return out;
}

} // namespace pb
