/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrate itself:
 * event-queue throughput, fiber context switches, NoC packet routing and
 * the DTU message path. These measure host wall-clock performance (how
 * fast the simulation runs), not simulated cycles.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "pe/platform.hh"

namespace m3
{
namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(static_cast<Cycles>(i % 97), [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_FiberSwitch(benchmark::State &state)
{
    for (auto _ : state) {
        Simulator sim;
        sim.run("switcher", [] {
            for (int i = 0; i < 1000; ++i)
                Fiber::current()->sleep(1);
        });
        sim.simulate();
    }
    state.SetItemsProcessed(state.iterations() * 2000);  // 2 per sleep
}
BENCHMARK(BM_FiberSwitch);

void
BM_NocSend(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        HwCosts hw;
        Noc noc(eq, hw, 4, 4);
        int delivered = 0;
        for (int i = 0; i < 1000; ++i)
            noc.send(static_cast<nocid_t>(i % 16),
                     static_cast<nocid_t>((i * 7) % 16), 64,
                     [&delivered] { ++delivered; });
        eq.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_NocSend);

void
BM_DtuMessageRoundTrip(benchmark::State &state)
{
    // One machine for all iterations: only the message path is timed.
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

    // The fibers live across iterations, so the timed loop runs inside
    // the sender; the final message wakes the receiver to see `done`.
    bool done = false;
    sim.run("rx", [&] {
        while (!done) {
            rx.waitForMsg(2);
            int slot = rx.fetchMsg(2);
            rx.ackMsg(2, static_cast<uint32_t>(slot));
        }
    });
    auto sendOne = [&] {
        while (tx.startSend(2, msg, 64) != Error::None)
            Fiber::current()->sleep(10);
        tx.waitUntilIdle();
    };
    sim.run("tx", [&] {
        for (auto _ : state)
            for (int i = 0; i < 200; ++i)
                sendOne();
        done = true;
        sendOne();
    });
    sim.simulate();
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_DtuMessageRoundTrip);

void
BM_DtuBulkTransfer(benchmark::State &state)
{
    const size_t bytes = static_cast<size_t>(state.range(0));
    // One machine for all iterations: only the transfers are timed.
    Simulator sim;
    Platform platform(sim, PlatformSpec::generalPurpose(1));
    Dtu &dtu = platform.pe(0).dtu();
    MemEpCfg mem;
    mem.targetNode = platform.dramNode();
    mem.offset = 0;
    mem.size = 16 * MiB;
    mem.perms = MEM_RW;
    dtu.configMem(2, mem);
    spmaddr_t buf = platform.pe(0).spm().alloc(16 * KiB);
    // Back the range, so the reads copy real pages.
    const std::vector<uint8_t> fill(bytes, 0x5a);
    platform.dram().write(0, fill.data(), bytes);

    // The fiber lives across iterations, so the timed loop runs inside it.
    sim.run("xfer", [&] {
        for (auto _ : state) {
            size_t done = 0;
            while (done < bytes) {
                size_t chunk = std::min<size_t>(16 * KiB, bytes - done);
                dtu.startRead(2, buf, done, chunk);
                dtu.waitUntilIdle();
                done += chunk;
            }
        }
    });
    sim.simulate();
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_DtuBulkTransfer)->Arg(64 * 1024)->Arg(1024 * 1024);

} // anonymous namespace
} // namespace m3

BENCHMARK_MAIN();
