/**
 * @file
 * The sparse DRAM module: behaviour against a dense reference model,
 * page recycling, capacity without resident memory, and bounds checks.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstring>
#include <thread>
#include <vector>

#include "base/random.hh"
#include "mem/dram.hh"

namespace m3
{
namespace
{

constexpr size_t PAGE = Dram::PAGE_BYTES;

long
minorFaults()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return u.ru_minflt;
}

/** A random range of up to three pages, biased to start near a page
 *  boundary so that most ranges straddle one. */
void
randomRange(Random &rng, size_t size, goff_t &off, size_t &len)
{
    if (rng.nextBounded(2)) {
        const size_t edge = rng.nextBounded(size / PAGE + 1) * PAGE;
        const size_t lo = edge > 64 ? edge - 64 : 0;
        off = std::min<size_t>(rng.nextRange(lo, edge + 64), size);
    } else {
        off = rng.nextBounded(size + 1);
    }
    len = std::min<size_t>(rng.nextBounded(3 * PAGE), size - off);
}

TEST(Dram, MatchesDenseReferenceModel)
{
    // Not a whole number of pages, so the last page is partial.
    const size_t size = 7 * PAGE + 777;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random rng(seed);
        Dram dram(size, 1);
        std::vector<uint8_t> ref(size, 0);
        std::vector<uint8_t> buf(3 * PAGE);
        // The first operations zero pages that were never allocated.
        for (int op = 0; op < 3000; ++op) {
            goff_t off;
            size_t len;
            randomRange(rng, size, off, len);
            const uint64_t kind = op < 20 ? 1 : rng.nextBounded(5);
            if (kind == 0 || kind == 2) {
                const uint64_t base = rng.next();
                for (size_t i = 0; i < len; ++i)
                    buf[i] = static_cast<uint8_t>((base + i * 7) | 1);
                dram.write(off, buf.data(), len);
                std::memcpy(ref.data() + off, buf.data(), len);
            } else if (kind == 1) {
                dram.zero(off, len);
                std::memset(ref.data() + off, 0, len);
            } else {
                dram.read(off, buf.data(), len);
                ASSERT_EQ(std::memcmp(buf.data(), ref.data() + off, len), 0)
                    << "op " << op << " read " << off << "+" << len;
            }
        }
        ASSERT_EQ(std::memcmp(dram.inspect(0, size), ref.data(), size), 0);
        EXPECT_LE(dram.residentBytes(), 8 * PAGE);
    }
}

TEST(Dram, UntouchedRangeReadsZeroWithoutAllocating)
{
    Dram dram(4 * PAGE, 1);
    std::vector<uint8_t> buf(2 * PAGE, 0xee);
    dram.read(PAGE / 2, buf.data(), buf.size());
    EXPECT_EQ(buf, std::vector<uint8_t>(buf.size(), 0));
    dram.zero(0, 4 * PAGE);
    EXPECT_EQ(dram.residentBytes(), 0u);
    uint8_t one = 1;
    dram.write(PAGE + 5, &one, 1);
    EXPECT_EQ(dram.residentBytes(), PAGE);
}

TEST(Dram, FrontierLoweringAndGapFill)
{
    Dram dram(2 * PAGE, 1);
    std::vector<uint8_t> ones(PAGE, 0x11);
    dram.write(0, ones.data(), PAGE);
    // Zeroing the tail lowers the frontier; the bytes below survive.
    dram.zero(1000, PAGE - 1000);
    EXPECT_EQ(dram.inspect(999, 1)[0], 0x11);
    EXPECT_EQ(dram.inspect(1000, 1)[0], 0);
    // A write past the lowered frontier must not revive the old bytes
    // in the gap between them.
    uint8_t two = 2;
    dram.write(5000, &two, 1);
    const uint8_t *p = dram.inspect(0, 6000);
    for (size_t i = 1000; i < 5000; ++i)
        ASSERT_EQ(p[i], 0) << i;
    EXPECT_EQ(p[5000], 2);
    EXPECT_EQ(p[0], 0x11);
    // Zeroing inside the valid part clears exactly that range.
    dram.zero(10, 20);
    p = dram.inspect(0, 40);
    EXPECT_EQ(p[9], 0x11);
    EXPECT_EQ(p[10], 0);
    EXPECT_EQ(p[29], 0);
    EXPECT_EQ(p[30], 0x11);
}

TEST(Dram, RecycledPagesHoldNoStaleBytes)
{
    const size_t size = 8 * PAGE;
    {
        Dram dirty(size, 1);
        std::vector<uint8_t> ff(size, 0xff);
        dirty.write(0, ff.data(), size);
    }
    Dram fresh(size, 1);
    const uint8_t *p = fresh.inspect(0, size);
    for (size_t i = 0; i < size; ++i)
        ASSERT_EQ(p[i], 0) << i;
    // Reused pages start with their frontier at 0: a write into the
    // middle of one zero-fills below it instead of exposing old bytes.
    uint8_t seven = 7;
    for (size_t pg = 0; pg < 8; ++pg)
        fresh.write(pg * PAGE + PAGE / 2, &seven, 1);
    EXPECT_EQ(fresh.residentBytes(), size);
    p = fresh.inspect(0, size);
    for (size_t i = 0; i < size; ++i)
        ASSERT_EQ(p[i], i % PAGE == PAGE / 2 ? 7 : 0) << i;
}

TEST(Dram, HugeModuleIsNotFaultedIn)
{
    constexpr size_t SIXTEEN_GIB = size_t(16) * 1024 * MiB;
    const long before = minorFaults();
    Dram dram(SIXTEEN_GIB, 1);
    uint8_t last = 0xee;
    dram.read(SIXTEEN_GIB - 1, &last, 1);
    const long faults = minorFaults() - before;
    EXPECT_EQ(dram.residentBytes(), 0u);
    EXPECT_EQ(last, 0);
    // A dense module would take 4M faults of 4 KiB. The page table
    // (16 B per 64 KiB page) takes ~1k, plus sanitizer shadow.
    EXPECT_LT(faults, 65536);
    dram.write(SIXTEEN_GIB - 1, &last, 1);
    EXPECT_EQ(dram.residentBytes(), PAGE);
}

TEST(Dram, InspectSpansPageBoundary)
{
    Dram dram(4 * PAGE, 1);
    std::vector<uint8_t> data(300);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i + 1);
    dram.write(2 * PAGE - 100, data.data(), data.size());
    EXPECT_EQ(std::memcmp(dram.inspect(2 * PAGE - 100, 300), data.data(),
                          300),
              0);
    const uint8_t *p = dram.inspect(2 * PAGE - 101, 302);
    EXPECT_EQ(p[0], 0);
    EXPECT_EQ(p[1], 1);
    EXPECT_EQ(p[300], 44);
    EXPECT_EQ(p[301], 0);
}

TEST(DramDeathTest, OutOfBoundsPanics)
{
    Dram dram(PAGE + 10, 1);
    uint8_t buf[16] = {};
    EXPECT_DEATH(dram.read(PAGE + 5, buf, 6), "out of bounds");
    EXPECT_DEATH(dram.write(PAGE + 11, buf, 0), "out of bounds");
    EXPECT_DEATH(dram.zero(0, PAGE + 11), "out of bounds");
    EXPECT_DEATH(dram.inspect(PAGE, 11), "out of bounds");
}

TEST(Dram, ConcurrentModulesShareTheFreeList)
{
    // Engine threads of a sharded machine: each churns its own modules
    // through the free list while all of them also write one shared
    // module at disjoint offsets within the same pages.
    Dram shared(4 * PAGE, 1);
    constexpr int THREADS = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < THREADS; ++t) {
        threads.emplace_back([t, &shared] {
            for (int round = 0; round < 50; ++round) {
                Dram own(4 * PAGE, 1);
                const uint8_t v = static_cast<uint8_t>(t + 1);
                own.write(round * 1000 % (3 * PAGE), &v, 1);
                for (size_t pg = 0; pg < 4; ++pg)
                    shared.write(pg * PAGE + round * THREADS + t, &v, 1);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (size_t pg = 0; pg < 4; ++pg) {
        const uint8_t *p = shared.inspect(pg * PAGE, 50 * THREADS);
        for (int i = 0; i < 50 * THREADS; ++i)
            ASSERT_EQ(p[i], i % THREADS + 1) << pg << " " << i;
    }
}

} // anonymous namespace
} // namespace m3
