/**
 * @file
 * Host-speed probe: a fixed piece of work that uses none of the
 * simulator's code, timed between repetitions. It is shaped like the
 * simulator's hot path (a binary event heap, indirect calls, random
 * reads and writes over a few MiB), so when a shared host runs slower
 * for a while, the probe slows down with the workload and the ratio of
 * the two stays about the same.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "perfbench.hh"

namespace pb
{

namespace
{

constexpr uint32_t HEAP_SIZE = 4096;
constexpr uint32_t TABLE_WORDS = 1u << 19;  // 4 MiB of uint64_t
constexpr uint32_t STEPS = 100000;
/** Fewest probe runs a median is taken over. */
constexpr size_t MIN_RUNS = 3;

using Handler = uint64_t (*)(uint64_t *, uint64_t);

uint64_t
touchRead(uint64_t *t, uint64_t x)
{
    return t[x & (TABLE_WORDS - 1)] + x;
}

uint64_t
touchWrite(uint64_t *t, uint64_t x)
{
    uint64_t &w = t[(x >> 7) & (TABLE_WORDS - 1)];
    w ^= x;
    return w;
}

uint64_t
mix(uint64_t *, uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    return x ^ (x >> 29);
}

/** The probe's work; returns a value that depends on all of it. */
uint64_t
work(std::vector<uint64_t> &table)
{
    static constexpr Handler handlers[] = {&touchRead, &touchWrite, &mix};
    std::vector<uint64_t> heap;
    heap.reserve(HEAP_SIZE);
    uint64_t x = 0x2545f4914f6cdd1dull;
    for (uint32_t i = 0; i < HEAP_SIZE; ++i) {
        x ^= x << 13, x ^= x >> 7, x ^= x << 17;
        heap.push_back(x >> 40);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    uint64_t acc = 0;
    for (uint32_t i = 0; i < STEPS; ++i) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const uint64_t when = heap.back();
        x ^= x << 13, x ^= x >> 7, x ^= x << 17;
        acc += handlers[x % 3](table.data(), x ^ acc);
        heap.back() = when + 1 + (x >> 52);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    return acc;
}

} // anonymous namespace

/** Keeps the probe's result, so the compiler cannot drop its work. */
uint64_t hostSpeedSink;

double
probeHostSpeed(double budget)
{
    static std::vector<uint64_t> table(TABLE_WORDS, 1);
    std::vector<double> t;
    const auto t0 = Clock::now();
    while (t.size() < MIN_RUNS || secondsSince(t0) < budget) {
        const auto t1 = Clock::now();
        hostSpeedSink += work(table);
        t.push_back(secondsSince(t1));
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

} // namespace pb
