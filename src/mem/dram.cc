#include "mem/dram.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"

namespace m3
{

namespace
{

/**
 * Pages of destroyed modules, reused by the next module, so that a
 * process building machine after machine faults its pages in once and
 * not inside every simulate(). A reused page comes back with its
 * frontier at 0, so none of its old bytes can be read. The modules of
 * one striped machine may allocate from different engine threads at
 * once, hence the mutex.
 */
struct FreeList
{
    std::mutex lock;
    std::vector<uint8_t *> pages;

    ~FreeList()
    {
        for (uint8_t *p : pages)
            delete[] p;
    }
};

FreeList &
freeList()
{
    static FreeList list;
    return list;
}

uint8_t *
takePage()
{
    FreeList &fl = freeList();
    {
        std::lock_guard<std::mutex> g(fl.lock);
        if (!fl.pages.empty()) {
            uint8_t *p = fl.pages.back();
            fl.pages.pop_back();
            return p;
        }
    }
    return new uint8_t[Dram::PAGE_BYTES];
}

} // anonymous namespace

Dram::Dram(size_t bytes, Cycles latency)
    : bytes(bytes), latency(latency),
      pages((bytes + PAGE_BYTES - 1) / PAGE_BYTES)
{
    // Construct the free list first so it outlives every module.
    freeList();
}

Dram::~Dram()
{
    FreeList &fl = freeList();
    std::lock_guard<std::mutex> g(fl.lock);
    for (const Page &p : pages)
        if (p.data)
            fl.pages.push_back(p.data);
}

void
Dram::read(goff_t off, void *dst, size_t len)
{
    check(off, len);
    std::lock_guard<std::mutex> g(lock);
    copyOut(off, static_cast<uint8_t *>(dst), len);
}

void
Dram::write(goff_t off, const void *src, size_t len)
{
    check(off, len);
    std::lock_guard<std::mutex> g(lock);
    const uint8_t *in = static_cast<const uint8_t *>(src);
    while (len) {
        Page &p = pages[off / PAGE_BYTES];
        const size_t at = off % PAGE_BYTES;
        const size_t n = std::min(len, PAGE_BYTES - at);
        if (!p.data) {
            p.data = takePage();
            allocated++;
        }
        if (at > p.valid)
            std::memset(p.data + p.valid, 0, at - p.valid);
        std::memcpy(p.data + at, in, n);
        p.valid = std::max<uint32_t>(p.valid, static_cast<uint32_t>(at + n));
        in += n;
        off += n;
        len -= n;
    }
}

void
Dram::zero(goff_t off, size_t len)
{
    check(off, len);
    std::lock_guard<std::mutex> g(lock);
    while (len) {
        Page &p = pages[off / PAGE_BYTES];
        const size_t at = off % PAGE_BYTES;
        const size_t n = std::min(len, PAGE_BYTES - at);
        if (at + n >= p.valid)
            p.valid = std::min<uint32_t>(p.valid, static_cast<uint32_t>(at));
        else
            std::memset(p.data + at, 0, n);
        off += n;
        len -= n;
    }
}

const uint8_t *
Dram::inspect(goff_t off, size_t len) const
{
    check(off, len);
    std::lock_guard<std::mutex> g(lock);
    inspectBuf.resize(len);
    copyOut(off, inspectBuf.data(), len);
    return inspectBuf.data();
}

size_t
Dram::residentBytes() const
{
    std::lock_guard<std::mutex> g(lock);
    return allocated * PAGE_BYTES;
}

void
Dram::check(goff_t off, size_t len) const
{
    if (off > bytes || len > bytes - off)
        panic("DRAM access out of bounds: %llu + %zu > %zu",
              static_cast<unsigned long long>(off), len, bytes);
}

void
Dram::copyOut(goff_t off, uint8_t *dst, size_t len) const
{
    while (len) {
        const Page &p = pages[off / PAGE_BYTES];
        const size_t at = off % PAGE_BYTES;
        const size_t n = std::min(len, PAGE_BYTES - at);
        const size_t have = p.valid > at ? std::min(n, p.valid - at) : 0;
        if (have)
            std::memcpy(dst, p.data + at, have);
        if (have < n)
            std::memset(dst + have, 0, n - have);
        dst += n;
        off += n;
        len -= n;
    }
}

} // namespace m3
