/**
 * @file
 * The platform's DRAM module: one NoC node holding the external memory
 * that all PEs share (Sec. 4.1: Tomahawk has one DRAM module). m3fs keeps
 * the filesystem image here, pipes keep their ringbuffers here, and
 * applications obtain regions of it via memory capabilities.
 *
 * Software reaches the module only through DTU memory endpoints, so the
 * host backs only what was written: the module is a table of 64 KiB
 * pages allocated on first write. Each page has a valid frontier; bytes
 * at or past it read as zero, whatever the page memory holds. Sequential
 * first writes therefore never zero-fill, and zeroing a page's tail only
 * lowers its frontier. Simulated timing comes from accessLatency() and
 * the NoC alone, so the backing store never changes a cycle.
 */

#ifndef M3_MEM_DRAM_HH
#define M3_MEM_DRAM_HH

#include <mutex>
#include <vector>

#include "base/types.hh"
#include "mem/mem_target.hh"

namespace m3
{

/** The external DRAM as a DTU memory target. */
class Dram : public MemTarget
{
  public:
    /** Host allocation granule of the backing store. */
    static constexpr size_t PAGE_BYTES = 64 * KiB;

    /**
     * @param bytes capacity
     * @param latency fixed access latency per request, in cycles
     */
    Dram(size_t bytes, Cycles latency);

    /** Hands the pages to the process-wide free list. */
    ~Dram() override;

    Dram(const Dram &) = delete;
    Dram &operator=(const Dram &) = delete;

    size_t size() const override { return bytes; }

    void read(goff_t off, void *dst, size_t len) override;
    void write(goff_t off, const void *src, size_t len) override;
    void zero(goff_t off, size_t len) override;

    Cycles accessLatency() const override { return latency; }

    /**
     * A copy of @p len bytes at @p off, for functional inspection in
     * tests. Valid until the next inspect() call on this module.
     */
    const uint8_t *inspect(goff_t off, size_t len) const;

    /** Host bytes currently backing the module (whole pages). */
    size_t residentBytes() const;

  private:
    /** A backing page; bytes at or past @c valid read as zero. */
    struct Page
    {
        uint8_t *data = nullptr;
        uint32_t valid = 0;
    };

    void check(goff_t off, size_t len) const;
    void copyOut(goff_t off, uint8_t *dst, size_t len) const;

    size_t bytes;
    Cycles latency;
    std::vector<Page> pages;
    size_t allocated = 0;  //!< pages with backing memory
    /** Serializes accesses: on a sharded engine, spun transfers reach
     *  one module from several threads, and the frontier couples
     *  disjoint ranges of a page. */
    mutable std::mutex lock;
    mutable std::vector<uint8_t> inspectBuf;
};

} // namespace m3

#endif // M3_MEM_DRAM_HH
