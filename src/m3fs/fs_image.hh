/**
 * @file
 * Host-side filesystem image construction: formats a region of the
 * platform DRAM and populates it with directories and files before the
 * simulation starts (the equivalent of shipping a prepared disk image).
 * Also used by tests to inspect and fsck the image afterwards.
 */

#ifndef M3_M3FS_FS_IMAGE_HH
#define M3_M3FS_FS_IMAGE_HH

#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "mem/dram.hh"
#include "m3fs/fs_core.hh"

namespace m3
{
namespace m3fs
{

/** Direct (functional, cost-free) access to the image in DRAM. */
class DramAccess : public BlockAccess
{
  public:
    DramAccess(Dram &dram, goff_t base) : dram(dram), base(base) {}

    void
    read(goff_t off, void *dst, size_t len) override
    {
        dram.read(base + off, dst, len);
    }

    void
    write(goff_t off, const void *src, size_t len) override
    {
        dram.write(base + off, src, len);
    }

    /** Set @p len bytes at image offset @p off to zero. */
    void
    zero(goff_t off, size_t len)
    {
        dram.zero(base + off, len);
    }

  private:
    Dram &dram;
    goff_t base;
};

/** Description of a file to place into the image. */
struct FileSpec
{
    std::string path;
    std::vector<uint8_t> data;
    /** Cap on the extent length, for fragmentation experiments. */
    uint32_t blocksPerExtent = 0xffffffff;
};

/** Description of a whole image. */
struct FsImageSpec
{
    uint32_t totalBlocks = 16384;  //!< 16 MiB at 1 KiB blocks
    uint32_t totalInodes = 512;
    uint32_t blockSize = DEFAULT_BLOCK_SIZE;
    std::vector<std::string> dirs;
    std::vector<FileSpec> files;
};

/** A built filesystem image in DRAM. */
class FsImage
{
  public:
    FsImage(Dram &dram, goff_t base, const FsImageSpec &spec)
        : accessor(dram, base), fsCore(accessor),
          bytes(static_cast<uint64_t>(spec.totalBlocks) * spec.blockSize)
    {
        if (base + bytes > dram.size())
            fatal("filesystem image exceeds the DRAM");
        FsCore::format(accessor, spec.totalBlocks, spec.totalInodes,
                       spec.blockSize);
        if (!fsCore.load())
            panic("built image failed to load");
        for (const std::string &d : spec.dirs) {
            Error e = fsCore.createDir(d);
            if (e != Error::None)
                fatal("creating image dir '%s': %s", d.c_str(),
                      errorName(e));
        }
        for (const FileSpec &f : spec.files) {
            Error e = fsCore.createFile(f.path, f.data.data(),
                                        f.data.size(), f.blocksPerExtent);
            if (e != Error::None)
                fatal("creating image file '%s': %s", f.path.c_str(),
                      errorName(e));
        }
    }

    FsCore &core() { return fsCore; }
    uint64_t sizeBytes() const { return bytes; }

    /** Deterministic pseudo-random file contents. */
    static std::vector<uint8_t>
    patternData(size_t size, uint64_t seed)
    {
        Random rng(seed);
        std::vector<uint8_t> data(size);
        for (size_t i = 0; i < size; ++i)
            data[i] = static_cast<uint8_t>(rng.next());
        return data;
    }

  private:
    DramAccess accessor;
    FsCore fsCore;
    uint64_t bytes;
};

} // namespace m3fs
} // namespace m3

#endif // M3_M3FS_FS_IMAGE_HH
