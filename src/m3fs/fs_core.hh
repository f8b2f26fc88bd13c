/**
 * @file
 * Core m3fs logic: superblock, bitmaps, inodes, extents and directories,
 * implemented over an abstract block-access interface so that the same
 * code serves three users:
 *  - the host-side image builder (direct DRAM access, no cost),
 *  - the m3fs server (access through a block cache over a memory gate,
 *    i.e. real DTU transfers),
 *  - the filesystem checker used by the tests.
 */

#ifndef M3_M3FS_FS_CORE_HH
#define M3_M3FS_FS_CORE_HH

#include <string>
#include <vector>

#include "base/errors.hh"
#include "m3fs/fs_defs.hh"

namespace m3
{
namespace m3fs
{

class DramAccess;

/** Byte-granular access to the filesystem image. */
class BlockAccess
{
  public:
    virtual ~BlockAccess() = default;

    /** Read @p len bytes at image offset @p off. */
    virtual void read(goff_t off, void *dst, size_t len) = 0;

    /** Write @p len bytes at image offset @p off. */
    virtual void write(goff_t off, const void *src, size_t len) = 0;
};

/** Result of a path resolution. */
struct ResolveResult
{
    inodeno_t ino = INVALID_INO;
    inodeno_t parent = INVALID_INO;
    std::string leafName;
    uint32_t components = 0;  //!< path components walked (for costing)
};

/** The filesystem engine. */
class FsCore
{
  public:
    explicit FsCore(BlockAccess &access);

    /** Format a fresh filesystem in a DRAM image. */
    static void format(DramAccess &access, uint32_t totalBlocks,
                       uint32_t totalInodes,
                       uint32_t blockSize = DEFAULT_BLOCK_SIZE);

    /** (Re)load the superblock; false if the magic is wrong. */
    bool load();

    const SuperBlock &superBlock() const { return sb; }

    // --- inodes -------------------------------------------------------
    Inode getInode(inodeno_t ino);
    void putInode(const Inode &inode);
    Error allocInode(uint32_t mode, Inode &out);
    void freeInode(inodeno_t ino);

    // --- extents ------------------------------------------------------
    /** The idx-th extent of the inode (direct or indirect). */
    Extent getExtent(const Inode &inode, uint32_t idx);

    /**
     * Append up to @p blocks blocks to the file, as one contiguous
     * extent of at most @p maxRun blocks (next-fit over the block
     * bitmap). Adjacent extents are merged when possible to keep
     * fragmentation low.
     * @return the extent actually allocated (len 0 when out of space)
     */
    Extent appendBlocks(Inode &inode, uint32_t blocks, uint32_t maxRun);

    /** Shrink the allocation to cover exactly @p newSize bytes. */
    void truncate(Inode &inode, uint64_t newSize);

    /** Free all blocks of the inode. */
    void freeBlocks(Inode &inode);

    // --- directories --------------------------------------------------
    /** Resolve a path to an inode (and its parent). */
    ResolveResult resolve(const std::string &path);

    /** Image offset of directory entry @p idx (0 when out of range). */
    goff_t dirEntryOff(const Inode &dir, uint64_t idx);

    Error dirLookup(inodeno_t dir, const std::string &name,
                    inodeno_t &out);
    Error dirInsert(inodeno_t dir, const std::string &name, inodeno_t ino);
    Error dirRemove(inodeno_t dir, const std::string &name);
    Error dirList(inodeno_t dir, std::vector<std::pair<inodeno_t,
                  std::string>> &out);
    bool dirEmpty(inodeno_t dir);

    // --- whole-file helpers (image builder, tests) ---------------------
    Error createFile(const std::string &path, const void *data,
                     size_t len, uint32_t blocksPerExtent);
    Error createDir(const std::string &path);
    Error readFile(const std::string &path, std::vector<uint8_t> &out);

    // --- data access ---------------------------------------------------
    /** Image offset of a data block. */
    goff_t blockOff(blockno_t b) const;

    /** Raw image access (for data reads/writes through the core). */
    BlockAccess &access() { return ba; }

    // --- consistency check ---------------------------------------------
    /**
     * Filesystem check: walks the directory tree from the root, verifies
     * inode/extent/bitmap consistency and directory sanity.
     * @param report receives human-readable findings
     * @return true if the filesystem is consistent
     */
    bool check(std::string &report);

  private:
    bool bitGet(blockno_t bmStart, uint32_t idx);
    void bitSet(blockno_t bmStart, uint32_t idx, bool value);
    void saveSb();
    void setExtent(Inode &inode, uint32_t idx, const Extent &e);
    blockno_t allocZeroedMetaBlock();
    Extent allocRun(uint32_t maxLen);
    void freeRun(blockno_t start, uint32_t len);

    BlockAccess &ba;
    SuperBlock sb{};
};

} // namespace m3fs
} // namespace m3

#endif // M3_M3FS_FS_CORE_HH
